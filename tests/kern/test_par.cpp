#include "kern/par.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"

namespace ms::kern::par {
namespace {

TEST(Par, BlockCount) {
  EXPECT_EQ(block_count(0, 4), 0u);
  EXPECT_EQ(block_count(1, 4), 1u);
  EXPECT_EQ(block_count(4, 4), 1u);
  EXPECT_EQ(block_count(5, 4), 2u);
  EXPECT_EQ(block_count(8, 4), 2u);
  EXPECT_EQ(block_count(9, 4), 3u);
  EXPECT_EQ(block_count(9, 0), 0u);  // degenerate grain
}

TEST(Par, ThreadScopeRestores) {
  set_threads(0);
  {
    ThreadScope scope(3);
    EXPECT_EQ(threads(), 3);
    {
      ThreadScope inner(1);
      EXPECT_EQ(threads(), 1);
    }
    EXPECT_EQ(threads(), 3);
  }
  EXPECT_EQ(threads(), 0);
}

std::vector<std::pair<std::size_t, std::size_t>> observed_blocks(std::size_t begin,
                                                                 std::size_t end,
                                                                 std::size_t grain) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for_blocked(begin, end, grain, [&](std::size_t b0, std::size_t b1) {
    std::lock_guard<std::mutex> lock(mu);
    blocks.emplace_back(b0, b1);
  });
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

TEST(Par, ForBlockedCoversRangeExactlyOnce) {
  const auto blocks = observed_blocks(3, 25, 7);
  // Fixed decomposition of [3, 25) at grain 7: block b = [3+7b, min(3+7(b+1), 25)).
  const std::vector<std::pair<std::size_t, std::size_t>> want{
      {3, 10}, {10, 17}, {17, 24}, {24, 25}};
  EXPECT_EQ(blocks, want);
}

TEST(Par, DecompositionIndependentOfThreadCount) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const auto serial = [&] {
    ThreadScope scope(1);
    return observed_blocks(0, 1000, 64);
  }();
  for (const int t : {2, hw > 1 ? hw : 4}) {
    ThreadScope scope(t);
    EXPECT_EQ(observed_blocks(0, 1000, 64), serial) << "threads=" << t;
  }
}

TEST(Par, ForBlockedEmptyRangeAndZeroGrain) {
  for_blocked(5, 5, 4, [](std::size_t, std::size_t) { FAIL() << "empty range ran a block"; });
  // Zero grain degrades to one whole-range block instead of dividing by zero.
  const auto blocks = observed_blocks(2, 9, 0);
  const std::vector<std::pair<std::size_t, std::size_t>> want{{2, 9}};
  EXPECT_EQ(blocks, want);
}

TEST(Par, TreeMergeShapeIsFixed) {
  // A non-commutative, non-associative combine exposes the merge order:
  // the fixed pairwise tree over 5 leaves must produce ((01)(23))4.
  std::vector<std::string> leaves{"0", "1", "2", "3", "4"};
  detail::tree_merge(leaves, [](const std::string& a, const std::string& b) {
    return "(" + a + b + ")";
  });
  EXPECT_EQ(leaves[0], "(((01)(23))4)");
}

TEST(Par, BlockedReduceSumsEveryBlock) {
  // 1000 items at grain 64 -> 16 blocks; sum of i over [0, 1000).
  const long total = blocked_reduce(
      0, 1000, 64, 0L,
      [](std::size_t b0, std::size_t b1) {
        long s = 0;
        for (std::size_t i = b0; i < b1; ++i) s += static_cast<long>(i);
        return s;
      },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(total, 999L * 1000L / 2L);
}

TEST(Par, BlockedReduceBitIdenticalAcrossThreadCounts) {
  // Doubles chosen so the sum rounds differently under other groupings; the
  // fixed decomposition + fixed tree must give the same bits every time.
  std::vector<double> xs(10000);
  double seed = 0.5;
  for (double& x : xs) {
    seed = seed * 1103515245.0 + 12345.0;
    seed = seed - 4294967296.0 * static_cast<double>(static_cast<long long>(seed / 4294967296.0));
    x = seed / 4294967296.0 + 1e-12;
  }
  auto reduce = [&] {
    return blocked_reduce(
        0, xs.size(), 128, 0.0,
        [&](std::size_t b0, std::size_t b1) {
          double s = 0.0;
          for (std::size_t i = b0; i < b1; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = [&] {
    ThreadScope scope(1);
    return reduce();
  }();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int t : {0, 2, hw > 1 ? hw : 4}) {
    ThreadScope scope(t);
    EXPECT_EQ(serial, reduce()) << "threads=" << t;
  }
}

TEST(Par, EmptyReduceReturnsIdentity) {
  const int r = blocked_reduce(
      7, 7, 16, -1, [](std::size_t, std::size_t) { return 99; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, -1);
}

TEST(Par, NestedForBlockedRunsInline) {
  // A blocked loop inside a blocked loop (kernel inside a sweep job) must
  // complete without deadlock and still cover everything exactly once.
  std::mutex mu;
  std::set<std::pair<std::size_t, std::size_t>> cells;
  for_blocked(0, 8, 2, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for_blocked(0, 6, 2, [&](std::size_t c0, std::size_t c1) {
        for (std::size_t c = c0; c < c1; ++c) {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(cells.emplace(r, c).second) << "cell visited twice";
        }
      });
    }
  });
  EXPECT_EQ(cells.size(), 48u);
}

TEST(Par, PooledForBlockedAllocatesOnlyTheBatch) {
  // Two row bands at two threads go through the pool. The body reaches the
  // pool by reference and the pool's telemetry children are cached, so the
  // calling thread allocates only the batch record.
  const ThreadScope two(2);
  const std::size_t rows = 70, cols = 600;
  std::vector<float> plane(rows * cols);
  const auto fill = [&](std::size_t r0, std::size_t r1) {
    std::fill(plane.begin() + static_cast<std::ptrdiff_t>(r0 * cols),
              plane.begin() + static_cast<std::ptrdiff_t>(r1 * cols), 1.0f);
  };
  for_blocked(0, rows, kRowBand, fill);  // starts the shared pool
  const std::size_t before = ms::test::alloc_count();
  for_blocked(0, rows, kRowBand, fill);
  EXPECT_EQ(ms::test::alloc_count() - before, 1u);
  EXPECT_EQ(std::count(plane.begin(), plane.end(), 1.0f), static_cast<std::ptrdiff_t>(rows * cols));
}

}  // namespace
}  // namespace ms::kern::par
