#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ms::sim {
namespace {

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kJobs = 257;  // deliberately not a multiple of workers
  std::vector<std::atomic<int>> hits(kJobs);
  pool.run(kJobs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(ThreadPool, ZeroJobsIsANoop) {
  ThreadPool pool(2);
  pool.run(0, [&](std::size_t) { FAIL() << "no job should run"; });
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

TEST(ThreadPool, MaxWorkersBoundsTheThreadsThatRunABatch) {
  // Two workers may run the batch (the calling thread counts as one), so a
  // 4-worker pool must leave the other threads out of it.
  ThreadPool pool(4);
  constexpr std::size_t kJobs = 64;
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> ran{0};
  pool.run(
      kJobs,
      [&](std::size_t) {
        {
          std::lock_guard<std::mutex> lock(mu);
          threads.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      },
      2);
  EXPECT_EQ(ran.load(), static_cast<int>(kJobs));
  EXPECT_LE(threads.size(), 2u);
}

TEST(ThreadPool, NestedRunFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.run(4, [&](std::size_t) {
    ThreadPool::shared().run(4, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 16);
}

TEST(ThreadPool, NestedRunFromCallingThreadDoesNotDeadlock) {
  // Both levels on the *shared* pool. The calling thread helps drain the
  // outer batch, so outer jobs can land on it; a nested run() from such a
  // job re-enters the same pool while the caller still holds its run mutex.
  // Regression test for the self-deadlock this used to cause — nested runs
  // must execute inline on the batch-bound thread instead.
  std::atomic<int> inner{0};
  parallel_for(3, [&](std::size_t) {
    parallel_for(5, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 15);
}

TEST(ParallelMap, NestedMapsKeepOrderedResults) {
  // A sweep job that itself runs a parallel kernel is the common nested
  // shape; results of both levels must stay ordered by index.
  const auto out = parallel_map<std::size_t>(6, [](std::size_t i) {
    const auto sq = parallel_map<std::size_t>(4, [=](std::size_t j) { return i * 10 + j; });
    std::size_t sum = 0;
    for (const std::size_t v : sq) sum += v;
    return sum;  // 4*10i + 0+1+2+3
  });
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 40 * i + 6);
}

TEST(ParallelMap, ResultsAreOrderedByIndex) {
  const auto out = parallel_map<std::size_t>(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, SerialOptionBypassesThePool) {
  SweepOptions serial;
  serial.threads = 1;
  const auto out = parallel_map<int>(
      8, [](std::size_t i) { return static_cast<int>(i) + 1; }, serial);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

}  // namespace
}  // namespace ms::sim
