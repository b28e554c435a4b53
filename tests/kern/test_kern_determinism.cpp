// Satellite of the kernel execution engine: every parallelized kernel must be
// bit-identical across thread counts. Each case runs the kernel under
// par::ThreadScope for 1 / 2 / hardware_concurrency / default workers on the
// same seeded input, sized to span several engine blocks, and memcmps the
// outputs against the single-threaded run.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "kern/cholesky.hpp"
#include "kern/gemm.hpp"
#include "kern/hotspot.hpp"
#include "kern/kmeans.hpp"
#include "kern/lu.hpp"
#include "kern/nn.hpp"
#include "kern/par.hpp"
#include "kern/saxpy_iter.hpp"
#include "kern/srad.hpp"

namespace ms::kern {
namespace {

std::vector<int> thread_sweep() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return {2, hw > 1 ? hw : 4, 0};
}

template <typename T>
std::vector<T> random_vec(std::size_t n, unsigned seed, double lo = -1.0, double hi = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<T> v(n);
  for (T& x : v) x = static_cast<T>(d(rng));
  return v;
}

/// Runs `kernel` (filling `out`) once per thread count and verifies the raw
/// bytes of `out` match the single-threaded run.
template <typename T, typename Fn>
void expect_bit_identical(std::vector<T>& out, const std::vector<T>& init, Fn&& kernel) {
  std::vector<T> want;
  {
    par::ThreadScope scope(1);
    out = init;
    kernel();
    want = out;
  }
  for (const int t : thread_sweep()) {
    par::ThreadScope scope(t);
    out = init;
    kernel();
    ASSERT_EQ(out.size(), want.size());
    EXPECT_EQ(std::memcmp(out.data(), want.data(), out.size() * sizeof(T)), 0)
        << "threads=" << t;
  }
}

TEST(KernDeterminism, GemmNtAcc) {
  const std::size_t m = 300, n = 41, k = 70;  // j fringe + k % lanes tail
  const auto a = random_vec<double>(m * k, 21);
  const auto bt = random_vec<double>(n * k, 22);
  const auto c0 = random_vec<double>(m * n, 23);
  std::vector<double> c;
  expect_bit_identical(c, c0,
                       [&] { gemm_nt_acc(a.data(), bt.data(), c.data(), m, n, k, k, k, n); });
}

/// A 144-row tile: three kern::par bands, the last one short.
constexpr std::size_t kTile = 144;

/// A tile-sized triangle source with a dominant diagonal, for the solves.
std::vector<double> triangle(unsigned seed) {
  auto t = random_vec<double>(kTile * kTile, seed);
  for (std::size_t i = 0; i < kTile; ++i) t[i * kTile + i] = 4.0;
  return t;
}

TEST(KernDeterminism, CfTileKernels) {
  const std::size_t n = kTile, k = kTile;
  const auto a = random_vec<double>(n * k, 24);
  const auto b = random_vec<double>(n * k, 25);
  const auto c0 = random_vec<double>(n * n, 26);
  const auto l = triangle(27);
  std::vector<double> c;
  expect_bit_identical(c, c0, [&] {
    gemm_nt_tile(a.data(), b.data(), c.data(), n, n, k, k, k, n);
  });
  expect_bit_identical(c, c0, [&] { syrk_tile(a.data(), c.data(), n, k, k, n); });
  expect_bit_identical(c, c0, [&] { trsm_tile(l.data(), c.data(), n, n, n, n); });
}

TEST(KernDeterminism, LuTileKernels) {
  const std::size_t n = kTile, k = kTile;
  const auto a = random_vec<double>(n * k, 28);
  const auto b = random_vec<double>(k * n, 29);
  const auto c0 = random_vec<double>(n * n, 30);
  const auto t = triangle(31);
  std::vector<double> c;
  expect_bit_identical(c, c0, [&] {
    gemm_nn_sub(a.data(), b.data(), c.data(), n, n, k, k, n, n);
  });
  expect_bit_identical(c, c0, [&] { trsm_lower_left(t.data(), c.data(), n, n, n, n); });
  expect_bit_identical(c, c0, [&] { trsm_upper_right(t.data(), c.data(), n, n, n, n); });
}

TEST(KernDeterminism, HotspotStep) {
  const std::size_t rows = 150, cols = 37;  // 3 bands, clamped edge columns
  const auto t_in = random_vec<double>(rows * cols, 31, 40.0, 90.0);
  const auto power = random_vec<double>(rows * cols, 32, 0.0, 1.0);
  const std::vector<double> init(rows * cols, 0.0);
  const HotspotParams p;
  std::vector<double> t_out;
  expect_bit_identical(t_out, init, [&] {
    hotspot_step(t_in.data(), power.data(), t_out.data(), rows, cols, 0, rows, 0, cols, p);
  });
}

TEST(KernDeterminism, KmeansAssign) {
  const std::size_t n = 70000, dims = 8, k = 5;  // 3 point chunks
  const auto points = random_vec<float>(n * dims, 41);
  const auto centroids = random_vec<float>(k * dims, 42);
  const std::vector<std::int32_t> init(n, -1);
  std::vector<std::int32_t> membership;
  expect_bit_identical(membership, init, [&] {
    kmeans_assign(points.data(), centroids.data(), membership.data(), n, dims, k);
  });
}

TEST(KernDeterminism, NnDistancesAndTopk) {
  const std::size_t n = 70000, k = 10;
  std::vector<LatLng> records(n);
  const auto coords = random_vec<float>(n * 2, 51, 0.0, 180.0);
  for (std::size_t i = 0; i < n; ++i) records[i] = LatLng{coords[2 * i], coords[2 * i + 1]};
  const LatLng target{90.0f, 90.0f};

  const std::vector<float> dinit(n, 0.0f);
  std::vector<float> dist;
  expect_bit_identical(dist, dinit,
                       [&] { nn_distances(records.data(), dist.data(), n, target); });

  // Blocked top-k must equal the sequential scan exactly, list slot by slot.
  std::vector<Neighbor> seq(k, Neighbor{std::numeric_limits<float>::max(), 0});
  nn_merge_topk(dist.data(), n, 0, seq.data(), k);
  for (const int t : thread_sweep()) {
    par::ThreadScope scope(t);
    std::vector<Neighbor> par_best(k, Neighbor{std::numeric_limits<float>::max(), 0});
    nn_topk(dist.data(), n, 0, par_best.data(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(par_best[i].dist, seq[i].dist) << "slot " << i << " threads=" << t;
      EXPECT_EQ(par_best[i].index, seq[i].index) << "slot " << i << " threads=" << t;
    }
  }
}

TEST(KernDeterminism, SradStatistics) {
  const std::size_t cells = 70000;  // 3 chunks
  const auto j = random_vec<float>(cells, 61, 0.5, 2.0);
  double want_s = 0.0, want_s2 = 0.0;
  {
    par::ThreadScope scope(1);
    srad_statistics(j.data(), 0, cells, &want_s, &want_s2);
  }
  for (const int t : thread_sweep()) {
    par::ThreadScope scope(t);
    double s = 0.0, s2 = 0.0;
    srad_statistics(j.data(), 0, cells, &s, &s2);
    EXPECT_EQ(s, want_s) << "threads=" << t;
    EXPECT_EQ(s2, want_s2) << "threads=" << t;
  }
}

TEST(KernDeterminism, SradPipeline2D) {
  const std::size_t rows = 150, cols = 300;  // 3 row bands
  const auto img = random_vec<float>(rows * cols, 71, 10.0, 200.0);
  const std::vector<float> zero(rows * cols, 0.0f);

  std::vector<float> j;
  expect_bit_identical(j, zero, [&] {
    srad_extract_2d(img.data(), j.data(), cols, 0, rows, 0, cols);
  });

  double want_s = 0.0, want_s2 = 0.0;
  {
    par::ThreadScope scope(1);
    srad_statistics_2d(j.data(), cols, 0, rows, 0, cols, &want_s, &want_s2);
  }
  for (const int t : thread_sweep()) {
    par::ThreadScope scope(t);
    double s = 0.0, s2 = 0.0;
    srad_statistics_2d(j.data(), cols, 0, rows, 0, cols, &s, &s2);
    EXPECT_EQ(s, want_s) << "threads=" << t;
    EXPECT_EQ(s2, want_s2) << "threads=" << t;
  }
  const double q0 = srad_q0sqr(want_s, want_s2, rows * cols);

  std::vector<float> c, dn(rows * cols), ds(rows * cols), dw(rows * cols), de(rows * cols);
  expect_bit_identical(c, zero, [&] {
    srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows, cols, 0,
               rows, 0, cols, q0);
  });

  std::vector<float> j2;
  expect_bit_identical(j2, j, [&] {
    srad_update(j2.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows, cols, 0,
                rows, 0, cols, 0.5);
  });

  std::vector<float> back;
  expect_bit_identical(back, zero, [&] {
    srad_compress_2d(j2.data(), back.data(), cols, 0, rows, 0, cols);
  });
}

TEST(KernDeterminism, SaxpyIter) {
  const std::size_t n = 70000;
  const auto a = random_vec<float>(n, 81);
  const std::vector<float> init(n, 0.0f);
  std::vector<float> b;
  expect_bit_identical(b, init, [&] { saxpy_iter(a.data(), b.data(), n, 1.5f, 3); });
}

}  // namespace
}  // namespace ms::kern
