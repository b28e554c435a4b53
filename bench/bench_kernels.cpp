// Microbenchmarks for the kernel execution engine: one benchmark per
// parallelized kernel at the paper's working-set shapes, each run at 1, 2
// and 4 engine workers (the `/threads:N` suffix) so the file records how
// every kernel scales, plus the single-threaded generator that fills the
// functional apps' inputs. Wall-clock only — virtual time never depends on
// these. Emit machine-readable results with
//   bench_kernels --benchmark_format=json --benchmark_out=BENCH_KERNELS.json
// (scripts/record_bench.sh does exactly that).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "apps/app_common.hpp"
#include "gbench_main.hpp"
#include "kern/cholesky.hpp"
#include "kern/gemm.hpp"
#include "kern/hotspot.hpp"
#include "kern/kmeans.hpp"
#include "kern/lu.hpp"
#include "kern/nn.hpp"
#include "kern/par.hpp"
#include "kern/saxpy_iter.hpp"
#include "kern/srad.hpp"

namespace {

template <typename T>
std::vector<T> random_vec(std::size_t n, unsigned seed, double lo = 0.0, double hi = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(lo, hi);
  std::vector<T> v(n);
  for (T& x : v) x = static_cast<T>(d(rng));
  return v;
}

// The thread axis: the benchmark's one argument is the par::ThreadScope
// worker count its timed loop runs under.
void thread_axis(benchmark::internal::Benchmark* b) {
  b->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
}

ms::kern::par::ThreadScope threads_of(const benchmark::State& state) {
  return ms::kern::par::ThreadScope(static_cast<int>(state.range(0)));
}

// The MM app's unit of work: one 500 x 500 C tile of the paper's D = 6000
// multiplication (C tile += A band * B^T band, k = 6000).
void BM_GemmNtAcc(benchmark::State& state) {
  const std::size_t m = 500, n = 500, k = 6000;
  const auto a = random_vec<double>(m * k, 3);
  const auto bt = random_vec<double>(n * k, 4);
  std::vector<double> c(m * n, 0.0);
  const auto scope = threads_of(state);
  for (auto _ : state) {
    ms::kern::gemm_nt_acc(a.data(), bt.data(), c.data(), m, n, k, k, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ms::kern::gemm_flops(m, n, k)));
}
BENCHMARK(BM_GemmNtAcc)->Apply(thread_axis);

// The cf and lu tile tasks at a 144-row tile edge (three kern::par row
// bands, a fringe in every micro-tile shape), items = flops. The written
// tile is reset from `init` in every iteration, so repeated in-place solves
// cannot drift toward denormals; the copy is ~1% of the smallest kernel.
constexpr std::size_t kTile = 144;

template <typename Kernel>
void run_tile_task(benchmark::State& state, double flops, Kernel&& kernel) {
  const auto init = random_vec<double>(kTile * kTile, 20);
  std::vector<double> c(init);
  const auto scope = threads_of(state);
  for (auto _ : state) {
    std::copy(init.begin(), init.end(), c.begin());
    kernel(c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flops));
}

/// A well-conditioned triangle source for the solves: diagonal kTile.
std::vector<double> tile_triangle() {
  auto t = random_vec<double>(kTile * kTile, 21);
  for (std::size_t i = 0; i < kTile; ++i) t[i * kTile + i] = static_cast<double>(kTile);
  return t;
}

void BM_GemmNtTile(benchmark::State& state) {
  const auto a = random_vec<double>(kTile * kTile, 22);
  const auto b = random_vec<double>(kTile * kTile, 23);
  run_tile_task(state, ms::kern::gemm_flops(kTile, kTile, kTile), [&](double* c) {
    ms::kern::gemm_nt_tile(a.data(), b.data(), c, kTile, kTile, kTile, kTile, kTile, kTile);
  });
}
BENCHMARK(BM_GemmNtTile)->Apply(thread_axis);

void BM_SyrkTile(benchmark::State& state) {
  const auto a = random_vec<double>(kTile * kTile, 24);
  run_tile_task(state, ms::kern::syrk_flops(kTile, kTile), [&](double* c) {
    ms::kern::syrk_tile(a.data(), c, kTile, kTile, kTile, kTile);
  });
}
BENCHMARK(BM_SyrkTile)->Apply(thread_axis);

void BM_TrsmTile(benchmark::State& state) {
  const auto l = tile_triangle();
  run_tile_task(state, ms::kern::trsm_flops(kTile, kTile), [&](double* b) {
    ms::kern::trsm_tile(l.data(), b, kTile, kTile, kTile, kTile);
  });
}
BENCHMARK(BM_TrsmTile)->Apply(thread_axis);

void BM_GemmNnSub(benchmark::State& state) {
  const auto a = random_vec<double>(kTile * kTile, 25);
  const auto b = random_vec<double>(kTile * kTile, 26);
  run_tile_task(state, ms::kern::gemm_flops(kTile, kTile, kTile), [&](double* c) {
    ms::kern::gemm_nn_sub(a.data(), b.data(), c, kTile, kTile, kTile, kTile, kTile, kTile);
  });
}
BENCHMARK(BM_GemmNnSub)->Apply(thread_axis);

void BM_TrsmLowerLeft(benchmark::State& state) {
  const auto l = tile_triangle();
  run_tile_task(state, ms::kern::lu_trsm_flops(kTile, kTile), [&](double* b) {
    ms::kern::trsm_lower_left(l.data(), b, kTile, kTile, kTile, kTile);
  });
}
BENCHMARK(BM_TrsmLowerLeft)->Apply(thread_axis);

void BM_TrsmUpperRight(benchmark::State& state) {
  const auto u = tile_triangle();
  run_tile_task(state, ms::kern::lu_trsm_flops(kTile, kTile), [&](double* b) {
    ms::kern::trsm_upper_right(u.data(), b, kTile, kTile, kTile, kTile);
  });
}
BENCHMARK(BM_TrsmUpperRight)->Apply(thread_axis);

// One 1024-row band of the paper's 8192-wide Hotspot grid.
void BM_HotspotStep(benchmark::State& state) {
  const std::size_t rows = 1024, cols = 8192;
  const auto t_in = random_vec<double>(rows * cols, 5, 40.0, 90.0);
  const auto power = random_vec<double>(rows * cols, 6);
  std::vector<double> t_out(rows * cols, 0.0);
  const ms::kern::HotspotParams p;
  const auto scope = threads_of(state);
  for (auto _ : state) {
    ms::kern::hotspot_step(t_in.data(), power.data(), t_out.data(), rows, cols, 0, rows, 0,
                           cols, p);
    benchmark::DoNotOptimize(t_out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_HotspotStep)->Apply(thread_axis);

// MineBench shape: 34 features, 8 clusters, a 1M-point assignment pass.
void BM_KmeansAssign(benchmark::State& state) {
  const std::size_t n = 1u << 20, dims = 34, k = 8;
  const auto points = random_vec<float>(n * dims, 7);
  const auto centroids = random_vec<float>(k * dims, 8);
  std::vector<std::int32_t> membership(n, 0);
  const auto scope = threads_of(state);
  for (auto _ : state) {
    ms::kern::kmeans_assign(points.data(), centroids.data(), membership.data(), n, dims, k);
    benchmark::DoNotOptimize(membership.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KmeansAssign)->Apply(thread_axis);

// Rodinia NN at the paper's record count: distance scan + blocked top-10.
void BM_NnTopk(benchmark::State& state) {
  const std::size_t n = 5'200'000, k = 10;
  std::vector<ms::kern::LatLng> records(n);
  const auto coords = random_vec<float>(n * 2, 9, 0.0, 180.0);
  for (std::size_t i = 0; i < n; ++i) {
    records[i] = ms::kern::LatLng{coords[2 * i], coords[2 * i + 1]};
  }
  std::vector<float> dist(n, 0.0f);
  const ms::kern::LatLng target{40.0f, 120.0f};
  const auto scope = threads_of(state);
  for (auto _ : state) {
    ms::kern::nn_distances(records.data(), dist.data(), n, target);
    std::vector<ms::kern::Neighbor> best(k,
                                         {std::numeric_limits<float>::max(), 0});
    ms::kern::nn_topk(dist.data(), n, 0, best.data(), k);
    benchmark::DoNotOptimize(best.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NnTopk)->Apply(thread_axis);

// SRAD planes at a 1024 x 10000 working set (paper-scale ultrasound image).
void BM_SradStats(benchmark::State& state) {
  const std::size_t rows = 1024, cols = 10000;
  const auto j = random_vec<float>(rows * cols, 10, 0.5, 2.0);
  const auto scope = threads_of(state);
  for (auto _ : state) {
    double s = 0.0, s2 = 0.0;
    ms::kern::srad_statistics(j.data(), 0, rows * cols, &s, &s2);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(s2);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_SradStats)->Apply(thread_axis);

void BM_SradCoeff(benchmark::State& state) {
  const std::size_t rows = 1024, cols = 10000;
  const auto j = random_vec<float>(rows * cols, 11, 0.5, 2.0);
  std::vector<float> c(rows * cols), dn(rows * cols), ds(rows * cols), dw(rows * cols),
      de(rows * cols);
  const auto scope = threads_of(state);
  for (auto _ : state) {
    ms::kern::srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows,
                         cols, 0, rows, 0, cols, 0.05);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_SradCoeff)->Apply(thread_axis);

void BM_SradUpdate(benchmark::State& state) {
  const std::size_t rows = 1024, cols = 10000;
  auto j = random_vec<float>(rows * cols, 12, 0.5, 2.0);
  const auto c = random_vec<float>(rows * cols, 13);
  const auto dn = random_vec<float>(rows * cols, 14, -0.1, 0.1);
  const auto ds = random_vec<float>(rows * cols, 15, -0.1, 0.1);
  const auto dw = random_vec<float>(rows * cols, 16, -0.1, 0.1);
  const auto de = random_vec<float>(rows * cols, 17, -0.1, 0.1);
  const auto scope = threads_of(state);
  for (auto _ : state) {
    ms::kern::srad_update(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows,
                          cols, 0, rows, 0, cols, 0.5);
    benchmark::DoNotOptimize(j.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_SradUpdate)->Apply(thread_axis);

void BM_SaxpyIter(benchmark::State& state) {
  const std::size_t n = 1u << 24;
  const auto a = random_vec<float>(n, 18);
  std::vector<float> b(n, 0.0f);
  const auto scope = threads_of(state);
  for (auto _ : state) {
    ms::kern::saxpy_iter(a.data(), b.data(), n, 1.5f, 2);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SaxpyIter)->Apply(thread_axis);

// The functional apps' input generator: std::mt19937 +
// std::uniform_real_distribution (`std`), against apps::fill_uniform's block
// MT19937, which produces the same values. One SRAD image's worth of values
// per iteration; `time_per_value` is the cost of one value, in seconds.
template <typename T, bool kBlock>
void BM_FillUniform(benchmark::State& state) {
  std::vector<T> out(1u << 16);
  constexpr std::uint32_t seed = 77;  // SradApp's image
  for (auto _ : state) {
    if constexpr (kBlock) {
      ms::apps::fill_uniform(std::span<T>(out), seed, T(10), T(200));
    } else {
      std::mt19937 rng(seed);
      std::uniform_real_distribution<T> dist(T(10), T(200));
      for (T& v : out) v = dist(rng);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["time_per_value"] =
      benchmark::Counter(static_cast<double>(out.size()),
                         benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_TEMPLATE(BM_FillUniform, float, false)->Name("BM_FillUniform/float/std");
BENCHMARK_TEMPLATE(BM_FillUniform, float, true)->Name("BM_FillUniform/float/block");
BENCHMARK_TEMPLATE(BM_FillUniform, double, false)->Name("BM_FillUniform/double/std");
BENCHMARK_TEMPLATE(BM_FillUniform, double, true)->Name("BM_FillUniform/double/block");

}  // namespace

int main(int argc, char** argv) { return ms::bench::gbench_main(argc, argv); }
