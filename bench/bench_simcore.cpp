// google-benchmark microbenchmarks of the simulator substrate itself: how
// fast the discrete-event engine, resources, and the full runtime process
// work. These guard the *host-side* performance of the library (the figure
// benches measure virtual time; this one measures real time).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "gbench_main.hpp"
#include "rt/context.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"

namespace {

void BM_EngineScheduleFire(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ms::sim::Engine e;
    for (int i = 0; i < n; ++i) {
      e.schedule_at(ms::sim::SimTime::micros(i), [] {});
    }
    benchmark::DoNotOptimize(e.run_until_idle());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleFire)->Arg(1 << 10)->Arg(1 << 14);

/// Hold model: the queue stays at a constant depth because every fire
/// schedules one later event — the drain pattern of a streaming pipeline,
/// which the fill-then-empty BM_EngineScheduleFire never exercises. The
/// increments come from a fixed LCG, so every iteration does the same work.
void BM_EngineHold(benchmark::State& state) {
  constexpr int kFires = 1 << 14;
  struct Hold {
    ms::sim::Engine engine;
    std::uint64_t lcg = 1;
    int remaining = 0;
    void fire() {
      if (remaining-- <= 0) return;
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const double dt = 1.0 + static_cast<double>(lcg >> 56);  // 1..256 us
      engine.schedule_after(ms::sim::SimTime::micros(dt), [this] { fire(); });
    }
  };
  const int depth = static_cast<int>(state.range(0));
  Hold h;
  for (auto _ : state) {
    h.remaining = kFires;
    for (int i = 0; i < depth; ++i) {
      h.engine.schedule_after(ms::sim::SimTime::micros(i), [&h] { h.fire(); });
    }
    benchmark::DoNotOptimize(h.engine.run_until_idle());
  }
  state.SetItemsProcessed(state.iterations() * (kFires + depth));
}
BENCHMARK(BM_EngineHold)->Arg(16)->Arg(64);

void BM_FifoReserve(benchmark::State& state) {
  ms::sim::FifoResource r;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.reserve(ms::sim::SimTime::zero(), ms::sim::SimTime::micros(1)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoReserve);

void BM_RuntimePipeline(benchmark::State& state) {
  // One full H2D -> kernel -> D2H pipeline iteration per task, across 4
  // streams — the end-to-end cost of scheduling one streamed task.
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ms::rt::Context ctx(ms::sim::SimConfig::phi_31sp());
    ctx.setup(4);
    const auto buf = ctx.create_virtual_buffer(static_cast<std::size_t>(tasks) << 10);
    for (int t = 0; t < tasks; ++t) {
      auto& s = ctx.stream(t % 4);
      const std::size_t off = static_cast<std::size_t>(t) << 10;
      s.enqueue_h2d(buf, off, 1 << 10);
      ms::sim::KernelWork w;
      w.kind = ms::sim::KernelKind::Streaming;
      w.elems = 1e5;
      s.enqueue_kernel({"k", w, {}});
      s.enqueue_d2h(buf, off, 1 << 10);
    }
    ctx.synchronize();
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_RuntimePipeline)->Arg(64)->Arg(1024);

/// Hotspot-shaped direct issue: a state.range(0) x state.range(0) tile grid
/// over 4 streams, where each step's kernel on a tile waits for that tile
/// and its four neighbours from the previous step — the dependency path
/// (waiter edges, dependency lists) that BM_RuntimePipeline never takes.
void BM_StencilIssue(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const std::size_t tiles = side * side;
  constexpr int kSteps = 8;
  std::vector<ms::rt::Event> prev(tiles);
  std::vector<ms::rt::Event> cur(tiles);
  std::vector<ms::rt::Event> deps;
  deps.reserve(5);
  ms::sim::KernelWork w;
  w.kind = ms::sim::KernelKind::Stencil;
  w.elems = 1e5;
  for (auto _ : state) {
    ms::rt::Context ctx(ms::sim::SimConfig::phi_31sp());
    ctx.setup(4);
    for (int step = 0; step < kSteps; ++step) {
      for (std::size_t t = 0; t < tiles; ++t) {
        const std::size_t r = t / side;
        const std::size_t c = t % side;
        deps.clear();
        if (step > 0) {
          deps.push_back(prev[t]);
          if (r > 0) deps.push_back(prev[t - side]);
          if (r + 1 < side) deps.push_back(prev[t + side]);
          if (c > 0) deps.push_back(prev[t - 1]);
          if (c + 1 < side) deps.push_back(prev[t + 1]);
        }
        cur[t] = ctx.stream(static_cast<int>(t % 4)).enqueue_kernel({"stencil", w, {}}, deps);
      }
      std::swap(prev, cur);
    }
    ctx.synchronize();
    benchmark::DoNotOptimize(ctx.host_time());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(tiles) * kSteps);
}
BENCHMARK(BM_StencilIssue)->Arg(8)->Arg(16);

/// One multi-device pipeline: state.range(0) devices, each card running an
/// independent H2D -> kernel -> D2H chain.
void BM_MultiDevicePipeline(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  ms::sim::SimConfig cfg = ms::sim::SimConfig::phi_31sp();
  cfg.num_devices = devices;
  constexpr int kTasks = 256;
  for (auto _ : state) {
    ms::rt::Context ctx(cfg);
    ctx.setup(4);
    const auto buf = ctx.create_virtual_buffer(static_cast<std::size_t>(kTasks) << 10);
    for (int t = 0; t < kTasks; ++t) {
      auto& s = ctx.stream(t % devices, (t / devices) % 4);
      const std::size_t off = static_cast<std::size_t>(t) << 10;
      s.enqueue_h2d(buf, off, 1 << 10);
      ms::sim::KernelWork w;
      w.kind = ms::sim::KernelKind::Streaming;
      w.elems = 1e5;
      s.enqueue_kernel({"k", w, {}});
      s.enqueue_d2h(buf, off, 1 << 10);
    }
    ctx.synchronize();
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_MultiDevicePipeline)->ArgName("devices")->Arg(1)->Arg(3);

void BM_ContextSetup(benchmark::State& state) {
  for (auto _ : state) {
    ms::rt::Context ctx(ms::sim::SimConfig::phi_31sp());
    ctx.setup(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(ctx.stream_count());
  }
}
BENCHMARK(BM_ContextSetup)->Arg(4)->Arg(56);

}  // namespace

int main(int argc, char** argv) { return ms::bench::gbench_main(argc, argv); }
