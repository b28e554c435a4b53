// google-benchmark microbenchmarks of the graph executor's *host-side* cost:
// what one replay of a recorded schedule costs the issuing thread under
// CompiledGraph::launch(), plus the one-time compile. These numbers are the
// real wall-clock cost of compile-once / replay-millions. Recorded as
// BENCH_GRAPH.json by scripts/record_bench.sh.

#include <benchmark/benchmark.h>

#include <cstddef>

#include "gbench_main.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "sim/sim_config.hpp"

namespace {

constexpr int kStreams = 4;

ms::sim::KernelWork task_work(int tasks) {
  ms::sim::KernelWork w;
  w.kind = ms::sim::KernelKind::Streaming;
  w.elems = 1e7 / tasks;
  return w;
}

/// The canonical per-task H2D -> kernel -> D2H pipeline, round-robin over
/// kStreams, as one recorded graph (3*tasks nodes + completion barrier).
ms::rt::Graph build_graph(ms::rt::BufferId buf, int tasks) {
  ms::rt::Graph g;
  const std::size_t slice = 1 << 10;
  for (int t = 0; t < tasks; ++t) {
    const int s = t % kStreams;
    const std::size_t off = static_cast<std::size_t>(t) * slice;
    const auto up = g.add_h2d(s, buf, off, slice);
    const auto k = g.add_kernel(s, {"k", task_work(tasks), {}}, {up});
    g.add_d2h(s, buf, off, slice, {k});
  }
  return g;
}

struct Fixture {
  ms::rt::Context ctx;
  ms::rt::BufferId buf;
  ms::rt::Graph graph;

  explicit Fixture(int tasks) : ctx(ms::sim::SimConfig::phi_31sp()) {
    ctx.set_tracing(false);
    ctx.setup(kStreams);
    buf = ctx.create_virtual_buffer(static_cast<std::size_t>(tasks) << 10);
    ctx.synchronize();
    graph = build_graph(buf, tasks);
  }
};

// Only the launch call is timed; the synchronize (the device-side discrete-
// event simulation) runs with the timer paused.

void BM_GraphLaunchCompiled(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  ms::rt::CompiledGraph cg = f.graph.compile(f.ctx);
  cg.launch(f.ctx);  // warm the run pool and the per-context validation cache
  f.ctx.synchronize();
  for (auto _ : state) {
    cg.launch(f.ctx);
    state.PauseTiming();
    f.ctx.synchronize();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GraphLaunchCompiled)->Arg(64)->Arg(512)->Arg(4096);

void BM_GraphCompile(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.graph.compile(f.ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GraphCompile)->Arg(512);

}  // namespace

int main(int argc, char** argv) { return ms::bench::gbench_main(argc, argv); }
