// google-benchmark microbenchmarks of the graph executor's *host-side* cost:
// what one replay of a recorded schedule costs the issuing thread under
// CompiledGraph::launch(), the one-time compile, and re-capturing a schedule
// the GraphCache already holds. These numbers are the real wall-clock cost
// of compile-once / replay-millions. Recorded as BENCH_GRAPH.json by
// scripts/record_bench.sh.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <optional>

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

/// Heap bytes in use (small-bin and mmapped blocks).
std::size_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Per-node counters: `ns_per_node` of the timed loop.
void report_per_node(benchmark::State& state, int nodes) {
  state.counters["ns_per_node"] = benchmark::Counter(
      nodes * 1e-9, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_GraphCompile(benchmark::State& state) {
  // The argument is a node count: one task is three nodes.
  const int tasks = static_cast<int>(state.range(0)) / 3;
  ms::rt::Context ctx(ms::sim::SimConfig::phi_31sp());
  ctx.setup(kStreams);
  const auto buf = ctx.create_virtual_buffer(static_cast<std::size_t>(tasks) << 10);
  const ms::rt::Graph graph = build_graph(buf, tasks);
  const int nodes = static_cast<int>(graph.size());
  (void)graph.compile(ctx);  // registers the telemetry families once
  // What one compiled plan holds on the heap, its copy of the graph included.
  const std::size_t before = heap_bytes();
  std::size_t plan_bytes = 0;
  {
    const ms::rt::CompiledGraph cg = graph.compile(ctx);
    plan_bytes = heap_bytes() - before;
    benchmark::DoNotOptimize(&cg);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.compile(ctx));
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  report_per_node(state, nodes);
  state.counters["plan_bytes_per_node"] =
      static_cast<double>(plan_bytes) / static_cast<double>(nodes);
}
BENCHMARK(BM_GraphCompile)->Arg(1000)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

/// Re-capture of a schedule the cache holds: every node is checked against
/// the cached plan in place, and the capture hands out that plan.
void BM_GraphCaptureHit(benchmark::State& state) {
  // The argument is a node count: build_graph's pipeline, enqueued.
  const int tasks = static_cast<int>(state.range(0)) / 3;
  const int nodes = 3 * tasks;
  ms::rt::Context ctx(ms::sim::SimConfig::phi_31sp());
  ctx.setup(kStreams);
  const auto buf = ctx.create_virtual_buffer(static_cast<std::size_t>(tasks) << 10);
  const std::size_t slice = 1 << 10;
  const auto record = [&] {
    for (int t = 0; t < tasks; ++t) {
      ms::rt::Stream& s = ctx.stream(t % kStreams);
      const std::size_t off = static_cast<std::size_t>(t) * slice;
      const ms::rt::Event up = s.enqueue_h2d(buf, off, slice);
      const ms::rt::Event k = s.enqueue_kernel({"k", task_work(tasks), {}}, {up});
      s.enqueue_d2h(buf, off, slice, {k});
    }
  };
  ms::rt::GraphCache cache;
  (void)cache.capture(ctx, "bench", record);  // the miss that compiles the plan
  for (auto _ : state) {
    std::optional<ms::rt::CompiledGraph> cg = cache.capture(ctx, "bench", record);
    benchmark::DoNotOptimize(cg);
  }
  if (cache.hits() != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a re-capture missed the cache");
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  report_per_node(state, nodes);
}
BENCHMARK(BM_GraphCaptureHit)->Arg(1000)->Arg(10000)->Arg(100000)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) { return ms::bench::gbench_main(argc, argv); }
