// Compile-once / replay-millions: record a pipeline schedule as a graph,
// compile it, and time what the *host wall clock* pays per replay two ways:
// direct re-enqueue of the same schedule and compiled launch(). In virtual
// time the compiled executor charges the cheaper replay pricing instead of
// per-action enqueue pricing; the wall-clock columns show what the issuing
// thread itself pays on this host.

#include <chrono>
#include <cstdio>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tile_plan.hpp"

int main() {
  using namespace ms;

  constexpr std::size_t kBytes = 8u << 20;
  constexpr int kTiles = 256;
  constexpr int kReplays = 64;

  const auto cfg = sim::SimConfig::phi_31sp();
  const auto ranges = rt::split_even(kBytes, kTiles);
  sim::KernelWork work;
  work.kind = sim::KernelKind::Streaming;
  work.elems = 1e8 / kTiles;

  auto make_ctx = [&](rt::Context& ctx) {
    ctx.setup(4);
    return ctx.create_virtual_buffer(kBytes);
  };
  // The schedule: per tile an upload, a kernel on it, and a download,
  // round-robin over the streams.
  auto record = [&](rt::Context& ctx, rt::Graph& graph, rt::BufferId buf) {
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      const int s = static_cast<int>(t) % ctx.stream_count();
      const auto up = graph.add_h2d(s, buf, ranges[t].begin, ranges[t].size());
      const auto k = graph.add_kernel(s, {"task", work, {}}, {up});
      graph.add_d2h(s, buf, ranges[t].begin, ranges[t].size(), {k});
    }
  };
  auto enqueue = [&](rt::Context& ctx, rt::BufferId buf) {
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      rt::Stream& s = ctx.stream(static_cast<int>(t) % ctx.stream_count());
      s.enqueue_h2d(buf, ranges[t].begin, ranges[t].size());
      s.enqueue_kernel({"task", work, {}});
      s.enqueue_d2h(buf, ranges[t].begin, ranges[t].size());
    }
  };

  auto wall_us = [](auto&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // 1. Direct: every action re-enqueued (and re-priced) on every iteration.
  rt::Context direct_ctx(cfg);
  const auto direct_buf = make_ctx(direct_ctx);
  for (int i = 0; i < kReplays; ++i) enqueue(direct_ctx, direct_buf);  // warm the pools
  direct_ctx.synchronize();
  const double direct_us = wall_us([&] {
    for (int i = 0; i < kReplays; ++i) enqueue(direct_ctx, direct_buf);
  });
  direct_ctx.synchronize();

  // 2. Compiled: validate + flatten once, then replay the plan.
  rt::Context comp_ctx(cfg);
  rt::Graph comp_graph;
  record(comp_ctx, comp_graph, make_ctx(comp_ctx));
  rt::CompiledGraph compiled = comp_graph.compile(comp_ctx);
  for (int i = 0; i < kReplays; ++i) compiled.launch(comp_ctx);  // warm the run pool
  comp_ctx.synchronize();
  const auto t_before = comp_ctx.host_time();
  const double comp_us = wall_us([&] {
    for (int i = 0; i < kReplays; ++i) compiled.launch(comp_ctx);
  });
  comp_ctx.synchronize();

  std::printf("%d replays of a %zu-node schedule, host wall clock per replay:\n", kReplays,
              compiled.node_count() + 1);
  std::printf("  direct re-enqueue      %8.2f us\n", direct_us / kReplays);
  std::printf("  compiled launch()      %8.2f us   (%.1fx)\n", comp_us / kReplays,
              direct_us / comp_us);
  std::printf("virtual time of the timed replays: %.3f ms\n",
              (comp_ctx.host_time() - t_before).millis());
  return 0;
}
