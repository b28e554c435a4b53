// Proves the compiled-graph zero-allocation steady state: after a warm-up
// replay has grown the action/state/run pools and the engine heap to the
// graph's high-water mark, launch()/synchronize() cycles perform no heap
// allocation at all. Checked with the binary's counting global operator new
// (tests/alloc_counter.cpp) so it cannot silently regress.

#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tile_plan.hpp"

namespace ms::rt {
namespace {

sim::KernelWork work(double elems = 1e4) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = elems;
  return w;
}

TEST(CompiledGraphAlloc, SteadyStateReplayAllocatesNothing) {
  Context ctx(sim::SimConfig::phi_31sp());
  ctx.setup(4);
  ctx.set_tracing(false);
  const std::size_t bytes = 1 << 20;
  const auto buf = ctx.create_virtual_buffer(bytes);

  Graph g;
  const auto ranges = split_even(bytes, 64);
  for (std::size_t t = 0; t < ranges.size(); ++t) {
    const int s = static_cast<int>(t) % 4;
    const auto up = g.add_h2d(s, buf, ranges[t].begin, ranges[t].size());
    const auto k = g.add_kernel(s, {"k", work(), {}}, {up});
    g.add_d2h(s, buf, ranges[t].begin, ranges[t].size(), {k});
  }

  CompiledGraph cg = g.compile(ctx);

  // Warm up: grow the run pool, action/state pools, stream rings, and the
  // engine's event heap to this graph's high-water mark.
  for (int i = 0; i < 3; ++i) {
    cg.launch(ctx);
    ctx.synchronize();
  }

  const std::size_t before = test::alloc_count();
  for (int i = 0; i < 100; ++i) {
    cg.launch(ctx);
    ctx.synchronize();
  }
  const std::size_t after = test::alloc_count();
  EXPECT_EQ(after - before, 0u) << "steady-state compiled replay must not allocate";
}

TEST(CompiledGraphAlloc, SteadyStateBatchAllocatesNothing) {
  // Sixteen replays in flight per synchronize: the run pool grows to sixteen
  // runs once, then every batch of launches recycles them.
  Context ctx(sim::SimConfig::phi_31sp());
  ctx.setup(4);
  ctx.set_tracing(false);
  const auto buf = ctx.create_virtual_buffer(1 << 16);

  Graph g;
  const auto up = g.add_h2d(0, buf, 0, 1 << 16);
  g.add_kernel(1, {"k", work(), {}}, {up});
  CompiledGraph cg = g.compile(ctx);

  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 16; ++k) cg.launch(ctx);
    ctx.synchronize();
  }

  const std::size_t before = test::alloc_count();
  for (int i = 0; i < 50; ++i) {
    for (int k = 0; k < 16; ++k) cg.launch(ctx);
    ctx.synchronize();
  }
  const std::size_t after = test::alloc_count();
  EXPECT_EQ(after - before, 0u) << "steady-state batches of launches must not allocate";
}

}  // namespace
}  // namespace ms::rt
