// Proves the compiled-graph zero-allocation steady state: after a warm-up
// replay has grown the action/state/run pools and the engine heap to the
// graph's high-water mark, launch()/synchronize() cycles perform no heap
// allocation at all, and a capture that matches a cached plan allocates
// nothing per node. Checked with the binary's counting global operator new
// (tests/alloc_counter.cpp) so it cannot silently regress.

#include <gtest/gtest.h>

#include <optional>

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

/// Allocations made while re-capturing an `n`-node chain on a fresh context
/// whose schedule `cache` already holds (the first capture compiles it).
std::size_t cached_capture_allocs(GraphCache& cache, std::size_t n) {
  const auto capture = [&cache, n] {
    Context ctx(sim::SimConfig::phi_31sp());
    ctx.setup(2);
    ctx.set_tracing(false);
    const auto buf = ctx.create_virtual_buffer(n * 64);
    const std::size_t before = test::alloc_count();
    std::optional<CompiledGraph> cg = cache.capture(ctx, "chain", [&] {
      Event prev;
      for (std::size_t i = 0; i < n / 2; ++i) {
        const int s = static_cast<int>(i % 2);
        const Event up = ctx.stream(s).enqueue_h2d(buf, i * 64, 64, {prev});
        prev = ctx.stream(s).enqueue_kernel({"k", work(), {}}, {up});
      }
    });
    const std::size_t allocs = test::alloc_count() - before;
    EXPECT_TRUE(cg.has_value());
    if (cg) EXPECT_EQ(cg->node_count(), n);
    return allocs;
  };
  (void)capture();
  const std::uint64_t hits = cache.hits();
  const std::size_t allocs = capture();
  EXPECT_EQ(cache.hits(), hits + 1) << "the re-capture must be a cache hit";
  return allocs;
}

TEST(CompiledGraphCapture, CacheHitAllocatesNothingPerNode) {
  // A capture that matches a cached plan checks each node in place: what it
  // allocates (the candidate list, the phantom events' pool) does not grow
  // with the schedule.
  GraphCache warm_cache;  // first hit in the process: telemetry and pool statics
  (void)cached_capture_allocs(warm_cache, 16);
  GraphCache small_cache;
  GraphCache large_cache;
  const std::size_t small = cached_capture_allocs(small_cache, 256);
  const std::size_t large = cached_capture_allocs(large_cache, 4096);
  EXPECT_EQ(small, large) << "a cache hit allocated per captured node";
}

}  // namespace
}  // namespace ms::rt
