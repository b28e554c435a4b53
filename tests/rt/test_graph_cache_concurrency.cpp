// GraphCache under concurrency: LRU eviction racing launch from many
// threads (each with its own context — the cache is the only shared state),
// racing misses of one schedule, plus negative tests proving that config and
// layout separate plans of an identical schedule. Run under TSan in the
// sanitizer CI leg.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"

namespace ms::rt {
namespace {

sim::KernelWork work(double elems) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = elems;
  return w;
}

Graph pipeline_graph(BufferId buf, int streams, double elems = 1e6) {
  Graph g;
  std::vector<Graph::NodeId> ups;
  for (int s = 0; s < streams; ++s) {
    const auto up = g.add_h2d(s, buf, 0, 1 << 16);
    ups.push_back(g.add_kernel(s, {"k" + std::to_string(s), work(elems), {}}, {up}));
  }
  g.add_barrier(0, ups);
  return g;
}

/// Eviction races replay: a capacity-2 cache shared by 4 threads cycling
/// through 4 distinct schedules, each compiling, launching, and forcing the
/// others' slots out. The plan keepalive must protect every in-flight replay
/// while its slot is recycled underneath it.
TEST(GraphCacheConcurrency, EvictionRacesLaunch) {
  GraphCache cache(2);
  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      Context ctx(sim::SimConfig::phi_31sp());
      ctx.setup(2);
      const auto buf = ctx.create_virtual_buffer(1 << 20);
      std::vector<Graph> shapes;
      for (int k = 0; k < kThreads; ++k) shapes.push_back(pipeline_graph(buf, 2, 1e6 * (k + 1)));
      for (int i = 0; i < kIters; ++i) {
        CompiledGraph cg = cache.get_or_compile(shapes[static_cast<std::size_t>((t + i) % kThreads)],
                                                ctx, {.name = "shape"});
        for (int r = 0; r < 3; ++r) cg.launch(ctx);
        ctx.synchronize();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GT(cache.misses(), 0u);
}

/// Same schedule, different SimConfig: the config fingerprint must keep the
/// entries apart — a hit across configs would replay a plan whose durations
/// were computed for different hardware.
TEST(GraphCacheConcurrency, SameKeyDifferentConfigNeverCollides) {
  GraphCache cache(8);
  sim::SimConfig a = sim::SimConfig::phi_31sp();
  sim::SimConfig b = sim::SimConfig::phi_31sp();
  b.link.bandwidth_gib_s = a.link.bandwidth_gib_s * 2.0;
  ASSERT_NE(sim::fingerprint(a), sim::fingerprint(b));

  Context ca(a);
  ca.setup(2);
  Context cb(b);
  cb.setup(2);
  const auto buf_a = ca.create_virtual_buffer(1 << 20);
  const auto buf_b = cb.create_virtual_buffer(1 << 20);

  cache.get_or_compile(pipeline_graph(buf_a, 2), ca);
  EXPECT_EQ(cache.misses(), 1u);
  // Identical schedule, different platform: must compile fresh.
  CompiledGraph for_b = cache.get_or_compile(pipeline_graph(buf_b, 2), cb);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  // And the second executor is genuinely valid for its own context.
  for_b.launch(cb);
  cb.synchronize();
}

/// Same schedule and config but a different stream layout is also a miss;
/// the cached plan of the wider layout must not be handed to the narrower one.
TEST(GraphCacheConcurrency, LayoutIsPartOfTheKey) {
  GraphCache cache(8);
  Context wide(sim::SimConfig::phi_31sp());
  wide.setup(4);
  Context narrow(sim::SimConfig::phi_31sp());
  narrow.setup(2);
  const auto buf_w = wide.create_virtual_buffer(1 << 20);
  const auto buf_n = narrow.create_virtual_buffer(1 << 20);
  cache.get_or_compile(pipeline_graph(buf_w, 2), wide);
  cache.get_or_compile(pipeline_graph(buf_n, 2), narrow);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

/// Threads that miss on the same schedule at once each compile, but the
/// cache keeps one slot for it.
TEST(GraphCacheConcurrency, RacingMissesKeepOneSlot) {
  GraphCache cache(8);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache] {
      Context ctx(sim::SimConfig::phi_31sp());
      ctx.setup(2);
      const auto buf = ctx.create_virtual_buffer(1 << 20);
      CompiledGraph cg = cache.get_or_compile(pipeline_graph(buf, 2), ctx);
      cg.launch(ctx);
      ctx.synchronize();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace ms::rt
