#include "rt/graph.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "rt/tile_plan.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

sim::KernelWork work(double elems = 1e6) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = elems;
  return w;
}

TEST(Graph, EmptyGraphCannotLaunch) {
  Context ctx(cfg());
  Graph g;
  EXPECT_TRUE(g.empty());
  EXPECT_THROW((void)g.compile(ctx).launch(ctx), Error);
}

TEST(Graph, ForwardDependencyIsRejectedAtRecordTime) {
  Graph g;
  EXPECT_THROW(g.add_barrier(0, {0}), Error);  // node 0 does not exist yet
  const auto a = g.add_barrier(0);
  EXPECT_NO_THROW(g.add_barrier(0, {a}));
  EXPECT_THROW(g.add_barrier(0, {5}), Error);
}

TEST(Graph, FunctionalReplayProducesRealResults) {
  Context ctx(cfg());
  ctx.setup(2);
  std::vector<float> a(1024, 4.0f), b(1024, 0.0f);
  const auto ba = ctx.create_buffer(std::span<float>(a));
  const auto bb = ctx.create_buffer(std::span<float>(b));

  Graph g;
  const auto up = g.add_h2d(0, ba, 0, 4096);
  const auto k = g.add_kernel(0, {"twice", work(1024), [&ctx, ba, bb] {
                                    const float* src = ctx.device_ptr<float>(ba, 0);
                                    float* dst = ctx.device_ptr<float>(bb, 0);
                                    for (int i = 0; i < 1024; ++i) dst[i] = 2.0f * src[i];
                                  }},
                              {up});
  g.add_d2h(0, bb, 0, 4096, {k});
  EXPECT_EQ(g.size(), 3u);

  const Event done = g.compile(ctx).launch(ctx);
  ctx.synchronize();
  EXPECT_TRUE(done.done());
  for (const float x : b) ASSERT_FLOAT_EQ(x, 8.0f);
}

TEST(Graph, ReplayRunsTheFunctorEveryTime) {
  Context ctx(cfg());
  int runs = 0;
  Graph g;
  g.add_kernel(0, {"count", work(), [&runs] { ++runs; }});
  CompiledGraph cg = g.compile(ctx);
  for (int i = 0; i < 5; ++i) {
    cg.launch(ctx);
    ctx.synchronize();
  }
  EXPECT_EQ(runs, 5);
}

TEST(Graph, CompletionEventCoversAllLeaves) {
  Context ctx(cfg());
  ctx.setup(4);
  Graph g;
  std::vector<Graph::NodeId> leaves;
  for (int s = 0; s < 4; ++s) {
    leaves.push_back(g.add_kernel(s, {"k", work(1e6 * (s + 1)), {}}));
  }
  const Event done = g.compile(ctx).launch(ctx);
  ctx.wait(done);
  // Waiting on the graph's completion implies every stream's kernel is done.
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(ctx.stream(s).idle());
  }
}

TEST(Graph, CrossStreamDependenciesReplayCorrectly) {
  Context ctx(cfg());
  ctx.setup(2);
  std::vector<int> order;
  Graph g;
  const auto slow = g.add_kernel(0, {"slow", work(1e8), [&] { order.push_back(0); }});
  g.add_kernel(1, {"fast-but-dependent", work(1e3), [&] { order.push_back(1); }}, {slow});
  g.compile(ctx).launch(ctx);
  ctx.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Graph, ReplayIsCheaperThanReEnqueueAtLargeT) {
  // The point of the feature: at fine task granularity the per-action
  // enqueue cost dominates; graph replay pays it once at record time.
  const int tiles = 512;
  const std::size_t bytes = 8 << 20;

  auto build = [&](Context& ctx, Graph* g, BufferId buf) {
    const auto ranges = split_even(bytes, tiles);
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      const int s = static_cast<int>(t) % ctx.stream_count();
      if (g != nullptr) {
        const auto up = g->add_h2d(s, buf, ranges[t].begin, ranges[t].size());
        g->add_kernel(s, {"k", work(1e4), {}}, {up});
      } else {
        ctx.stream(s).enqueue_h2d(buf, ranges[t].begin, ranges[t].size());
        ctx.stream(s).enqueue_kernel({"k", work(1e4), {}});
      }
    }
  };

  Context direct(cfg());
  direct.setup(4);
  direct.set_tracing(false);
  const auto b1 = direct.create_virtual_buffer(bytes);
  direct.synchronize();
  const auto d0 = direct.host_time();
  build(direct, nullptr, b1);
  direct.synchronize();
  const double direct_ms = (direct.host_time() - d0).millis();

  Context replay(cfg());
  replay.setup(4);
  replay.set_tracing(false);
  const auto b2 = replay.create_virtual_buffer(bytes);
  Graph g;
  build(replay, &g, b2);  // record only; nothing enqueued yet
  CompiledGraph cg = g.compile(replay);
  replay.synchronize();
  const auto r0 = replay.host_time();
  cg.launch(replay);
  replay.synchronize();
  const double replay_ms = (replay.host_time() - r0).millis();

  EXPECT_LT(replay_ms, direct_ms * 0.75);
}

TEST(Graph, SameGraphLaunchesOnTwoContexts) {
  Graph g;
  // Virtual-buffer ids are assigned deterministically (1, 2, ...), so the
  // same handle value resolves on both contexts.
  Context a(cfg());
  const auto buf_a = a.create_virtual_buffer(4096);
  Context b(cfg());
  const auto buf_b = b.create_virtual_buffer(4096);
  ASSERT_EQ(buf_a.value, buf_b.value);

  const auto up = g.add_h2d(0, buf_a, 0, 4096);
  g.add_kernel(0, {"k", work(), {}}, {up});

  g.compile(a).launch(a);
  a.synchronize();
  g.compile(b).launch(b);
  b.synchronize();
  EXPECT_DOUBLE_EQ((a.host_time() - b.host_time()).micros(), 0.0);
}

TEST(Graph, InvalidStreamSurfacesAtLaunch) {
  Context ctx(cfg());  // only stream 0 exists
  Graph g;
  g.add_kernel(3, {"k", work(), {}});
  EXPECT_THROW((void)g.compile(ctx).launch(ctx), Error);
}

TEST(Graph, FailedLaunchIssuesNothing) {
  // A graph whose *second* node targets a missing stream: the launch must
  // be rejected whole, not after the first node was issued.
  Context ctx(cfg());  // only stream 0 exists
  int runs = 0;
  Graph g;
  const auto k = g.add_kernel(0, {"runs", work(), [&runs] { ++runs; }});
  g.add_kernel(3, {"k", work(), {}}, {k});
  ctx.synchronize();
  const auto t0 = ctx.host_time();
  EXPECT_THROW((void)g.compile(ctx).launch(ctx), Error);
  ctx.synchronize();
  EXPECT_EQ(runs, 0);

  // The host clock moved by the synchronize alone.
  Context bare(cfg());
  bare.synchronize();
  const auto b0 = bare.host_time();
  bare.synchronize();
  EXPECT_EQ((ctx.host_time() - t0).micros(), (bare.host_time() - b0).micros());
}

}  // namespace
}  // namespace ms::rt
