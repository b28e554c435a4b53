// Compiled graph executor: results against direct issue, replay pricing,
// the compile-error gallery, stream capture, and the graph cache.

#include "rt/compiled_graph.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analyze/capture.hpp"
#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "rt/graph.hpp"
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

/// Timing-only pipeline over `streams` streams: per tile an h2d, a kernel
/// depending on it, and a d2h depending on the kernel, plus a cross-stream
/// dependency every fourth tile so the DAG is not stream-separable.
Graph make_pipeline(BufferId buf, std::size_t bytes, int tiles, int streams) {
  Graph g;
  const auto ranges = split_even(bytes, tiles);
  Graph::NodeId prev_kernel = 0;
  bool have_prev = false;
  for (std::size_t t = 0; t < ranges.size(); ++t) {
    const int s = static_cast<int>(t) % streams;
    const auto up = g.add_h2d(s, buf, ranges[t].begin, ranges[t].size());
    std::vector<Graph::NodeId> deps{up};
    if (have_prev && t % 4 == 0) deps.push_back(prev_kernel);
    const auto k = g.add_kernel(s, {"k", work(1e4), {}}, deps);
    g.add_d2h(s, buf, ranges[t].begin, ranges[t].size(), {k});
    prev_kernel = k;
    have_prev = true;
  }
  return g;
}

// ---------------------------------------------------------------------------
// Replay: results identical to direct issue, pricing, lifetime.
// ---------------------------------------------------------------------------

TEST(CompiledGraph, FunctionalResultsMatchDirectIssue) {
  auto run = [](bool compiled) {
    Context ctx(cfg());
    ctx.setup(2);
    std::vector<float> a(1024), b(1024, 0.0f);
    std::iota(a.begin(), a.end(), 1.0f);
    const auto ba = ctx.create_buffer(std::span<float>(a));
    const auto bb = ctx.create_buffer(std::span<float>(b));

    const KernelLaunch twice{"twice", work(1024), [&ctx, ba, bb] {
                               const float* src = ctx.device_ptr<float>(ba, 0);
                               float* dst = ctx.device_ptr<float>(bb, 0);
                               for (int i = 0; i < 1024; ++i) dst[i] = 2.0f * src[i];
                             }};
    const KernelLaunch inc{"inc", work(1024), [&ctx, bb] {
                             float* dst = ctx.device_ptr<float>(bb, 0);
                             for (int i = 0; i < 1024; ++i) dst[i] += 1.0f;
                           }};

    if (compiled) {
      Graph g;
      const auto up = g.add_h2d(0, ba, 0, 4096);
      const auto k = g.add_kernel(0, twice, {up});
      const auto k2 = g.add_kernel(1, inc, {k});
      g.add_d2h(0, bb, 0, 4096, {k2});
      g.compile(ctx).launch(ctx);
    } else {
      const Event up = ctx.stream(0).enqueue_h2d(ba, 0, 4096);
      const Event k = ctx.stream(0).enqueue_kernel(twice, {up});
      const Event k2 = ctx.stream(1).enqueue_kernel(inc, {k});
      ctx.stream(0).enqueue_d2h(bb, 0, 4096, {k2});
    }
    ctx.synchronize();
    return std::accumulate(b.begin(), b.end(), 0.0);
  };

  const double sum_direct = run(false);
  const double sum_comp = run(true);
  EXPECT_EQ(sum_direct, sum_comp);
  // 2*(1+...+1024) + 1024 = 1024*1025 + 1024.
  EXPECT_DOUBLE_EQ(sum_comp, 1024.0 * 1025.0 + 1024.0);
}

TEST(CompiledGraph, BatchedFunctionalReplayRunsEveryInstance) {
  // Back-to-back launches before one synchronize: every replay instance runs
  // its functor, and the last launch's event completes.
  Context ctx(cfg());
  ctx.setup(2);
  int runs = 0;
  Graph g;
  g.add_kernel(0, {"count", work(), [&runs] { ++runs; }});
  CompiledGraph cg = g.compile(ctx);
  Event done;
  for (int i = 0; i < 5; ++i) done = cg.launch(ctx);
  ctx.synchronize();
  EXPECT_TRUE(done.done());
  EXPECT_EQ(runs, 5);
}

TEST(CompiledGraph, CompiledReplayChargesLaunchBasePlusPerNode) {
  // One replay charges the host graph_launch_base + (n+1) *
  // graph_replay_per_node (the +1 is the appended completion barrier).
  Context ctx(cfg());
  ctx.setup(2);
  ctx.set_tracing(false);
  const auto buf = ctx.create_virtual_buffer(1 << 16);
  const Graph g = make_pipeline(buf, 1 << 16, 8, 2);
  CompiledGraph cg = g.compile(ctx);
  ctx.synchronize();
  const auto t0 = ctx.host_time();
  cg.launch(ctx);
  const auto cost = ctx.host_time() - t0;
  ctx.synchronize();

  const auto& ov = cfg().overhead;
  const auto expected =
      ov.graph_launch_base + ov.graph_replay_per_node * static_cast<double>(g.size() + 1);
  EXPECT_NEAR(cost.micros(), expected.micros(), 1e-9);
}

TEST(CompiledGraph, DestroyingExecutorWithLaunchesInFlightIsSafe) {
  // The executor may go out of scope before the context drains: the run
  // state and plan are kept alive until the last action completes.
  Context ctx(cfg());
  ctx.setup(2);
  int runs = 0;
  {
    Graph g;
    const auto buf = ctx.create_virtual_buffer(4096);
    const auto up = g.add_h2d(0, buf, 0, 4096);
    g.add_kernel(1, {"k", work(), [&runs] { ++runs; }}, {up});
    CompiledGraph cg = g.compile(ctx);
    for (int i = 0; i < 4; ++i) cg.launch(ctx);
  }  // cg (and g) destroyed with 4 replays still in flight
  ctx.synchronize();
  EXPECT_EQ(runs, 4);
}

// ---------------------------------------------------------------------------
// Compile-error gallery.
// ---------------------------------------------------------------------------

TEST(CompiledGraphErrors, EmptyGraphCannotCompile) {
  Context ctx(cfg());
  Graph g;
  EXPECT_THROW((void)g.compile(ctx), Error);
}

TEST(CompiledGraphErrors, BadStreamSurfacesAtCompile) {
  Context ctx(cfg());  // only stream 0 exists
  Graph g;
  g.add_kernel(3, {"k", work(), {}});
  EXPECT_THROW((void)g.compile(ctx), Error);
}

TEST(CompiledGraphErrors, UnknownBufferSurfacesAtCompile) {
  Context ctx(cfg());
  Graph g;
  g.add_h2d(0, BufferId{999}, 0, 64);
  EXPECT_THROW((void)g.compile(ctx), Error);
}

TEST(CompiledGraphErrors, OutOfRangeTransferSurfacesAtCompile) {
  Context ctx(cfg());
  const auto buf = ctx.create_virtual_buffer(4096);
  Graph g;
  g.add_h2d(0, buf, 4000, 1024);  // runs past the end
  EXPECT_THROW((void)g.compile(ctx), Error);
}

TEST(CompiledGraphErrors, WrappingTransferRangeSurfacesAtCompile) {
  // offset + bytes wraps around SIZE_MAX; a wrapped sum would pass a naive
  // bound check.
  Context ctx(cfg());
  const auto buf = ctx.create_virtual_buffer(1024);
  Graph g;
  g.add_h2d(0, buf, 16, std::numeric_limits<std::size_t>::max() - 8);
  EXPECT_THROW((void)g.compile(ctx), Error);
}

TEST(CompiledGraphErrors, LaunchOnContextWithSmallerBufferThrows) {
  Context a(cfg());
  const auto buf = a.create_virtual_buffer(4096);
  Graph g;
  g.add_h2d(0, buf, 2048, 2048);
  CompiledGraph cg = g.compile(a);

  // Same handle, same platform, but the buffer is too small for the range.
  Context b(cfg());
  ASSERT_EQ(b.create_virtual_buffer(1024).value, buf.value);
  EXPECT_THROW((void)cg.launch(b), Error);
}

TEST(CompiledGraphErrors, LaunchOnIncompatibleConfigThrows) {
  Context a(cfg());
  const auto buf = a.create_virtual_buffer(4096);
  Graph g;
  g.add_h2d(0, buf, 0, 4096);
  CompiledGraph cg = g.compile(a);

  // Same stream layout, different simulated platform: the precomputed
  // durations and charges would be wrong, so launch must refuse.
  Context b(sim::SimConfig::phi_7120p());
  (void)b.create_virtual_buffer(4096);
  EXPECT_THROW((void)cg.launch(b), Error);
}

TEST(CompiledGraphErrors, LaunchOnContextWithTooFewStreamsThrows) {
  Context a(cfg());
  a.setup(4);
  const auto buf = a.create_virtual_buffer(4096);
  Graph g;
  g.add_h2d(3, buf, 0, 4096);
  CompiledGraph cg = g.compile(a);

  Context b(cfg());  // one stream
  (void)b.create_virtual_buffer(4096);
  EXPECT_THROW((void)cg.launch(b), Error);
}

TEST(CompiledGraphErrors, LaunchSurvivesCompatibleLayoutChange) {
  // Growing the stream set bumps the layout epoch; the compiled graph must
  // revalidate and keep working rather than trusting the stale cache.
  Context ctx(cfg());
  ctx.setup(2);
  const auto buf = ctx.create_virtual_buffer(4096);
  Graph g;
  g.add_h2d(1, buf, 0, 4096);
  CompiledGraph cg = g.compile(ctx);
  cg.launch(ctx);
  ctx.synchronize();

  ctx.add_stream(0, 0);
  EXPECT_NO_THROW((void)cg.launch(ctx));
  ctx.synchronize();
}

// ---------------------------------------------------------------------------
// Stream capture.
// ---------------------------------------------------------------------------

TEST(CompiledGraphCapture, CaptureRecordsWithoutExecuting) {
  Context ctx(cfg());
  ctx.setup(2);
  std::vector<float> a(256, 1.0f);
  const auto buf = ctx.create_buffer(std::span<float>(a));
  ctx.synchronize();
  const auto t0 = ctx.host_time();

  int runs = 0;
  Graph g;
  ctx.begin_capture(g);
  EXPECT_TRUE(ctx.capturing());
  const Event up = ctx.stream(0).enqueue_h2d(buf, 0, 1024);
  ctx.stream(1).enqueue_kernel({"k", work(), [&runs] { ++runs; }}, {up});
  ctx.end_capture();
  EXPECT_FALSE(ctx.capturing());

  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(runs, 0) << "capture must not execute anything";
  EXPECT_EQ((ctx.host_time() - t0).micros(), 0.0) << "capture charges no host time";

  g.compile(ctx).launch(ctx);
  ctx.synchronize();
  EXPECT_EQ(runs, 1);
}

TEST(CompiledGraphCapture, CapturedGraphMatchesDirectRecording) {
  // Recording the same enqueue sequence by hand or via capture must produce
  // the same replay schedule, hence identical virtual times.
  auto build = [](Context& ctx, BufferId buf, Graph& g, bool use_capture) {
    if (use_capture) {
      ctx.begin_capture(g);
      for (int t = 0; t < 8; ++t) {
        const int s = t % 2;
        const Event up = ctx.stream(s).enqueue_h2d(buf, static_cast<std::size_t>(t) * 512, 512);
        ctx.stream(s).enqueue_kernel({"k", work(1e4), {}}, {up});
      }
      ctx.end_capture();
    } else {
      for (int t = 0; t < 8; ++t) {
        const int s = t % 2;
        const auto up = g.add_h2d(s, buf, static_cast<std::size_t>(t) * 512, 512);
        g.add_kernel(s, {"k", work(1e4), {}}, {up});
      }
    }
  };

  auto run = [&](bool use_capture) {
    Context ctx(cfg());
    ctx.setup(2);
    ctx.set_tracing(false);
    const auto buf = ctx.create_virtual_buffer(4096);
    Graph g;
    build(ctx, buf, g, use_capture);
    CompiledGraph cg = g.compile(ctx);
    for (int i = 0; i < 4; ++i) cg.launch(ctx);
    ctx.synchronize();
    return ctx.host_time().micros();
  };

  EXPECT_EQ(run(false), run(true));
}

TEST(CompiledGraphCapture, DependencyOnFinishedWorkIsDropped) {
  Context ctx(cfg());
  const auto buf = ctx.create_virtual_buffer(4096);
  const Event pre = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  ctx.synchronize();
  ASSERT_TRUE(pre.done());

  Graph g;
  ctx.begin_capture(g);
  // `pre` completed before capture began: it is outside the graph, so the
  // recorded node simply has no dependencies.
  ctx.stream(0).enqueue_kernel({"k", work(), {}}, {pre});
  ctx.end_capture();
  EXPECT_EQ(g.size(), 1u);
  g.compile(ctx).launch(ctx);
  ctx.synchronize();
}

TEST(CompiledGraphCapture, DependencyOnPendingWorkThrows) {
  Context ctx(cfg());
  const auto buf = ctx.create_virtual_buffer(1 << 20);
  const Event pending = ctx.stream(0).enqueue_h2d(buf, 0, 1 << 20);

  Graph g;
  ctx.begin_capture(g);
  EXPECT_THROW(ctx.stream(0).enqueue_kernel({"k", work(), {}}, {pending}), Error);
  ctx.end_capture();
  ctx.synchronize();
}

TEST(CompiledGraphCapture, BlockingOpsThrowDuringCapture) {
  Context ctx(cfg());
  const auto buf = ctx.create_virtual_buffer(4096);
  Graph other;
  other.add_kernel(0, {"k", work(), {}});
  CompiledGraph cg = other.compile(ctx);
  Graph g;
  ctx.begin_capture(g);
  const Event phantom = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  EXPECT_THROW(ctx.synchronize(), Error);
  EXPECT_THROW(ctx.wait(phantom), Error);
  EXPECT_THROW(ctx.stream(0).synchronize(), Error);
  EXPECT_THROW(ctx.setup(4), Error);
  EXPECT_THROW(ctx.destroy_buffer(buf), Error);
  EXPECT_THROW((void)cg.launch(ctx), Error);
  ctx.end_capture();
}

TEST(CompiledGraphCapture, PhantomFromAnotherGraphIsRefused) {
  Context ctx(cfg());
  Graph g;
  ctx.begin_capture(g);
  const Event first = ctx.stream(0).enqueue_kernel({"k", work(), {}});
  ctx.end_capture();

  // Node ids are graph-local: g's node 0 must not alias h's, nor a copy's.
  const auto refused = [&](Graph& other) {
    ctx.begin_capture(other);
    try {
      (void)ctx.stream(0).enqueue_kernel({"k", work(), {}}, {first});
      ADD_FAILURE() << "a phantom of another graph was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("different graph; node ids are graph-local"),
                std::string::npos)
          << e.what();
    }
    ctx.end_capture();
  };
  Graph h;
  refused(h);
  Graph copy = g;
  refused(copy);

  // The graph that recorded the phantom still accepts it, in a later capture
  // too, and it names the node it was returned for.
  ctx.begin_capture(g);
  const Event second = ctx.stream(0).enqueue_kernel({"k", work(), {}});
  (void)ctx.stream(1 % ctx.stream_count()).enqueue_barrier({first, second});
  ctx.end_capture();
  ASSERT_EQ(g.size(), 3u);
  g.compile(ctx).launch(ctx);
  ctx.synchronize();
}

TEST(CompiledGraphCapture, NestedOrUnbalancedCaptureThrows) {
  Context ctx(cfg());
  Graph g, h;
  EXPECT_THROW(ctx.end_capture(), Error);  // not capturing
  ctx.begin_capture(g);
  EXPECT_THROW(ctx.begin_capture(h), Error);  // already capturing
  ctx.end_capture();
}

TEST(CompiledGraphCapture, FlatGraphRoundTrip) {
  // A hand-built graph with deps, declared accesses, labels and a functor.
  // Replays run the functor; on an analyzing context the recorder sees the
  // labels, accesses and deps (the one missing dep is the race reported);
  // and a capture of the same enqueues compares equal to it in the cache.
  const auto build = [](Graph& g, BufferId buf, int* runs, bool ordered) {
    const auto up = g.add_h2d(0, buf, 0, 4096);
    KernelLaunch a{"writer-a", work(), {}};
    if (runs != nullptr) a.fn = [runs] { ++*runs; };
    a.reads(buf, 0, 2048).writes(buf, 0, 1024);
    const auto ka = g.add_kernel(0, std::move(a), {up});
    KernelLaunch b{"writer-b", work(), {}};
    b.writes(buf, MemRange::tile(0, 4, 0, 8, 64, 4));
    std::vector<Graph::NodeId> deps{up};
    if (ordered) deps.push_back(ka);
    const auto kb = g.add_kernel(1, std::move(b), deps);
    const auto join = g.add_barrier(1, {ka, kb});
    g.add_d2h(1, buf, 0, 4096, {join});
  };

  for (const bool ordered : {true, false}) {
    analyze::Capture capture;
    Context ctx(cfg());
    ctx.setup(2);
    std::vector<float> data(1024, 1.0f);
    const auto buf = ctx.create_buffer(std::span<float>(data));
    int runs = 0;
    Graph g;
    build(g, buf, &runs, ordered);
    ASSERT_EQ(g.size(), 5u);
    CompiledGraph cg = g.compile(ctx);
    EXPECT_EQ(cg.node_count(), 5u);
    cg.launch(ctx);
    cg.launch(ctx);
    ctx.synchronize();
    EXPECT_EQ(runs, 2);
    if (ordered) {
      EXPECT_TRUE(capture.clean());
    } else {
      ASSERT_FALSE(capture.clean());
      for (const analyze::Hazard& h : capture.result().hazards) {
        EXPECT_NE(h.kind, analyze::HazardKind::Deadlock);
        EXPECT_EQ(h.first.label, "writer-a");
        EXPECT_EQ(h.second.label, "writer-b");
      }
    }
  }

  Context ctx(cfg());
  ctx.setup(2);
  const auto buf = ctx.create_virtual_buffer(4096);
  GraphCache cache;
  Graph hand;
  build(hand, buf, nullptr, true);
  (void)cache.get_or_compile(hand, ctx);
  Graph captured;
  ctx.begin_capture(captured);
  const Event up = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  KernelLaunch a{"writer-a", work(), {}};
  a.reads(buf, 0, 2048).writes(buf, 0, 1024);
  const Event ka = ctx.stream(0).enqueue_kernel(std::move(a), {up});
  KernelLaunch b{"writer-b", work(), {}};
  b.writes(buf, MemRange::tile(0, 4, 0, 8, 64, 4));
  const Event kb = ctx.stream(1).enqueue_kernel(std::move(b), {up, ka});
  const Event join = ctx.stream(1).enqueue_barrier({ka, kb});
  ctx.stream(1).enqueue_d2h(buf, 0, 4096, {join});
  ctx.end_capture();
  (void)cache.get_or_compile(captured, ctx);
  EXPECT_EQ(cache.hits(), 1u) << "the captured graph must equal the hand-built one";
  Graph unordered;
  build(unordered, buf, nullptr, false);
  (void)cache.get_or_compile(unordered, ctx);
  EXPECT_EQ(cache.misses(), 2u) << "a dropped dep is a different schedule";
}

/// Capture through `cache` on a fresh 2-stream context: `tiles` tiles of
/// h2d -> kernel, each kernel's work `elems_at(tile)`. Returns the host time
/// of three replays of the executor the capture produced.
template <typename Elems>
double capture_and_replay(GraphCache& cache, int tiles, Elems elems_at) {
  Context ctx(cfg());
  ctx.setup(2);
  ctx.set_tracing(false);
  const auto buf = ctx.create_virtual_buffer(4096);
  std::optional<CompiledGraph> cg = cache.capture(ctx, "phase", [&] {
    for (int t = 0; t < tiles; ++t) {
      const Event up = ctx.stream(t % 2).enqueue_h2d(buf, static_cast<std::size_t>(t) * 64, 64);
      ctx.stream(t % 2).enqueue_kernel({"k", work(elems_at(t)), {}}, {up});
    }
  });
  if (!cg) return -1.0;
  EXPECT_EQ(cg->node_count(), static_cast<std::size_t>(2 * tiles));
  for (int i = 0; i < 3; ++i) cg->launch(ctx);
  ctx.synchronize();
  return ctx.host_time().micros();
}

/// The same schedule compiled from scratch, without the cache.
template <typename Elems>
double compile_and_replay(int tiles, Elems elems_at) {
  Context ctx(cfg());
  ctx.setup(2);
  ctx.set_tracing(false);
  const auto buf = ctx.create_virtual_buffer(4096);
  Graph g;
  for (int t = 0; t < tiles; ++t) {
    const auto up = g.add_h2d(t % 2, buf, static_cast<std::size_t>(t) * 64, 64);
    g.add_kernel(t % 2, {"k", work(elems_at(t)), {}}, {up});
  }
  CompiledGraph cg = g.compile(ctx);
  for (int i = 0; i < 3; ++i) cg.launch(ctx);
  ctx.synchronize();
  return ctx.host_time().micros();
}

TEST(CompiledGraphCapture, DivergenceAfterPrefixCompilesTheNewSchedule) {
  // Tile k = 5's kernel is 8x heavier in the second schedule: its first
  // 2k + 1 nodes match the cached first schedule, node 2k + 1 does not.
  constexpr int kTiles = 12;
  const auto first = [](int) { return 1e5; };
  const auto second = [](int t) { return t == 5 ? 8e5 : 1e5; };
  GraphCache cache;
  EXPECT_EQ(capture_and_replay(cache, kTiles, first), compile_and_replay(kTiles, first));
  EXPECT_EQ(cache.misses(), 1u);

  EXPECT_EQ(capture_and_replay(cache, kTiles, second), compile_and_replay(kTiles, second));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // A capture that stops inside a cached schedule's nodes is a prefix of it:
  // it compiles on its own.
  EXPECT_EQ(capture_and_replay(cache, 3, first), compile_and_replay(3, first));
  EXPECT_EQ(cache.misses(), 3u);

  // The first schedule is still a hit, although the most recently used plan
  // under this name diverges from it after the shared prefix.
  EXPECT_EQ(capture_and_replay(cache, kTiles, second), compile_and_replay(kTiles, second));
  EXPECT_EQ(capture_and_replay(cache, kTiles, first), compile_and_replay(kTiles, first));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
}

// ---------------------------------------------------------------------------
// GraphCache.
// ---------------------------------------------------------------------------

TEST(GraphCacheTest, SecondLookupHitsAndSharesThePlan) {
  Context ctx(cfg());
  ctx.setup(2);
  const auto buf = ctx.create_virtual_buffer(4096);
  Graph g;
  g.add_h2d(0, buf, 0, 4096);
  g.add_kernel(1, {"k", work(), {}});

  GraphCache cache(4);
  CompiledGraph a = cache.get_or_compile(g, ctx);
  CompiledGraph b = cache.get_or_compile(g, ctx);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(a.config_fingerprint(), b.config_fingerprint());

  // Both executors replay independently on the shared plan.
  a.launch(ctx);
  b.launch(ctx);
  ctx.synchronize();
  EXPECT_EQ(a.replays(), 1u);
  EXPECT_EQ(b.replays(), 1u);
}

TEST(GraphCacheTest, DifferentConfigOrLayoutMisses) {
  Graph g;
  g.add_kernel(0, {"k", work(), {}});

  GraphCache cache(8);
  Context a(cfg());
  (void)cache.get_or_compile(g, a);

  // Different platform: same schedule, different fingerprint.
  Context b(sim::SimConfig::phi_7120p());
  (void)cache.get_or_compile(g, b);

  // Different stream layout on the original platform.
  Context c(cfg());
  c.setup(4);
  (void)cache.get_or_compile(g, c);

  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(GraphCacheTest, AnyScheduleDifferenceMisses) {
  // Each variant differs from the base in one recorded field; every one must
  // compile its own plan.
  Context ctx(cfg());
  ctx.setup(2);
  const auto buf = ctx.create_virtual_buffer(4096);
  const auto other = ctx.create_virtual_buffer(4096);
  const auto build = [&](int stream, BufferId b, std::size_t offset, double elems,
                         const char* label, std::size_t read_len, bool dep) {
    Graph g;
    const auto up = g.add_h2d(stream, b, offset, 1024);
    std::vector<Graph::NodeId> deps;
    if (dep) deps.push_back(up);
    g.add_kernel(0, KernelLaunch{label, work(elems)}.reads(buf, 0, read_len), deps);
    return g;
  };
  GraphCache cache(16);
  (void)cache.get_or_compile(build(0, buf, 0, 1e6, "k", 1024, true), ctx);
  (void)cache.get_or_compile(build(1, buf, 0, 1e6, "k", 1024, true), ctx);      // stream
  (void)cache.get_or_compile(build(0, other, 0, 1e6, "k", 1024, true), ctx);    // buffer
  (void)cache.get_or_compile(build(0, buf, 512, 1e6, "k", 1024, true), ctx);    // offset
  (void)cache.get_or_compile(build(0, buf, 0, 2e6, "k", 1024, true), ctx);      // work
  (void)cache.get_or_compile(build(0, buf, 0, 1e6, "k2", 1024, true), ctx);     // label
  (void)cache.get_or_compile(build(0, buf, 0, 1e6, "k", 2048, true), ctx);      // accesses
  (void)cache.get_or_compile(build(0, buf, 0, 1e6, "k", 1024, false), ctx);     // deps
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 8u);
  (void)cache.get_or_compile(build(0, buf, 0, 1e6, "k", 1024, true), ctx);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(GraphCacheTest, GraphWithKernelFunctorIsNotCached) {
  Context ctx(cfg());
  int runs = 0;
  Graph g;
  g.add_kernel(0, {"k", work(), [&runs] { ++runs; }});
  GraphCache cache(4);
  cache.get_or_compile(g, ctx).launch(ctx);
  cache.get_or_compile(g, ctx).launch(ctx);
  ctx.synchronize();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(GraphCacheTest, SharedTransferPlanMovesEachContextsOwnData) {
  // A transfer-only plan compiled on one context serves another: the payload
  // is resolved against the launching context's buffers.
  const auto upload = [](GraphCache& cache, float value) {
    Context ctx(cfg());
    std::vector<float> host(256, value);
    const auto buf = ctx.create_buffer(std::span<float>(host));
    Graph g;
    g.add_h2d(0, buf, 0, host.size() * sizeof(float));
    cache.get_or_compile(g, ctx).launch(ctx);
    ctx.synchronize();
    return *ctx.device_ptr<float>(buf, 0);
  };
  GraphCache cache(4);
  EXPECT_EQ(upload(cache, 1.0f), 1.0f);
  EXPECT_EQ(upload(cache, 2.0f), 2.0f);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(GraphCacheTest, LeastRecentlyUsedPlanIsEvicted) {
  Context ctx(cfg());
  Graph a, b, c;
  a.add_kernel(0, {"a", work(), {}});
  b.add_kernel(0, {"b", work(), {}});
  c.add_kernel(0, {"c", work(), {}});

  GraphCache cache(2);
  (void)cache.get_or_compile(a, ctx);
  (void)cache.get_or_compile(b, ctx);
  (void)cache.get_or_compile(a, ctx);  // refresh a
  (void)cache.get_or_compile(c, ctx);  // evicts b
  EXPECT_EQ(cache.size(), 2u);

  (void)cache.get_or_compile(a, ctx);
  EXPECT_EQ(cache.hits(), 2u);
  (void)cache.get_or_compile(b, ctx);  // must recompile
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(GraphCacheTest, ClearDropsPlansAndStats) {
  Context ctx(cfg());
  Graph g;
  g.add_kernel(0, {"k", work(), {}});
  GraphCache cache(4);
  (void)cache.get_or_compile(g, ctx);
  (void)cache.get_or_compile(g, ctx);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(GraphCacheTest, ProcessCacheIsSharedAndUsable) {
  Context ctx(cfg());
  Graph g;
  g.add_kernel(0, {"test-process-cache-probe", work(), {}});
  auto& cache = process_graph_cache();
  const auto misses_before = cache.misses();
  CompiledGraph cg = cache.get_or_compile(g, ctx);
  cg.launch(ctx);
  ctx.synchronize();
  EXPECT_GE(cache.misses(), misses_before + 1);
}

}  // namespace
}  // namespace ms::rt
