// The runtime-facing side of the analyzer: an rt::Context built under an
// analyze::Capture records every enqueue and reports hazards into the
// Capture at synchronization points.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analyze/capture.hpp"
#include "analyze/report.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "rt/graph.hpp"
#include "rt/tuner.hpp"
#include "sim/sim_config.hpp"
#include "telemetry/metrics.hpp"

namespace {

using ms::analyze::Capture;
using ms::analyze::HazardKind;
using ms::rt::BufferId;
using ms::rt::MemRange;

ms::sim::SimConfig small_cfg() { return ms::sim::SimConfig::phi_31sp(); }

/// Two streams, overlapping device writes, no ordering edge.
void enqueue_racy(ms::rt::Context& ctx, BufferId buf) {
  ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  ctx.stream(1).enqueue_h2d(buf, 0, 4096);
}

/// The process-wide count of actions analyzer recorders have recorded.
std::uint64_t actions_recorded() {
  return ms::telemetry::registry()
      .counter("ms_analyze_actions_recorded_total",
               "Transfers, kernels, and barriers captured into action graphs")
      .value();
}

TEST(ContextAnalyze, OffByDefault) {
  const bool telemetry_was = ms::telemetry::enabled();
  ms::telemetry::set_enabled(true);
  const std::uint64_t before = actions_recorded();
  {
    ms::rt::Context ctx(small_cfg());
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    enqueue_racy(ctx, buf);
    EXPECT_NO_THROW(ctx.synchronize());
  }
  EXPECT_EQ(actions_recorded(), before);
  ms::telemetry::set_enabled(telemetry_was);
}

TEST(ContextAnalyze, CaptureCollectsInsteadOfThrowing) {
  Capture capture;
  {
    ms::rt::Context ctx(small_cfg());  // analyzed because a Capture is live
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    ctx.name_buffer(buf, "racy");
    enqueue_racy(ctx, buf);
    EXPECT_NO_THROW(ctx.synchronize());
  }
  EXPECT_EQ(capture.result().nodes_analyzed, 2u);
  ASSERT_FALSE(capture.clean());
  EXPECT_EQ(capture.result().hazards[0].kind, HazardKind::RaceWAW);
  EXPECT_FALSE(capture.racy_record().empty());
  const std::string report = ms::analyze::text_report(capture.result());
  EXPECT_NE(report.find("racy"), std::string::npos);
  EXPECT_NE(report.find("missing edge"), std::string::npos);
}

TEST(ContextAnalyze, KernelAccessRangesDriveRaces) {
  Capture capture;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(8192);
  const auto up = ctx.stream(0).enqueue_h2d(buf, 0, 8192);

  // Disjoint halves on two streams: clean.
  ms::rt::KernelLaunch lo{"lo", {}, {}, {}};
  lo.reads_writes(buf, 0, 4096);
  ms::rt::KernelLaunch hi{"hi", {}, {}, {}};
  hi.reads_writes(buf, 4096, 4096);
  ctx.stream(0).enqueue_kernel(std::move(lo), {up});
  ctx.stream(1).enqueue_kernel(std::move(hi), {up});
  ctx.synchronize();
  EXPECT_TRUE(capture.clean());

  // One byte of overlap: race.
  ms::rt::KernelLaunch lo2{"lo2", {}, {}, {}};
  lo2.reads_writes(buf, 0, 4097);
  ms::rt::KernelLaunch hi2{"hi2", {}, {}, {}};
  hi2.reads_writes(buf, 4096, 4096);
  ctx.stream(0).enqueue_kernel(std::move(lo2));
  ctx.stream(1).enqueue_kernel(std::move(hi2));
  ctx.synchronize();
  ASSERT_EQ(capture.result().hazards.size(), 1u);
  EXPECT_EQ(capture.result().hazards[0].kind, HazardKind::RaceWAW);
}

TEST(ContextAnalyze, D2hOfUntouchedBufferIsUseBeforeWrite) {
  Capture capture;
  ms::rt::Context ctx(small_cfg());
  const BufferId buf = ctx.create_virtual_buffer(1024);
  ctx.stream(0).enqueue_d2h(buf, 0, 1024);
  ctx.synchronize();
  ASSERT_EQ(capture.result().hazards.size(), 1u);
  EXPECT_EQ(capture.result().hazards[0].kind, HazardKind::UseBeforeWrite);
}

TEST(ContextAnalyze, AssumeDeviceResidentSuppressesIt) {
  Capture capture;
  ms::rt::Context ctx(small_cfg());
  const BufferId buf = ctx.create_virtual_buffer(1024);
  ctx.assume_device_resident(buf);
  ctx.stream(0).enqueue_d2h(buf, 0, 1024);
  ctx.synchronize();
  EXPECT_EQ(capture.result().nodes_analyzed, 1u);
  EXPECT_TRUE(capture.clean());
}

TEST(ContextAnalyze, StreamSynchronizeIsAnOrderingEdge) {
  // Host blocks on stream 0, then enqueues the overlapping write on stream 1:
  // the host join orders them, so the analyzer must stay quiet.
  Capture capture;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(2048);
  ctx.stream(0).enqueue_h2d(buf, 0, 2048);
  ctx.stream(0).synchronize();
  ctx.stream(1).enqueue_h2d(buf, 0, 2048);
  ctx.synchronize();
  EXPECT_GT(capture.result().nodes_analyzed, 0u);
  EXPECT_TRUE(capture.clean());
}

TEST(ContextAnalyze, ContextWaitIsAnOrderingEdge) {
  Capture capture;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(2048);
  const auto ev = ctx.stream(0).enqueue_h2d(buf, 0, 2048);
  ctx.wait(ev);
  ctx.stream(1).enqueue_h2d(buf, 0, 2048);
  ctx.synchronize();
  EXPECT_GT(capture.result().nodes_analyzed, 0u);
  EXPECT_TRUE(capture.clean());
}

TEST(ContextAnalyze, SetupIsASegmentBoundary) {
  // Re-partitioning requires idle streams, so it is a global barrier: work
  // before and after needs no edges between them.
  Capture capture;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(2048);
  ctx.stream(0).enqueue_h2d(buf, 0, 2048);
  ctx.synchronize();
  ctx.setup(4);
  ctx.stream(3).enqueue_h2d(buf, 0, 2048);
  ctx.synchronize();
  EXPECT_GT(capture.result().nodes_analyzed, 0u);
  EXPECT_TRUE(capture.clean());
}

// --- compiled graph replay feeds the recorder ------------------------------

TEST(ContextAnalyze, CompiledReplayOfRacyGraphIsReported) {
  // Replaying on an analyzing context surfaces the race, because every
  // replayed node is recorded.
  Capture capture;
  {
    ms::rt::Context ctx(small_cfg());
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    ms::rt::Graph racy;
    ms::rt::KernelLaunch w0{"w0", {}, {}, {}};
    w0.writes(buf, 0, 4096);
    ms::rt::KernelLaunch w1{"w1", {}, {}, {}};
    w1.writes(buf, 0, 4096);
    racy.add_kernel(0, std::move(w0));
    racy.add_kernel(1, std::move(w1));
    ms::rt::CompiledGraph cg = racy.compile(ctx);
    cg.launch(ctx);
    EXPECT_NO_THROW(ctx.synchronize());
  }
  EXPECT_FALSE(capture.clean());
  EXPECT_EQ(capture.result().hazards[0].kind, HazardKind::RaceWAW);
}

TEST(ContextAnalyze, RepeatedReplaysAreRecordedWithoutChangingVirtualTime) {
  // Three kernels hopping across two streams, replayed 8 times: every
  // instance records its nodes plus the completion barrier.
  const auto run = [](bool analyze) {
    std::optional<Capture> capture;
    if (analyze) capture.emplace();
    ms::rt::Context ctx(small_cfg());
    ctx.setup(2);
    ms::sim::KernelWork work;
    work.kind = ms::sim::KernelKind::Streaming;
    work.elems = 1e5;
    ms::rt::Graph g;
    const auto k0 = g.add_kernel(0, {"k0", work, {}, {}});
    const auto k1 = g.add_kernel(1, {"k1", work, {}, {}}, {k0});
    g.add_kernel(0, {"k2", work, {}, {}}, {k1});
    ms::rt::CompiledGraph cg = g.compile(ctx);
    for (int i = 0; i < 8; ++i) EXPECT_NO_THROW(cg.launch(ctx));
    ctx.synchronize();
    return ctx.host_time().micros();
  };
  const bool telemetry_was = ms::telemetry::enabled();
  ms::telemetry::set_enabled(true);
  const std::uint64_t before = actions_recorded();
  const double analyzed = run(true);
  const std::uint64_t delta = actions_recorded() - before;
  ms::telemetry::set_enabled(telemetry_was);
  EXPECT_EQ(delta, 8u * (3u + 1u));
  EXPECT_EQ(analyzed, run(false));
}

TEST(ContextAnalyze, HostWaitsOnCompiledReplayAreOrderingEdges) {
  // Stream::synchronize after a replay joins that stream's newest replayed
  // node, and Context::wait on a launch's returned event joins the
  // completion barrier: each makes the later overlapping upload race-free.
  Capture capture;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(3);
  const BufferId buf = ctx.create_virtual_buffer(2048);
  // The completion barrier lands on stream 0 with the marker; the upload is
  // stream 1's newest node. The later uploads go to stream 2, which only a
  // host wait orders after the replay.
  ms::rt::Graph g;
  g.add_kernel(0, {"marker", {}, {}, {}});
  g.add_h2d(1, buf, 0, 2048);
  ms::rt::CompiledGraph cg = g.compile(ctx);

  cg.launch(ctx);
  ctx.stream(1).synchronize();
  ctx.stream(2).enqueue_h2d(buf, 0, 2048);
  ctx.synchronize();

  ctx.wait(cg.launch(ctx));
  ctx.stream(2).enqueue_h2d(buf, 0, 2048);
  ctx.synchronize();
  EXPECT_GT(capture.result().nodes_analyzed, 0u);
  EXPECT_TRUE(capture.clean()) << ms::analyze::text_report(capture.result());
}

// --- the one scope ----------------------------------------------------------

/// Build a context on this thread, race on it and drain it.
void run_racy() {
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  enqueue_racy(ctx, ctx.create_virtual_buffer(4096));
  ctx.synchronize();
}

TEST(CaptureScope, InnermostWinsAndTheOuterIsRestored) {
  Capture outer;
  {
    Capture inner;
    run_racy();
    EXPECT_EQ(inner.result().nodes_analyzed, 2u);
    EXPECT_FALSE(inner.clean());
  }
  // The outer Capture recorded nothing from inside the inner one ...
  EXPECT_EQ(outer.result().nodes_analyzed, 0u);
  EXPECT_TRUE(outer.clean());
  // ... and observes the contexts built after it.
  run_racy();
  EXPECT_EQ(outer.result().nodes_analyzed, 2u);
  EXPECT_FALSE(outer.clean());
}

TEST(CaptureScope, ContextOnAnotherThreadIsNotObserved) {
  Capture capture;
  std::thread worker(run_racy);
  worker.join();
  EXPECT_EQ(capture.result().nodes_analyzed, 0u);
  EXPECT_TRUE(capture.clean());
}

TEST(CaptureScope, ContextBuiltBeforeTheCaptureIsNotObserved) {
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(4096);
  Capture capture;
  enqueue_racy(ctx, buf);
  ctx.synchronize();
  EXPECT_EQ(capture.result().nodes_analyzed, 0u);
  EXPECT_TRUE(capture.clean());
}

TEST(CaptureScope, LintsOnlyWhenConstructedTo) {
  Capture hazards_only;
  run_racy();
  EXPECT_FALSE(hazards_only.linting());
  EXPECT_EQ(hazards_only.lint().nodes(), 0u);
  EXPECT_EQ(hazards_only.lint().segments(), 0u);

  Capture linting(/*lint=*/true);
  run_racy();
  EXPECT_TRUE(linting.linting());
  EXPECT_EQ(linting.result().nodes_analyzed, 2u);
  EXPECT_EQ(linting.lint().nodes(), 2u);
  EXPECT_GT(linting.lint().segments(), 0u);
}

/// A tuner metric that validates its candidate as KnnTuner::train does: the
/// evaluation runs under its own Capture, and a hazardous pipeline scores
/// +infinity, which Tuner::search skips. Candidate tiles==1 runs a racy
/// pipeline (fastest, were it trusted), the rest a clean one.
double validated_metric(ms::rt::Tuner::Candidate c, bool all_racy = false) {
  Capture capture;
  {
    ms::rt::Context ctx(small_cfg());
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    if (all_racy || c.tiles == 1) {
      enqueue_racy(ctx, buf);
    } else {
      const auto ev = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
      ctx.stream(1).enqueue_h2d(buf, 0, 4096, {ev});
    }
    ctx.synchronize();
  }
  return capture.clean() ? static_cast<double>(c.tiles)
                         : std::numeric_limits<double>::infinity();
}

TEST(TunerValidated, SkipsHazardousCandidates) {
  // The racy candidate must be excluded (and counted) even though it is
  // fastest, whether the candidates run serially or on the sweep pool (one
  // Capture per worker thread).
  const std::vector<ms::rt::Tuner::Candidate> space{{1, 1}, {1, 2}, {1, 4}};
  const auto metric = [](ms::rt::Tuner::Candidate c) { return validated_metric(c); };

  const auto serial = ms::rt::Tuner::search(space, metric);
  EXPECT_EQ(serial.evaluated, 3u);
  EXPECT_EQ(serial.rejected, 1u);
  EXPECT_EQ(serial.best.tiles, 2);

  const auto pooled = ms::rt::Tuner::search(space, metric, {.sweep = {.threads = 3}});
  EXPECT_EQ(pooled.rejected, serial.rejected);
  EXPECT_EQ(pooled.best.tiles, serial.best.tiles);
  EXPECT_EQ(pooled.best_metric, serial.best_metric);
}

TEST(TunerValidated, ThrowsWhenEveryCandidateIsHazardous) {
  const std::vector<ms::rt::Tuner::Candidate> space{{1, 1}, {1, 2}};
  const auto metric = [](ms::rt::Tuner::Candidate c) { return validated_metric(c, true); };
  EXPECT_THROW((void)ms::rt::Tuner::search(space, metric), ms::rt::Error);
  EXPECT_THROW((void)ms::rt::Tuner::search(space, metric, {.sweep = {.threads = 2}}),
               ms::rt::Error);
}

}  // namespace
