// The runtime-facing side of the analyzer: an rt::Context with analysis
// enabled (MS_ANALYZE=1 for abort mode, or an installed Capture for
// collection mode) records every enqueue and reports hazards at
// synchronization points.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>

#include "analyze/capture.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tuner.hpp"
#include "sim/chunk_depot.hpp"
#include "sim/sim_config.hpp"
#include "telemetry/metrics.hpp"

namespace {

using ms::analyze::Capture;
using ms::analyze::HazardError;
using ms::analyze::HazardKind;
using ms::rt::BufferId;
using ms::rt::MemRange;

ms::sim::SimConfig small_cfg() { return ms::sim::SimConfig::phi_31sp(); }

/// MS_ANALYZE=1 for one scope: every Context built inside runs in abort mode.
class ScopedAbortMode {
public:
  ScopedAbortMode() { setenv("MS_ANALYZE", "1", 1); }
  ~ScopedAbortMode() { unsetenv("MS_ANALYZE"); }
  ScopedAbortMode(const ScopedAbortMode&) = delete;
  ScopedAbortMode& operator=(const ScopedAbortMode&) = delete;
};

/// Two streams, overlapping device writes, no ordering edge.
void enqueue_racy(ms::rt::Context& ctx, BufferId buf) {
  ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  ctx.stream(1).enqueue_h2d(buf, 0, 4096);
}

TEST(ContextAnalyze, AbortModeThrowsAtSynchronize) {
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(4096);
  ctx.name_buffer(buf, "racy");
  enqueue_racy(ctx, buf);
  try {
    ctx.synchronize();
    FAIL() << "expected HazardError";
  } catch (const HazardError& e) {
    ASSERT_FALSE(e.analysis().clean());
    EXPECT_EQ(e.analysis().hazards[0].kind, HazardKind::RaceWAW);
    EXPECT_NE(std::string(e.what()).find("racy"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing edge"), std::string::npos);
  }
}

TEST(ContextAnalyze, AbortedContextStaysUsable) {
  // After the throw the recorder's segment is reset: the context can keep
  // enqueueing clean work, and teardown releases every pooled action.
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(4096);
  enqueue_racy(ctx, buf);
  EXPECT_THROW(ctx.synchronize(), HazardError);
  const auto ev = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  ctx.stream(1).enqueue_d2h(buf, 0, 4096, {ev});
  EXPECT_NO_THROW(ctx.synchronize());
}

TEST(ContextAnalyze, AbortPathReleasesPooledActionsToDepot) {
  // Hazard-aborted contexts must hand their pooled Action/state chunks back
  // to the ChunkDepot like clean ones do: after destroying an aborted
  // context, the depot holds parked chunks a fresh context can reuse.
  ms::sim::detail::ChunkDepot::trim();
  {
    const ScopedAbortMode abort_mode;
    ms::rt::Context ctx(small_cfg());
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    enqueue_racy(ctx, buf);
    EXPECT_THROW(ctx.synchronize(), HazardError);
  }
  EXPECT_GT(ms::sim::detail::ChunkDepot::parked_bytes(), 0u);
  {
    // A fresh context runs fine on the recycled chunks.
    ms::rt::Context ctx(small_cfg());
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    const auto ev = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
    ctx.stream(1).enqueue_d2h(buf, 0, 4096, {ev});
    ctx.synchronize();
  }
  ms::sim::detail::ChunkDepot::trim();
  EXPECT_EQ(ms::sim::detail::ChunkDepot::parked_bytes(), 0u);
}

TEST(ContextAnalyze, EnvVarEnablesAnalysis) {
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(4096);
  enqueue_racy(ctx, buf);
  EXPECT_THROW(ctx.synchronize(), HazardError);
}

TEST(ContextAnalyze, EnvVarAcceptsOnlyZeroOrOne) {
  // MS_ANALYZE=false must not switch analysis on (and then throw
  // HazardError at sync points); only "1" does.
  const struct {
    const char* value;
    bool on;
  } cases[] = {{"1", true}, {"false", false}, {"off", false}, {"00", false}};
  for (const auto& c : cases) {
    ASSERT_EQ(setenv("MS_ANALYZE", c.value, 1), 0);
    const ms::rt::Context ctx(small_cfg());
    EXPECT_EQ(ctx.analyzing(), c.on) << "MS_ANALYZE=" << c.value;
  }
  unsetenv("MS_ANALYZE");
}

TEST(ContextAnalyze, OffByDefault) {
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  EXPECT_FALSE(ctx.analyzing());
  const BufferId buf = ctx.create_virtual_buffer(4096);
  enqueue_racy(ctx, buf);
  EXPECT_NO_THROW(ctx.synchronize());
}

TEST(ContextAnalyze, CaptureCollectsInsteadOfThrowing) {
  Capture capture;
  {
    ms::rt::Context ctx(small_cfg());  // analyzing because a Capture is live
    EXPECT_TRUE(ctx.analyzing());
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    enqueue_racy(ctx, buf);
    EXPECT_NO_THROW(ctx.synchronize());
  }
  EXPECT_FALSE(capture.clean());
  EXPECT_EQ(capture.result().hazards[0].kind, HazardKind::RaceWAW);
  EXPECT_FALSE(capture.racy_record().empty());
}

TEST(ContextAnalyze, KernelAccessRangesDriveRaces) {
  const ScopedAbortMode abort_mode;
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
  EXPECT_NO_THROW(ctx.synchronize());

  // One byte of overlap: race.
  ms::rt::KernelLaunch lo2{"lo2", {}, {}, {}};
  lo2.reads_writes(buf, 0, 4097);
  ms::rt::KernelLaunch hi2{"hi2", {}, {}, {}};
  hi2.reads_writes(buf, 4096, 4096);
  ctx.stream(0).enqueue_kernel(std::move(lo2));
  ctx.stream(1).enqueue_kernel(std::move(hi2));
  EXPECT_THROW(ctx.synchronize(), HazardError);
}

TEST(ContextAnalyze, D2hOfUntouchedBufferIsUseBeforeWrite) {
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  const BufferId buf = ctx.create_virtual_buffer(1024);
  ctx.stream(0).enqueue_d2h(buf, 0, 1024);
  try {
    ctx.synchronize();
    FAIL() << "expected HazardError";
  } catch (const HazardError& e) {
    ASSERT_EQ(e.analysis().hazards.size(), 1u);
    EXPECT_EQ(e.analysis().hazards[0].kind, HazardKind::UseBeforeWrite);
  }
}

TEST(ContextAnalyze, AssumeDeviceResidentSuppressesIt) {
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  const BufferId buf = ctx.create_virtual_buffer(1024);
  ctx.assume_device_resident(buf);
  ctx.stream(0).enqueue_d2h(buf, 0, 1024);
  EXPECT_NO_THROW(ctx.synchronize());
}

TEST(ContextAnalyze, StreamSynchronizeIsAnOrderingEdge) {
  // Host blocks on stream 0, then enqueues the overlapping write on stream 1:
  // the host join orders them, so the analyzer must stay quiet.
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(2048);
  ctx.stream(0).enqueue_h2d(buf, 0, 2048);
  ctx.stream(0).synchronize();
  ctx.stream(1).enqueue_h2d(buf, 0, 2048);
  EXPECT_NO_THROW(ctx.synchronize());
}

TEST(ContextAnalyze, ContextWaitIsAnOrderingEdge) {
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(2048);
  const auto ev = ctx.stream(0).enqueue_h2d(buf, 0, 2048);
  ctx.wait(ev);
  ctx.stream(1).enqueue_h2d(buf, 0, 2048);
  EXPECT_NO_THROW(ctx.synchronize());
}

TEST(ContextAnalyze, SetupIsASegmentBoundary) {
  // Re-partitioning requires idle streams, so it is a global barrier: work
  // before and after needs no edges between them.
  const ScopedAbortMode abort_mode;
  ms::rt::Context ctx(small_cfg());
  ctx.setup(2);
  const BufferId buf = ctx.create_virtual_buffer(2048);
  ctx.stream(0).enqueue_h2d(buf, 0, 2048);
  ctx.synchronize();
  ctx.setup(4);
  ctx.stream(3).enqueue_h2d(buf, 0, 2048);
  EXPECT_NO_THROW(ctx.synchronize());
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
  auto& recorded = ms::telemetry::registry().counter(
      "ms_analyze_actions_recorded_total",
      "Transfers, kernels, and barriers captured into action graphs");
  const std::uint64_t before = recorded.value();
  const double analyzed = run(true);
  const std::uint64_t delta = recorded.value() - before;
  ms::telemetry::set_enabled(telemetry_was);
  EXPECT_EQ(delta, 8u * (3u + 1u));
  EXPECT_EQ(analyzed, run(false));
}

TEST(ContextAnalyze, HostWaitsOnCompiledReplayAreOrderingEdges) {
  // Stream::synchronize after a replay joins that stream's newest replayed
  // node, and Context::wait on a launch's returned event joins the
  // completion barrier: each makes the later overlapping upload race-free.
  const ScopedAbortMode abort_mode;
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
  EXPECT_NO_THROW(ctx.synchronize());

  ctx.wait(cg.launch(ctx));
  ctx.stream(2).enqueue_h2d(buf, 0, 2048);
  EXPECT_NO_THROW(ctx.synchronize());
}

TEST(TunerValidated, SkipsHazardousCandidates) {
  const auto cfg = small_cfg();
  // Candidate tiles==1 runs a racy pipeline, the rest a clean one. The racy
  // candidate must be excluded (and counted) even if it is fastest.
  std::vector<ms::rt::Tuner::Candidate> space{{1, 1}, {1, 2}, {1, 4}};
  const auto metric = [&](ms::rt::Tuner::Candidate c) {
    ms::rt::Context ctx(cfg);
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    if (c.tiles == 1) {
      enqueue_racy(ctx, buf);
    } else {
      const auto ev = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
      ctx.stream(1).enqueue_h2d(buf, 0, 4096, {ev});
    }
    ctx.synchronize();
    return static_cast<double>(c.tiles);  // racy candidate would win on time
  };

  const auto serial = ms::rt::Tuner::search(space, metric, {.validate = true});
  EXPECT_EQ(serial.evaluated, 3u);
  EXPECT_EQ(serial.hazardous, 1u);
  EXPECT_EQ(serial.best.tiles, 2);

  const auto sweep = ms::rt::Tuner::search(
      space, metric, {.sweep = ms::sim::SweepOptions{}, .validate = true});
  EXPECT_EQ(sweep.hazardous, serial.hazardous);
  EXPECT_EQ(sweep.best.tiles, serial.best.tiles);
  EXPECT_EQ(sweep.best_metric, serial.best_metric);
}

TEST(TunerValidated, ThrowsWhenEveryCandidateIsHazardous) {
  const auto cfg = small_cfg();
  std::vector<ms::rt::Tuner::Candidate> space{{1, 1}, {1, 2}};
  const auto metric = [&](ms::rt::Tuner::Candidate) {
    ms::rt::Context ctx(cfg);
    ctx.setup(2);
    const BufferId buf = ctx.create_virtual_buffer(4096);
    enqueue_racy(ctx, buf);
    ctx.synchronize();
    return 1.0;
  };
  EXPECT_THROW((void)ms::rt::Tuner::search(space, metric, {.validate = true}), ms::rt::Error);
}

}  // namespace
