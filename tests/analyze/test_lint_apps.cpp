// App-level linter coverage: the ported applications run under a LintCapture
// at small sizes and must come out clean (nn's transfer-bound duplex finding
// is the one designed exception), the critical-path bound must hold against
// the simulated time at 1..3 devices, linting must not perturb results,
// compiled replays are linted like direct enqueues, and the tuner exposure
// must pre-prune.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/capture.hpp"
#include "analyze/perf_lint.hpp"
#include "analyze/report.hpp"
#include "apps/cf_app.hpp"
#include "apps/hbench.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/kmeans_async_app.hpp"
#include "apps/lu_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tuner.hpp"
#include "sim/sim_config.hpp"

namespace {

using ms::analyze::Capture;
using ms::analyze::LintCapture;
namespace rule = ms::analyze::rule;

ms::sim::SimConfig cfg() { return ms::sim::SimConfig::phi_31sp(); }

ms::sim::SimConfig cfg_n(int devices) {
  ms::sim::SimConfig c = ms::sim::SimConfig::phi_31sp();
  c.num_devices = devices;
  return c;
}

/// Run under both analyzers: hazards must stay clean (the linter's ordering
/// rules assume that), the lint findings and bound checks are the caller's.
template <typename Fn>
ms::apps::AppResult run_linted(LintCapture& capture, Fn&& run) {
  Capture hazards;
  ms::apps::AppResult r = run();
  EXPECT_TRUE(hazards.clean()) << ms::analyze::text_report(hazards.result());
  return r;
}

/// Clean app + sound bound: no findings, and the summed per-segment makespan
/// lower bound never exceeds the summed simulated segment time.
template <typename Fn>
void expect_lint_clean(Fn&& run) {
  LintCapture capture;
  (void)run_linted(capture, run);
  EXPECT_TRUE(capture.clean()) << ms::analyze::text_report(capture);
  ASSERT_GT(capture.segments(), 0u);
  EXPECT_GT(capture.bound().micros(), 0.0);
  EXPECT_LE(capture.bound().micros(), capture.elapsed().micros());
  const double eff = capture.overlap_efficiency();
  EXPECT_GT(eff, 0.0);
  EXPECT_LE(eff, 1.0);
}

TEST(LintApps, Mm) {
  ms::apps::MmConfig mc;
  mc.dim = 128;
  mc.tile_grid = 2;
  expect_lint_clean([&] { return ms::apps::MmApp::run(cfg(), mc); });
}

TEST(LintApps, Kmeans) {
  ms::apps::KmeansConfig kc;
  kc.points = 2048;
  kc.dims = 4;
  kc.iterations = 3;
  kc.tiles = 4;
  expect_lint_clean([&] { return ms::apps::KmeansApp::run(cfg(), kc); });
}

TEST(LintApps, KmeansAsync) {
  ms::apps::KmeansConfig kc;
  kc.points = 2048;
  kc.dims = 4;
  kc.iterations = 4;
  kc.tiles = 4;
  expect_lint_clean([&] { return ms::apps::KmeansAsyncApp::run(cfg(), kc); });
}

TEST(LintApps, Hotspot) {
  ms::apps::HotspotConfig hc;
  hc.rows = hc.cols = 64;
  hc.tile_rows = hc.tile_cols = 32;
  hc.steps = 3;
  expect_lint_clean([&] { return ms::apps::HotspotApp::run(cfg(), hc); });
}

TEST(LintApps, Srad) {
  ms::apps::SradConfig sc;
  sc.rows = sc.cols = 64;
  sc.tile_rows = sc.tile_cols = 32;
  sc.iterations = 3;
  expect_lint_clean([&] { return ms::apps::SradApp::run(cfg(), sc); });
}

TEST(LintApps, Cf) {
  ms::apps::CfConfig cc;
  cc.dim = 128;
  cc.tile = 64;
  expect_lint_clean([&] { return ms::apps::CfApp::run(cfg(), cc); });
}

TEST(LintApps, Lu) {
  ms::apps::LuConfig lc;
  lc.dim = 128;
  lc.tile = 64;
  expect_lint_clean([&] { return ms::apps::LuApp::run(cfg(), lc); });
}

TEST(LintApps, Nn) {
  // NN streams records up and distances back concurrently: it is genuinely
  // transfer-bound in both directions, so duplex-serialization is a true
  // positive by design (the CI waiver list carries it). Nothing else may
  // fire, and the bound must still hold.
  ms::apps::NnConfig nc;
  nc.records = 1u << 16;
  nc.tiles = 4;
  LintCapture capture;
  (void)run_linted(capture, [&] { return ms::apps::NnApp::run(cfg(), nc); });
  for (const ms::analyze::LintFinding& f : capture.findings()) {
    EXPECT_EQ(f.rule, rule::kDuplexSerialization) << f.message;
  }
  EXPECT_LE(capture.bound().micros(), capture.elapsed().micros());
}

TEST(LintApps, MultiDeviceCleanAndBounded) {
  for (const int devices : {2, 3}) {
    ms::apps::CfConfig cc;
    cc.dim = 128;
    cc.tile = 32;
    LintCapture capture;
    (void)run_linted(capture, [&] { return ms::apps::CfApp::run(cfg_n(devices), cc); });
    EXPECT_TRUE(capture.clean()) << ms::analyze::text_report(capture);
    EXPECT_EQ(capture.devices().size(), static_cast<std::size_t>(devices));
    EXPECT_LE(capture.bound().micros(), capture.elapsed().micros());
  }
}

TEST(LintApps, LuMultiDevice) {
  ms::apps::LuConfig lc;
  lc.dim = 128;
  lc.tile = 32;
  expect_lint_clean([&] { return ms::apps::LuApp::run(ms::sim::SimConfig::phi_31sp_x2(), lc); });
}

TEST(LintApps, BaselineKmeansIsSingleStreamPipeline) {
  // The non-streamed port is the paper's baseline anti-pattern: everything
  // on one stream, one H2D->EXE->D2H round per iteration.
  ms::apps::KmeansConfig kc;
  kc.points = 2048;
  kc.dims = 4;
  kc.iterations = 3;
  kc.common.streamed = false;
  LintCapture capture;
  (void)run_linted(capture, [&] { return ms::apps::KmeansApp::run(cfg(), kc); });
  ASSERT_FALSE(capture.clean());
  bool pipeline = false;
  for (const ms::analyze::LintFinding& f : capture.findings()) {
    pipeline = pipeline || f.rule == rule::kSingleStreamPipeline;
  }
  EXPECT_TRUE(pipeline) << ms::analyze::text_report(capture);
}

TEST(LintApps, HbenchDuplexPatternIsFlagged) {
  // Fig. 5's mixed pattern: both directions at once on separate streams.
  LintCapture capture;
  Capture hazards;
  (void)ms::apps::HBench::transfer_pattern(cfg(), 8, 8, 1u << 20);
  ASSERT_FALSE(capture.clean());
  for (const ms::analyze::LintFinding& f : capture.findings()) {
    EXPECT_EQ(f.rule, rule::kDuplexSerialization) << f.message;
  }
}

TEST(LintApps, LintingDoesNotPerturbResults) {
  // Virtual times and checksums must be bit-identical with the linter on
  // (LintCapture installed) and off — linting is entirely passive.
  ms::apps::KmeansConfig kc;
  kc.points = 2048;
  kc.dims = 4;
  kc.iterations = 3;
  kc.tiles = 4;
  ms::apps::SradConfig sc;
  sc.rows = sc.cols = 64;
  sc.tile_rows = sc.tile_cols = 32;
  sc.iterations = 3;

  const auto km_off = ms::apps::KmeansApp::run(cfg(), kc);
  const auto srad_off = ms::apps::SradApp::run(cfg(), sc);
  ms::apps::AppResult km_on, srad_on;
  {
    LintCapture capture;
    km_on = ms::apps::KmeansApp::run(cfg(), kc);
    srad_on = ms::apps::SradApp::run(cfg(), sc);
    EXPECT_TRUE(capture.clean()) << ms::analyze::text_report(capture);
  }
  EXPECT_EQ(km_on.ms, km_off.ms);
  EXPECT_EQ(km_on.checksum, km_off.checksum);
  EXPECT_EQ(srad_on.ms, srad_off.ms);
  EXPECT_EQ(srad_on.checksum, srad_off.checksum);
}

// --- Compiled replay ----------------------------------------------------------

/// Findings of one compile-and-replay of `build`'s graph under a LintCapture.
template <typename Build>
std::vector<ms::analyze::LintFinding> replay_findings(Build&& build) {
  LintCapture capture;
  {
    ms::rt::Context ctx(cfg());
    ctx.setup(4);
    const ms::rt::BufferId buf = ctx.create_virtual_buffer(1u << 20);
    const ms::rt::Graph g = build(buf);
    g.compile(ctx).launch(ctx);
    ctx.synchronize();
  }
  return capture.findings();
}

bool has_rule(const std::vector<ms::analyze::LintFinding>& findings, std::string_view id) {
  for (const ms::analyze::LintFinding& f : findings) {
    if (f.rule == id) return true;
  }
  return false;
}

TEST(LintReplay, CleanGraphReportsNothing) {
  const auto findings = replay_findings([](ms::rt::BufferId buf) {
    ms::rt::Graph g;
    const auto up = g.add_h2d(0, buf, 0, 1u << 20);
    ms::rt::KernelLaunch launch;
    launch.label = "consume";
    launch.work.elems = 1 << 18;
    launch.reads(buf, 0, 1u << 20);
    const auto k = g.add_kernel(1, std::move(launch), {up});
    g.add_d2h(2, buf, 0, 1u << 20, {k});
    return g;
  });
  EXPECT_TRUE(findings.empty()) << findings.front().message;
}

TEST(LintReplay, RedundantUploadIsReported) {
  const auto findings = replay_findings([](ms::rt::BufferId buf) {
    ms::rt::Graph g;
    g.add_h2d(0, buf, 0, 1u << 20);
    g.add_h2d(0, buf, 0, 1u << 20);  // nothing changed in between
    return g;
  });
  EXPECT_TRUE(has_rule(findings, rule::kRedundantH2D));
}

// --- Tuner exposure ----------------------------------------------------------

TEST(LintTuner, SpeclessOverloadStillEvaluatesEverything) {
  using ms::rt::Tuner;
  const std::vector<Tuner::Candidate> candidates = {{3, 3}, {2, 2}};
  const auto metric = [](Tuner::Candidate c) { return static_cast<double>(c.partitions); };
  const Tuner::Result r = Tuner::search(candidates, metric, {.validate = true});
  EXPECT_EQ(r.evaluated, 2u);
  EXPECT_EQ(r.best.partitions, 2);
}

}  // namespace
