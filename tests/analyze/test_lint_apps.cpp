// App-level linter coverage: the ported applications run under a linting
// Capture at small sizes and must come out clean (nn's transfer-bound duplex
// finding is the one designed exception), the critical-path bound must hold
// against the simulated time at 1..3 devices, compiled replays are linted
// like direct enqueues, and the tuner exposure must pre-prune.

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
using ms::analyze::LintTotals;
namespace rule = ms::analyze::rule;

ms::sim::SimConfig cfg() { return ms::sim::SimConfig::phi_31sp(); }

ms::sim::SimConfig cfg_n(int devices) {
  ms::sim::SimConfig c = ms::sim::SimConfig::phi_31sp();
  c.num_devices = devices;
  return c;
}

/// Run under a linting Capture: hazards must stay clean (the linter's
/// ordering rules assume that), the lint findings and bound checks are the
/// caller's.
template <typename Fn>
LintTotals run_linted(Fn&& run) {
  Capture capture(/*lint=*/true);
  (void)run();
  EXPECT_TRUE(capture.clean()) << ms::analyze::text_report(capture.result());
  return capture.lint();
}

/// Clean app + sound bound: no findings, and the summed per-segment makespan
/// lower bound never exceeds the summed simulated segment time.
template <typename Fn>
void expect_lint_clean(Fn&& run) {
  const LintTotals lint = run_linted(run);
  EXPECT_TRUE(lint.clean()) << ms::analyze::text_report(lint);
  ASSERT_GT(lint.segments(), 0u);
  EXPECT_GT(lint.bound().micros(), 0.0);
  EXPECT_LE(lint.bound().micros(), lint.elapsed().micros());
  const double eff = lint.overlap_efficiency();
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
  const LintTotals lint = run_linted([&] { return ms::apps::NnApp::run(cfg(), nc); });
  for (const ms::analyze::LintFinding& f : lint.findings()) {
    EXPECT_EQ(f.rule, rule::kDuplexSerialization) << f.message;
  }
  EXPECT_LE(lint.bound().micros(), lint.elapsed().micros());
}

TEST(LintApps, MultiDeviceCleanAndBounded) {
  for (const int devices : {2, 3}) {
    ms::apps::CfConfig cc;
    cc.dim = 128;
    cc.tile = 32;
    const LintTotals lint =
        run_linted([&] { return ms::apps::CfApp::run(cfg_n(devices), cc); });
    EXPECT_TRUE(lint.clean()) << ms::analyze::text_report(lint);
    EXPECT_EQ(lint.devices().size(), static_cast<std::size_t>(devices));
    EXPECT_LE(lint.bound().micros(), lint.elapsed().micros());
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
  const LintTotals lint = run_linted([&] { return ms::apps::KmeansApp::run(cfg(), kc); });
  ASSERT_FALSE(lint.clean());
  bool pipeline = false;
  for (const ms::analyze::LintFinding& f : lint.findings()) {
    pipeline = pipeline || f.rule == rule::kSingleStreamPipeline;
  }
  EXPECT_TRUE(pipeline) << ms::analyze::text_report(lint);
}

TEST(LintApps, HbenchDuplexPatternIsFlagged) {
  // Fig. 5's mixed pattern: both directions at once on separate streams.
  Capture capture(/*lint=*/true);
  (void)ms::apps::HBench::transfer_pattern(cfg(), 8, 8, 1u << 20);
  ASSERT_FALSE(capture.lint().clean());
  for (const ms::analyze::LintFinding& f : capture.lint().findings()) {
    EXPECT_EQ(f.rule, rule::kDuplexSerialization) << f.message;
  }
}

// --- Compiled replay ----------------------------------------------------------

/// Findings of one compile-and-replay of `build`'s graph under a linting
/// Capture.
template <typename Build>
std::vector<ms::analyze::LintFinding> replay_findings(Build&& build) {
  Capture capture(/*lint=*/true);
  {
    ms::rt::Context ctx(cfg());
    ctx.setup(4);
    const ms::rt::BufferId buf = ctx.create_virtual_buffer(1u << 20);
    const ms::rt::Graph g = build(buf);
    g.compile(ctx).launch(ctx);
    ctx.synchronize();
  }
  return capture.lint().findings();
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
  const Tuner::Result r = Tuner::search(candidates, metric);
  EXPECT_EQ(r.evaluated, 2u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.best.partitions, 2);
}

}  // namespace
