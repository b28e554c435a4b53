// The whole point of a virtual-time simulator: identical inputs give
// identical outputs — timings AND functional results — across repeated runs
// and regardless of unrelated configuration. One knob at a time, per app;
// the passivity harness (test_passivity.cpp) varies the knobs together.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analyze/capture.hpp"
#include "analyze/report.hpp"
#include "apps/registry.hpp"
#include "kern/par.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace ms::apps {

/// How gtest prints a GraphMode parameter (found by argument-dependent
/// lookup, so it lives in GraphMode's namespace).
void PrintTo(GraphMode mode, std::ostream* os) {
  *os << (mode == GraphMode::Direct ? "Direct" : "Compiled");
}

namespace {

sim::SimConfig cards(int devices = 1) {
  sim::SimConfig c = sim::SimConfig::phi_31sp();
  c.num_devices = devices;
  return c;
}

/// A functional run that records its timeline, so span counts can compare.
CommonConfig traced() {
  CommonConfig c;
  c.tracing = true;
  return c;
}

/// Run `app` twice at `point` on one card (functional, traced) and require
/// bit-identical virtual time, checksum and span count.
void expect_bit_stable(std::string_view app, const AppPoint& point) {
  const AppResult a = find_app(app)->run(cards(), traced(), point);
  const AppResult b = find_app(app)->run(cards(), traced(), point);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_GT(a.timeline.size(), 0u);
  EXPECT_EQ(a.timeline.size(), b.timeline.size());
}

TEST(Determinism, MmIsBitStable) { expect_bit_stable("mm", {4, 64}); }
TEST(Determinism, CfIsBitStable) { expect_bit_stable("cf", {9, 48}); }
TEST(Determinism, KmeansIsBitStable) { expect_bit_stable("kmeans", {2, 500, 3}); }
TEST(Determinism, HotspotIsBitStable) { expect_bit_stable("hotspot", {4, 32, 3}); }
TEST(Determinism, NnIsBitStable) { expect_bit_stable("nn", {4, 1000}); }
TEST(Determinism, SradIsBitStable) { expect_bit_stable("srad", {4, 32, 2}); }

/// The small case each registry entry runs at.
AppResult run_at_small_size(const std::string& app, int devices, GraphMode graph,
                            bool tracing = true) {
  static const std::map<std::string, AppPoint> small{
      {"mm", {16, 256}},
      {"cf", {36, 96}},
      {"lu", {16, 128}},
      {"kmeans", {4, 2000, 3}},
      {"kmeans-async", {4, 2000, 3}},
      {"hotspot", {16, 64, 3}},
      {"nn", {4, 2000}},
      {"srad", {16, 64, 3}},
  };
  CommonConfig common = traced();
  common.tracing = tracing;
  common.graph = graph;
  return find_app(app)->run(cards(devices), common, small.at(app));
}

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  for (const AppEntry& app : registry()) names.emplace_back(app.name);
  return names;
}

TEST(Determinism, UnrelatedTracingDoesNotChangeTiming) {
  // The timeline is observational only: a traced and an untraced context
  // give bit-identical virtual time, and only the traced one keeps spans.
  rt::Context with(cards());
  rt::Context without(cards());
  with.set_tracing(true);
  const auto buf_a = with.create_virtual_buffer(1 << 20);
  const auto buf_b = without.create_virtual_buffer(1 << 20);
  with.stream(0).enqueue_h2d(buf_a, 0, 1 << 20);
  without.stream(0).enqueue_h2d(buf_b, 0, 1 << 20);
  with.synchronize();
  without.synchronize();
  EXPECT_DOUBLE_EQ((with.host_time() - without.host_time()).micros(), 0.0);
  EXPECT_EQ(with.timeline().size(), 1u);
  EXPECT_TRUE(without.timeline().empty());
}

// ---------------------------------------------------------------------------
// Passivity: every knob that only observes a run (the timeline, the analyzer
// and its linter, metrics recording, the kernel thread count) must leave
// every registry entry's virtual time and checksum bit-identical to the
// all-off run, in both graph modes; traced runs must agree on their spans.
// ---------------------------------------------------------------------------

class Passivity : public ::testing::TestWithParam<std::tuple<std::string, GraphMode>> {};

TEST_P(Passivity, ObserversMetricsAndThreadsLeaveResultsBitIdentical) {
  const auto& [app, graph] = GetParam();
  const auto run = [&](bool tracing) { return run_at_small_size(app, 1, graph, tracing); };
  telemetry::set_enabled(false);
  const AppResult oracle = run(false);
  EXPECT_TRUE(oracle.timeline.empty());

  struct Knobbed {
    const char* knobs;
    bool traced;
    AppResult result;
  };
  std::vector<Knobbed> runs;
  runs.push_back({"timeline", true, run(true)});
  {
    analyze::Capture capture;
    runs.push_back({"capture", false, run(false)});
    EXPECT_TRUE(capture.clean()) << analyze::text_report(capture.result());
  }
  {
    analyze::Capture capture(/*lint=*/true);
    runs.push_back({"linting capture + timeline", true, run(true)});
    EXPECT_GT(capture.lint().nodes(), 0u);
  }
  telemetry::set_enabled(true);
  runs.push_back({"metrics", false, run(false)});
  {
    analyze::Capture capture;
    runs.push_back({"metrics + capture + timeline", true, run(true)});
  }
  telemetry::set_enabled(false);
  telemetry::clear_spans();
  {
    const kern::par::ThreadScope one(1);
    runs.push_back({"one kernel thread", false, run(false)});
  }

  const std::size_t spans = runs.front().result.timeline.size();
  EXPECT_GT(spans, 0u);
  for (const Knobbed& r : runs) {
    EXPECT_EQ(r.result.ms, oracle.ms) << r.knobs;
    EXPECT_EQ(r.result.checksum, oracle.checksum) << r.knobs;
    EXPECT_EQ(r.result.timeline.size(), r.traced ? spans : 0u) << r.knobs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, Passivity,
    ::testing::Combine(::testing::ValuesIn(app_names()),
                       ::testing::Values(GraphMode::Direct, GraphMode::Compiled)),
    [](const auto& p) {
      std::string name = std::get<0>(p.param);
      std::replace(name.begin(), name.end(), '-', '_');  // gtest names allow no '-'
      return name + (std::get<1>(p.param) == GraphMode::Direct ? "_direct" : "_compiled");
    });

// ---------------------------------------------------------------------------
// Multi-card coverage: every registry entry, run twice at 1, 2 and 3
// devices, must give bit-identical virtual time, checksum and span count. Cross-card joins
// (CF/LU tile relays, KMeans reductions) are where a scheduling order bug
// would surface as run-to-run drift.
// ---------------------------------------------------------------------------

class MultiCardDeterminism : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MultiCardDeterminism, RepeatedRunsAreBitStable) {
  const auto& [app, devices] = GetParam();
  const AppResult a = run_at_small_size(app, devices, GraphMode::Direct);
  const AppResult b = run_at_small_size(app, devices, GraphMode::Direct);
  EXPECT_GT(a.ms, 0.0);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_GT(a.timeline.size(), 0u);
  EXPECT_EQ(a.timeline.size(), b.timeline.size());
}

INSTANTIATE_TEST_SUITE_P(
    Apps, MultiCardDeterminism,
    ::testing::Combine(::testing::ValuesIn(app_names()), ::testing::Values(1, 2, 3)),
    [](const auto& p) {
      std::string name = std::get<0>(p.param);
      std::replace(name.begin(), name.end(), '-', '_');  // gtest names allow no '-'
      return name + "_" + std::to_string(std::get<1>(p.param)) + "dev";
    });

// Compiled-graph replay spreads its batches across cards: repeated replays
// must be bit-stable on every card count, and the functional result must
// match direct issue (replay pricing may move virtual time, data may not).
TEST(Determinism, MmCompiledReplayIsBitStableOnEveryCardCount) {
  for (int devices : {1, 2, 3}) {
    const AppResult a = run_at_small_size("mm", devices, GraphMode::Compiled);
    const AppResult b = run_at_small_size("mm", devices, GraphMode::Compiled);
    const AppResult direct = run_at_small_size("mm", devices, GraphMode::Direct);
    EXPECT_DOUBLE_EQ(a.ms, b.ms) << "devices=" << devices;
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum) << "devices=" << devices;
    EXPECT_EQ(a.timeline.size(), b.timeline.size()) << "devices=" << devices;
    EXPECT_DOUBLE_EQ(a.checksum, direct.checksum) << "devices=" << devices;
  }
}

}  // namespace
}  // namespace ms::apps
