// The whole point of a virtual-time simulator: identical inputs give
// identical outputs — timings AND functional results — across repeated runs
// and regardless of unrelated configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analyze/capture.hpp"
#include "analyze/perf_lint.hpp"
#include "apps/registry.hpp"

namespace ms::apps {
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

TEST(Determinism, TimingOnlyAndFunctionalAgreeOnVirtualTime) {
  // The cost model must not depend on whether kernels actually execute.
  CommonConfig common;
  common.functional = true;
  const auto fun = find_app("mm")->run(cards(), common, {9, 96});
  common.functional = false;
  const auto tim = find_app("mm")->run(cards(), common, {9, 96});
  EXPECT_DOUBLE_EQ(fun.ms, tim.ms);
}

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
  // Observers are observational only: no observer, the timeline, the hazard
  // analyzer and the timeline beside the linter give bit-identical virtual
  // time and results.
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

  for (const std::string& app : app_names()) {
    const AppResult bare = run_at_small_size(app, 1, GraphMode::Direct, /*tracing=*/false);
    const AppResult timeline = run_at_small_size(app, 1, GraphMode::Direct);
    AppResult analyzed;
    {
      const analyze::Capture capture;
      analyzed = run_at_small_size(app, 1, GraphMode::Direct, /*tracing=*/false);
      EXPECT_TRUE(capture.clean()) << app;
    }
    AppResult linted;
    {
      const analyze::LintCapture lint;
      linted = run_at_small_size(app, 1, GraphMode::Direct);
      EXPECT_GT(lint.nodes(), 0u) << app;
    }
    EXPECT_TRUE(bare.timeline.empty()) << app;
    EXPECT_GT(timeline.timeline.size(), 0u) << app;
    EXPECT_EQ(linted.timeline.size(), timeline.timeline.size()) << app;
    for (const AppResult* r : std::initializer_list<const AppResult*>{&timeline, &analyzed, &linted}) {
      EXPECT_EQ(r->ms, bare.ms) << app;
      EXPECT_EQ(r->checksum, bare.checksum) << app;
    }
  }
}

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
