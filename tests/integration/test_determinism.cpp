// The whole point of a virtual-time simulator: identical inputs give
// identical outputs — timings AND functional results — across repeated runs
// and regardless of unrelated configuration.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/cf_app.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/lu_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

TEST(Determinism, MmIsBitStable) {
  MmConfig mc;
  mc.dim = 64;
  mc.tile_grid = 2;
  const auto a = MmApp::run(cfg(), mc);
  const auto b = MmApp::run(cfg(), mc);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.timeline.size(), b.timeline.size());
}

TEST(Determinism, CfIsBitStable) {
  CfConfig cc;
  cc.dim = 48;
  cc.tile = 16;
  const auto a = CfApp::run(cfg(), cc);
  const auto b = CfApp::run(cfg(), cc);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(Determinism, KmeansIsBitStable) {
  KmeansConfig kc;
  kc.points = 500;
  kc.dims = 4;
  kc.clusters = 3;
  kc.iterations = 3;
  kc.tiles = 2;
  const auto a = KmeansApp::run(cfg(), kc);
  const auto b = KmeansApp::run(cfg(), kc);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(Determinism, HotspotIsBitStable) {
  HotspotConfig hc;
  hc.rows = hc.cols = 32;
  hc.tile_rows = hc.tile_cols = 16;
  hc.steps = 3;
  const auto a = HotspotApp::run(cfg(), hc);
  const auto b = HotspotApp::run(cfg(), hc);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(Determinism, NnIsBitStable) {
  NnConfig nc;
  nc.records = 1000;
  nc.tiles = 4;
  const auto a = NnApp::run(cfg(), nc);
  const auto b = NnApp::run(cfg(), nc);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(Determinism, SradIsBitStable) {
  SradConfig sc;
  sc.rows = sc.cols = 32;
  sc.tile_rows = sc.tile_cols = 16;
  sc.iterations = 2;
  const auto a = SradApp::run(cfg(), sc);
  const auto b = SradApp::run(cfg(), sc);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(Determinism, TimingOnlyAndFunctionalAgreeOnVirtualTime) {
  // The cost model must not depend on whether kernels actually execute.
  MmConfig mc;
  mc.dim = 96;
  mc.tile_grid = 3;
  mc.common.functional = true;
  const auto fun = MmApp::run(cfg(), mc);
  mc.common.functional = false;
  const auto tim = MmApp::run(cfg(), mc);
  EXPECT_DOUBLE_EQ(fun.ms, tim.ms);
}

TEST(Determinism, UnrelatedTracingDoesNotChangeTiming) {
  // Tracing is observational only.
  rt::Context with(cfg());
  rt::Context without(cfg());
  without.set_tracing(false);
  const auto buf_a = with.create_virtual_buffer(1 << 20);
  const auto buf_b = without.create_virtual_buffer(1 << 20);
  with.stream(0).enqueue_h2d(buf_a, 0, 1 << 20);
  without.stream(0).enqueue_h2d(buf_b, 0, 1 << 20);
  with.synchronize();
  without.synchronize();
  EXPECT_DOUBLE_EQ((with.host_time() - without.host_time()).micros(), 0.0);
}

// ---------------------------------------------------------------------------
// Multi-card coverage: every app, run twice at 1, 2 and 3 devices, must give
// bit-identical virtual time, checksum and span count. Cross-card joins
// (CF/LU tile relays, KMeans reductions) are where a scheduling order bug
// would surface as run-to-run drift.
// ---------------------------------------------------------------------------

sim::SimConfig cards(int devices) {
  sim::SimConfig c = sim::SimConfig::phi_31sp();
  c.num_devices = devices;
  return c;
}

AppResult run_small(const std::string& app, int devices, GraphMode graph) {
  CommonConfig common;
  common.graph = graph;
  if (app == "mm") {
    MmConfig c;
    c.common = common;
    c.dim = 256;
    c.tile_grid = 4;
    return MmApp::run(cards(devices), c);
  }
  if (app == "cf") {
    CfConfig c;
    c.common = common;
    c.dim = 96;
    c.tile = 16;
    return CfApp::run(cards(devices), c);
  }
  if (app == "lu") {
    LuConfig c;
    c.common = common;
    c.dim = 128;
    c.tile = 32;
    return LuApp::run(cards(devices), c);
  }
  if (app == "kmeans") {
    KmeansConfig c;
    c.common = common;
    c.points = 2000;
    c.dims = 8;
    c.clusters = 4;
    c.iterations = 3;
    c.tiles = 4;
    return KmeansApp::run(cards(devices), c);
  }
  if (app == "hotspot") {
    HotspotConfig c;
    c.common = common;
    c.rows = c.cols = 64;
    c.tile_rows = c.tile_cols = 16;
    c.steps = 3;
    return HotspotApp::run(cards(devices), c);
  }
  if (app == "nn") {
    NnConfig c;
    c.common = common;
    c.records = 2000;
    c.tiles = 4;
    return NnApp::run(cards(devices), c);
  }
  SradConfig c;
  c.common = common;
  c.rows = c.cols = 64;
  c.tile_rows = c.tile_cols = 16;
  c.iterations = 3;
  return SradApp::run(cards(devices), c);
}

class MultiCardDeterminism : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MultiCardDeterminism, RepeatedRunsAreBitStable) {
  const auto& [app, devices] = GetParam();
  const AppResult a = run_small(app, devices, GraphMode::Direct);
  const AppResult b = run_small(app, devices, GraphMode::Direct);
  EXPECT_GT(a.ms, 0.0);
  EXPECT_DOUBLE_EQ(a.ms, b.ms);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.timeline.size(), b.timeline.size());
}

INSTANTIATE_TEST_SUITE_P(
    Apps, MultiCardDeterminism,
    ::testing::Combine(::testing::Values("mm", "cf", "lu", "kmeans", "hotspot", "nn", "srad"),
                       ::testing::Values(1, 2, 3)),
    [](const auto& p) {
      return std::get<0>(p.param) + "_" + std::to_string(std::get<1>(p.param)) + "dev";
    });

// Compiled-graph replay spreads its batches across cards: repeated replays
// must be bit-stable on every card count, and the functional result must
// match direct issue (replay pricing may move virtual time, data may not).
TEST(Determinism, MmCompiledReplayIsBitStableOnEveryCardCount) {
  for (int devices : {1, 2, 3}) {
    const AppResult a = run_small("mm", devices, GraphMode::Compiled);
    const AppResult b = run_small("mm", devices, GraphMode::Compiled);
    const AppResult direct = run_small("mm", devices, GraphMode::Direct);
    EXPECT_DOUBLE_EQ(a.ms, b.ms) << "devices=" << devices;
    EXPECT_DOUBLE_EQ(a.checksum, b.checksum) << "devices=" << devices;
    EXPECT_EQ(a.timeline.size(), b.timeline.size()) << "devices=" << devices;
    EXPECT_DOUBLE_EQ(a.checksum, direct.checksum) << "devices=" << devices;
  }
}

}  // namespace
}  // namespace ms::apps
