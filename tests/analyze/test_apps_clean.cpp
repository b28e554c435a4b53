// Clean-graph negatives: the ported applications, run under an
// analyze::Capture at small sizes, must produce zero hazards. (That the
// analyzer moves no virtual time or checksum is the passivity harness's
// analysis knob, test_passivity.cpp.)

#include <gtest/gtest.h>

#include "analyze/capture.hpp"
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
#include "sim/sim_config.hpp"

namespace {

using ms::analyze::Capture;

ms::sim::SimConfig cfg() { return ms::sim::SimConfig::phi_31sp(); }

template <typename Fn>
ms::apps::AppResult expect_clean(Fn&& run) {
  Capture capture;
  ms::apps::AppResult r = run();
  EXPECT_TRUE(capture.clean()) << ms::analyze::text_report(capture.result());
  return r;
}

TEST(AppsClean, Mm) {
  ms::apps::MmConfig mc;
  mc.dim = 128;
  mc.tile_grid = 2;
  expect_clean([&] { return ms::apps::MmApp::run(cfg(), mc); });
}

TEST(AppsClean, Nn) {
  ms::apps::NnConfig nc;
  nc.records = 1u << 12;
  nc.tiles = 4;
  expect_clean([&] { return ms::apps::NnApp::run(cfg(), nc); });
}

TEST(AppsClean, Kmeans) {
  ms::apps::KmeansConfig kc;
  kc.points = 2048;
  kc.dims = 4;
  kc.iterations = 3;
  kc.tiles = 4;
  expect_clean([&] { return ms::apps::KmeansApp::run(cfg(), kc); });
}

TEST(AppsClean, KmeansGraphReplay) {
  ms::apps::KmeansConfig kc;
  kc.points = 2048;
  kc.dims = 4;
  kc.iterations = 3;
  kc.tiles = 4;
  kc.common.graph = ms::apps::GraphMode::Compiled;
  expect_clean([&] { return ms::apps::KmeansApp::run(cfg(), kc); });
}

TEST(AppsClean, KmeansAsync) {
  ms::apps::KmeansConfig kc;  // the async port shares the k-means knobs
  kc.points = 2048;
  kc.dims = 4;
  kc.iterations = 4;
  kc.tiles = 4;
  expect_clean([&] { return ms::apps::KmeansAsyncApp::run(cfg(), kc); });
}

TEST(AppsClean, Hotspot) {
  ms::apps::HotspotConfig hc;
  hc.rows = hc.cols = 64;
  hc.tile_rows = hc.tile_cols = 32;
  hc.steps = 3;
  expect_clean([&] { return ms::apps::HotspotApp::run(cfg(), hc); });
}

TEST(AppsClean, Srad) {
  ms::apps::SradConfig sc;
  sc.rows = sc.cols = 64;
  sc.tile_rows = sc.tile_cols = 32;
  sc.iterations = 3;
  expect_clean([&] { return ms::apps::SradApp::run(cfg(), sc); });
}

TEST(AppsClean, Cf) {
  ms::apps::CfConfig cc;
  cc.dim = 128;
  cc.tile = 64;
  expect_clean([&] { return ms::apps::CfApp::run(cfg(), cc); });
}

TEST(AppsClean, Lu) {
  ms::apps::LuConfig lc;
  lc.dim = 128;
  lc.tile = 64;
  expect_clean([&] { return ms::apps::LuApp::run(cfg(), lc); });
}

TEST(AppsClean, CfMultiDevice) {
  // Cross-device tile replication goes through host staging; the coherence
  // layer must order those host-range writes too.
  ms::apps::CfConfig cc;
  cc.dim = 128;
  cc.tile = 32;
  expect_clean([&] { return ms::apps::CfApp::run(ms::sim::SimConfig::phi_31sp_x2(), cc); });
}

TEST(AppsClean, LuMultiDevice) {
  ms::apps::LuConfig lc;
  lc.dim = 128;
  lc.tile = 32;
  expect_clean([&] { return ms::apps::LuApp::run(ms::sim::SimConfig::phi_31sp_x2(), lc); });
}

TEST(AppsClean, HbenchFigures) {
  Capture capture;
  (void)ms::apps::HBench::transfer_pattern(cfg(), 4, 4, 1u << 16);
  (void)ms::apps::HBench::overlap(cfg(), 1u << 14, 4, 2, 4);
  (void)ms::apps::HBench::spatial(cfg(), 2, 4, 4, 1u << 14);
  (void)ms::apps::HBench::spatial_ref(cfg(), 4, 1u << 14);
  EXPECT_TRUE(capture.clean()) << ms::analyze::text_report(capture.result());
}

}  // namespace
