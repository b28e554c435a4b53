// The Fig. 8 small-grid suite: every ported app, streamed vs. the "w/o
// streams" baseline, functional, at sizes where the kernels carry real work
// -- the two ports must agree on results. (That kernel threads and sweep
// workers move no virtual time or checksum is the passivity harness's
// kthreads and placement knobs, test_passivity.cpp.)

#include <gtest/gtest.h>

#include <cmath>

#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"
#include "sim/sim_config.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

// --- Fig. 8 small-grid functional suite -----------------------------------
// Streamed vs. non-streamed ports must compute the same answers. Sizes are
// chosen so the functional kernels do real work (several engine blocks for
// MM) while the whole suite stays test-suite fast.

TEST(KernelEngine, Fig8SmallGridMm) {
  MmConfig mc;
  mc.dim = 256;
  mc.tile_grid = 2;
  const auto streamed = MmApp::run(cfg(), mc);
  mc.common.streamed = false;
  const auto baseline = MmApp::run(cfg(), mc);
  EXPECT_NEAR(streamed.checksum, baseline.checksum,
              1e-9 * std::abs(baseline.checksum));
}

TEST(KernelEngine, Fig8SmallGridHotspot) {
  HotspotConfig hc;
  hc.rows = hc.cols = 128;
  hc.tile_rows = hc.tile_cols = 64;
  hc.steps = 5;
  const auto streamed = HotspotApp::run(cfg(), hc);
  hc.common.streamed = false;
  const auto baseline = HotspotApp::run(cfg(), hc);
  // The step update is tiling-exact (same expression on every path).
  EXPECT_DOUBLE_EQ(streamed.checksum, baseline.checksum);
}

TEST(KernelEngine, Fig8SmallGridNn) {
  NnConfig nc;
  nc.records = 1u << 15;
  nc.tiles = 8;
  const auto streamed = NnApp::run(cfg(), nc);
  nc.common.streamed = false;
  const auto baseline = NnApp::run(cfg(), nc);
  // Top-k merge is exact regardless of chunking.
  EXPECT_DOUBLE_EQ(streamed.checksum, baseline.checksum);
}

TEST(KernelEngine, Fig8SmallGridKmeans) {
  KmeansConfig kc;
  kc.points = 6000;
  kc.dims = 16;
  kc.clusters = 6;
  kc.iterations = 5;
  kc.tiles = 4;
  const auto streamed = KmeansApp::run(cfg(), kc);
  kc.common.streamed = false;
  const auto baseline = KmeansApp::run(cfg(), kc);
  EXPECT_NEAR(streamed.checksum, baseline.checksum, 1e-4 * std::abs(baseline.checksum));
}

TEST(KernelEngine, Fig8SmallGridSrad) {
  SradConfig sc;
  sc.rows = sc.cols = 128;
  sc.tile_rows = sc.tile_cols = 64;
  sc.iterations = 4;
  const auto streamed = SradApp::run(cfg(), sc);
  sc.common.streamed = false;
  const auto baseline = SradApp::run(cfg(), sc);
  EXPECT_NEAR(streamed.checksum, baseline.checksum, 1e-4 * std::abs(baseline.checksum));
}

}  // namespace
}  // namespace ms::apps
