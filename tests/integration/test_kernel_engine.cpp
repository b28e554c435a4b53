// Integration contract of the kernel execution engine (kern::par):
//
//  * Virtual time comes from the cost model alone — running the functional
//    kernels serially vs. parallel must not move a single virtual-time bit,
//    and every checksum must match bit-for-bit too (the engine's fixed
//    decomposition + fixed reduction at work through whole applications).
//  * The engine nests inside the sweep layer: a parallel_map over sweep
//    points whose jobs launch parallel kernels (the shape that used to
//    deadlock the shared pool) produces the same numbers as a serial sweep.
//  * The Fig. 8 small-grid suite: every ported app, streamed vs. the
//    "w/o streams" baseline, functional, at sizes where the kernels carry
//    real work — the two ports must agree on results.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"
#include "kern/par.hpp"
#include "sim/sweep.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

/// Runs `App` on `c`, traced, once with the engine forced serial and once
/// with the default worker count; virtual time, checksum and span count
/// must be bit-equal.
template <typename App, typename Config>
void expect_engine_invariant(Config c, const char* label) {
  c.common.tracing = true;
  AppResult serial, parallel;
  {
    kern::par::ThreadScope scope(1);
    serial = App::run(cfg(), c);
  }
  parallel = App::run(cfg(), c);
  EXPECT_DOUBLE_EQ(serial.ms, parallel.ms) << label << ": virtual time moved";
  EXPECT_DOUBLE_EQ(serial.checksum, parallel.checksum) << label << ": checksum moved";
  EXPECT_GT(serial.timeline.size(), 0u) << label;
  EXPECT_EQ(serial.timeline.size(), parallel.timeline.size()) << label;
}

TEST(KernelEngine, Fig9aVirtualTimesUnchangedByParallelKernels) {
  // Fig. 9(a)-shaped partition sweep of the MM app: the curve must be the
  // same, point for point, whether kernels execute serially or on the engine.
  for (const int partitions : {1, 2, 4, 7}) {
    MmConfig mc;
    mc.dim = 96;
    mc.tile_grid = 2;
    mc.common.partitions = partitions;
    expect_engine_invariant<MmApp>(mc, "mm");
  }
}

TEST(KernelEngine, VirtualTimesUnchangedAcrossApps) {
  HotspotConfig hc;
  hc.rows = hc.cols = 96;
  hc.tile_rows = hc.tile_cols = 48;
  hc.steps = 3;
  expect_engine_invariant<HotspotApp>(hc, "hotspot");

  SradConfig sc;
  sc.rows = sc.cols = 64;
  sc.tile_rows = sc.tile_cols = 32;
  sc.iterations = 2;
  expect_engine_invariant<SradApp>(sc, "srad");

  NnConfig nc;
  nc.records = 4096;
  nc.tiles = 4;
  expect_engine_invariant<NnApp>(nc, "nn");

  KmeansConfig kc;
  kc.points = 2000;
  kc.dims = 8;
  kc.clusters = 4;
  kc.iterations = 3;
  kc.tiles = 2;
  expect_engine_invariant<KmeansApp>(kc, "kmeans");
}

TEST(KernelEngine, ParallelSweepOverParallelKernelsMatchesSerial) {
  // Sweep jobs that launch parallel kernels: the nested shape. Results must
  // equal a serial sweep with serial kernels, bit for bit.
  const std::vector<int> partitions{1, 2, 3, 5};
  auto point = [&](std::size_t i) {
    MmConfig mc;
    mc.dim = 64;
    mc.tile_grid = 2;
    mc.common.partitions = partitions[i];
    const AppResult r = MmApp::run(cfg(), mc);
    return std::pair<double, double>{r.ms, r.checksum};
  };

  std::vector<std::pair<double, double>> serial(partitions.size());
  {
    kern::par::ThreadScope scope(1);
    for (std::size_t i = 0; i < partitions.size(); ++i) serial[i] = point(i);
  }
  const auto swept = sim::parallel_map<std::pair<double, double>>(partitions.size(), point);
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].first, swept[i].first) << "P=" << partitions[i];
    EXPECT_DOUBLE_EQ(serial[i].second, swept[i].second) << "P=" << partitions[i];
  }
}

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
