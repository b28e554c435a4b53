// Structural validation of the Fig. 4 execution flows: for each ported
// application, the recorded timeline must exhibit exactly the stage
// structure the paper's flow diagrams draw — which transfers exist, where
// they sit relative to the kernels, and which stages may overlap.

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"
#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

/// A timing-only run that records the timeline every check here reads.
CommonConfig timing(int partitions) {
  CommonConfig c;
  c.partitions = partitions;
  c.functional = false;
  c.tracing = true;
  c.protocol_iterations = 1;
  return c;
}

/// First start / last end of a kind, in ms (requires at least one span).
double first_start(const trace::Timeline& t, trace::SpanKind k) {
  double v = 1e300;
  for (const auto& s : t.spans()) {
    if (s.kind == k) v = std::min(v, s.start.millis());
  }
  return v;
}
double last_end(const trace::Timeline& t, trace::SpanKind k) {
  double v = -1e300;
  for (const auto& s : t.spans()) {
    if (s.kind == k) v = std::max(v, s.end.millis());
  }
  return v;
}

TEST(Fig4Flows, MmIsH2dExeD2hWithAsyncEdges) {
  // Fig. 4(a): H2D -> EXE -> D2H, all edges async (overlappable).
  MmConfig mc;
  mc.common = timing(4);
  mc.dim = 4000;
  mc.tile_grid = 8;
  const auto r = MmApp::run(cfg(), mc);
  const auto& t = r.timeline;
  // 2g band uploads, g^2 kernels, g^2 tile downloads.
  EXPECT_EQ(t.count(trace::SpanKind::H2D), 16u);
  EXPECT_EQ(t.count(trace::SpanKind::Kernel), 64u);
  EXPECT_EQ(t.count(trace::SpanKind::D2H), 64u);
  // Async edges: uploads overlap kernels, kernels overlap downloads.
  EXPECT_GT(t.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel), sim::SimTime::zero());
  EXPECT_GT(t.overlap(trace::SpanKind::D2H, trace::SpanKind::Kernel), sim::SimTime::zero());
}

TEST(Fig4Flows, HotspotHasNoMidLoopTransfers) {
  // Fig. 4(c): one H2D phase, a kernel-only loop, one D2H phase.
  HotspotConfig hc;
  hc.common = timing(4);
  hc.rows = hc.cols = 2048;
  hc.tile_rows = hc.tile_cols = 512;
  hc.steps = 10;
  const auto r = HotspotApp::run(cfg(), hc);
  const auto& t = r.timeline;
  // Every upload precedes every kernel; every download follows them all.
  EXPECT_LE(last_end(t, trace::SpanKind::H2D), first_start(t, trace::SpanKind::Kernel) + 1e-9);
  EXPECT_GE(first_start(t, trace::SpanKind::D2H), last_end(t, trace::SpanKind::Kernel) - 1e-9);
}

TEST(Fig4Flows, KmeansLoopsTransferEveryIteration) {
  // Fig. 4(d): per iteration a centroid H2D and per-tile partial D2Hs, with
  // a sync edge — so transfers are spread across the whole run, not batched
  // at the ends like Hotspot.
  KmeansConfig kc;
  kc.common = timing(4);
  kc.points = 200000;
  kc.tiles = 4;
  kc.iterations = 10;
  const auto r = KmeansApp::run(cfg(), kc);
  const auto& t = r.timeline;
  EXPECT_EQ(t.count(trace::SpanKind::H2D), 4u + 10u);         // points + per-iter centroids
  EXPECT_EQ(t.count(trace::SpanKind::D2H), 10u * 4u * 2u + 4u);  // partials + membership
  // Mid-run transfers: some H2D starts after some kernel finished.
  double first_kernel_end = 1e300;
  for (const auto& s : t.spans()) {
    if (s.kind == trace::SpanKind::Kernel) {
      first_kernel_end = std::min(first_kernel_end, s.end.millis());
    }
  }
  EXPECT_GT(last_end(t, trace::SpanKind::H2D), first_kernel_end);
}

TEST(Fig4Flows, NnIsPerTileTriples) {
  // Fig. 4(e): same flow as MM — per tile H2D -> EXE -> D2H.
  NnConfig nc;
  nc.common = timing(4);
  nc.records = 1u << 20;
  nc.tiles = 8;
  const auto r = NnApp::run(cfg(), nc);
  const auto& t = r.timeline;
  EXPECT_EQ(t.count(trace::SpanKind::H2D), 8u);
  EXPECT_EQ(t.count(trace::SpanKind::Kernel), 8u);
  EXPECT_EQ(t.count(trace::SpanKind::D2H), 8u);
  EXPECT_GT(t.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel), sim::SimTime::zero());
}

TEST(Fig4Flows, SradHasMultipleKernelClassesPerIteration) {
  // Fig. 4(f): extract, then per iteration statistics + compute kernels
  // with a sync in between, then compression.
  SradConfig sc;
  sc.common = timing(4);
  sc.rows = sc.cols = 1000;
  sc.tile_rows = sc.tile_cols = 500;  // 4 tiles
  sc.iterations = 5;
  const auto r = SradApp::run(cfg(), sc);
  const auto& t = r.timeline;
  // 4 extract + 5 x (4 stats + 4 coeff + 4 update) + 4 compress kernels.
  EXPECT_EQ(t.count(trace::SpanKind::Kernel), 4u + 5u * 12u + 4u);
  // The per-iteration statistics readback: 4 tiles x 5 iterations plus the
  // final image bands.
  EXPECT_EQ(t.count(trace::SpanKind::D2H), 5u * 4u + 2u);
}

TEST(Fig4Flows, OverlappableAppsOverlapNonOverlappableDoNot) {
  // The paper's core taxonomy, checked on timelines directly.
  MmConfig mc;
  mc.common = timing(4);
  mc.dim = 4000;
  mc.tile_grid = 8;
  const auto mm = MmApp::run(cfg(), mc);
  const double mm_overlap =
      (mm.timeline.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel) +
       mm.timeline.overlap(trace::SpanKind::D2H, trace::SpanKind::Kernel))
          .millis();
  EXPECT_GT(mm_overlap, 1.0);

  HotspotConfig hc;
  hc.common = timing(4);
  hc.rows = hc.cols = 2048;
  hc.tile_rows = hc.tile_cols = 512;
  hc.steps = 10;
  const auto hs = HotspotApp::run(cfg(), hc);
  const double hs_overlap =
      (hs.timeline.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel) +
       hs.timeline.overlap(trace::SpanKind::D2H, trace::SpanKind::Kernel))
          .millis();
  EXPECT_DOUBLE_EQ(hs_overlap, 0.0);
}

}  // namespace
}  // namespace ms::apps
