#include "apps/hotspot_app.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

HotspotConfig small(bool streamed) {
  HotspotConfig hc;
  hc.rows = 64;
  hc.cols = 64;
  hc.tile_rows = 32;
  hc.tile_cols = 32;
  hc.steps = 6;
  hc.common.partitions = 4;
  hc.common.streamed = streamed;
  return hc;
}

TEST(HotspotApp, StreamedMatchesBaselineChecksum) {
  const auto s = HotspotApp::run(cfg(), small(true));
  const auto b = HotspotApp::run(cfg(), small(false));
  EXPECT_NEAR(s.checksum, b.checksum, 1e-9 * std::abs(b.checksum));
}

TEST(HotspotApp, ChecksumStableAcrossTileShapes) {
  double first = 0.0;
  bool have = false;
  for (const std::size_t t : {64u, 32u, 16u}) {
    auto hc = small(true);
    hc.tile_rows = t;
    hc.tile_cols = t;
    const auto r = HotspotApp::run(cfg(), hc);
    if (!have) {
      first = r.checksum;
      have = true;
    } else {
      EXPECT_NEAR(r.checksum, first, 1e-9 * std::abs(first)) << "tile=" << t;
    }
  }
}

TEST(HotspotApp, OddStepCountUsesOtherBuffer) {
  auto hc = small(true);
  hc.steps = 5;
  const auto s = HotspotApp::run(cfg(), hc);
  hc.common.streamed = false;
  const auto b = HotspotApp::run(cfg(), hc);
  EXPECT_NEAR(s.checksum, b.checksum, 1e-9 * std::abs(b.checksum));
}

TEST(HotspotApp, ResultIsPhysicallyPlausible) {
  // Temperatures stay within a sane band around initial + ambient values.
  const auto r = HotspotApp::run(cfg(), small(false));
  const double avg = r.checksum / (64.0 * 64.0);
  EXPECT_GT(avg, 60.0);
  EXPECT_LT(avg, 110.0);
}

TEST(HotspotApp, NoTransfersInsideTheStepLoop) {
  // Fig. 4(c): transfers only at the boundary — per protocol run: 2 bands
  // in for temp + 2 for power, 2 out.
  auto hc = small(true);
  hc.common.tracing = true;
  const auto r = HotspotApp::run(cfg(), hc);
  const auto h2d = r.timeline.count(trace::SpanKind::H2D);
  const auto d2h = r.timeline.count(trace::SpanKind::D2H);
  EXPECT_EQ(h2d, 2u * 2u * 2u);  // 2 protocol runs x 2 buffers x 2 bands
  EXPECT_EQ(d2h, 2u * 2u);
}

TEST(HotspotApp, KernelsOverlapAcrossPartitionsWithinAStep) {
  auto hc = small(true);
  hc.common.tracing = true;
  const auto r = HotspotApp::run(cfg(), hc);
  EXPECT_GT(r.timeline.overlap(trace::SpanKind::Kernel, trace::SpanKind::Kernel),
            sim::SimTime::zero());
}

TEST(HotspotApp, StreamingBarelyChangesPerformance) {
  // Fig. 8(d): "using multiple streams brings no performance change for
  // Hotspot" — within a modest band either way.
  auto hc = small(true);
  hc.common.functional = false;
  hc.rows = hc.cols = 4096;
  hc.tile_rows = hc.tile_cols = 1024;
  hc.steps = 20;
  const auto s = HotspotApp::run(cfg(), hc);
  hc.common.streamed = false;
  const auto b = HotspotApp::run(cfg(), hc);
  EXPECT_NEAR(s.ms / b.ms, 1.0, 0.25);
}

}  // namespace
}  // namespace ms::apps
