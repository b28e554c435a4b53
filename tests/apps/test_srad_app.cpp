#include "apps/srad_app.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

SradConfig small(bool streamed) {
  SradConfig sc;
  sc.rows = 48;
  sc.cols = 48;
  sc.tile_rows = 16;
  sc.tile_cols = 16;
  sc.iterations = 4;
  sc.common.partitions = 4;
  sc.common.streamed = streamed;
  return sc;
}

TEST(SradApp, StreamedMatchesBaselineChecksum) {
  const auto s = SradApp::run(cfg(), small(true));
  const auto b = SradApp::run(cfg(), small(false));
  EXPECT_NEAR(s.checksum, b.checksum, 1e-5 * std::abs(b.checksum));
}

TEST(SradApp, ChecksumStableAcrossTileShapes) {
  double first = 0.0;
  bool have = false;
  for (const std::size_t t : {48u, 24u, 12u}) {
    auto sc = small(true);
    sc.tile_rows = t;
    sc.tile_cols = t;
    const auto r = SradApp::run(cfg(), sc);
    if (!have) {
      first = r.checksum;
      have = true;
    } else {
      EXPECT_NEAR(r.checksum, first, 1e-5 * std::abs(first)) << "tile=" << t;
    }
  }
}

TEST(SradApp, DiffusionReducesVariance) {
  // SRAD must smooth: the output's spread shrinks versus the input image.
  auto sc = small(false);
  sc.iterations = 20;
  const auto r = SradApp::run(cfg(), sc);
  // The checksum is the pixel sum; smoothing preserves the rough mean, so
  // the mean stays in the original band.
  const double mean = r.checksum / (48.0 * 48.0);
  EXPECT_GT(mean, 10.0);
  EXPECT_LT(mean, 220.0);
}

TEST(SradApp, SynchronizesEveryIteration) {
  // The statistics readback forces one tiny D2H per tile per iteration.
  auto sc = small(true);
  sc.common.tracing = true;
  const auto r = SradApp::run(cfg(), sc);
  const auto d2h = r.timeline.count(trace::SpanKind::D2H);
  // per protocol run: 9 tiles x 4 iterations (stats) + 3 bands (final image)
  EXPECT_EQ(d2h, 2u * (9u * 4u + 3u));
}

TEST(SradApp, StreamedLosesOnSmallImagesWinsOnLarge) {
  // The Fig. 8(f) shape, produced by the per-launch scratch-allocation
  // mechanism (timing-only so we can afford paper-adjacent sizes).
  SradConfig sc;
  sc.common.functional = false;
  sc.common.partitions = 4;
  sc.iterations = 50;

  // Small image: stream management overhead dominates.
  sc.rows = sc.cols = 1000;
  sc.tile_rows = sc.tile_cols = 250;
  const double small_streamed = SradApp::run(cfg(), sc).ms;
  sc.common.streamed = false;
  const double small_baseline = SradApp::run(cfg(), sc).ms;
  EXPECT_GT(small_streamed, small_baseline);

  // Large image: concurrent (and smaller) scratch allocations win.
  sc.common.streamed = true;
  sc.rows = sc.cols = 10000;
  sc.tile_rows = sc.tile_cols = 2500;
  const double large_streamed = SradApp::run(cfg(), sc).ms;
  sc.common.streamed = false;
  const double large_baseline = SradApp::run(cfg(), sc).ms;
  EXPECT_LT(large_streamed, large_baseline);
}

TEST(SradApp, ChecksumIsPinnedBitForBit) {
  // Hex-float literals recorded before the srad kernels were vectorized:
  // any change to a kernel's rounding moves these bits.
  EXPECT_EQ(SradApp::run(cfg(), small(true)).checksum, 0x1.e5dff92c8p+17);
  EXPECT_EQ(SradApp::run(cfg(), small(false)).checksum, 0x1.e5dff92c8p+17);

  // 37 columns: full-width tiles with both clamped edge columns and a
  // vector remainder in the interior loop.
  auto sc = small(true);
  sc.rows = 50;
  sc.cols = 37;
  sc.tile_rows = 25;
  sc.tile_cols = 37;
  sc.iterations = 6;
  sc.common.partitions = 2;
  EXPECT_EQ(SradApp::run(cfg(), sc).checksum, 0x1.89a347c9cp+17);
}

}  // namespace
}  // namespace ms::apps
