#include "apps/kmeans_app.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

KmeansConfig small(bool streamed) {
  KmeansConfig kc;
  kc.points = 2000;
  kc.dims = 6;
  kc.clusters = 4;
  kc.iterations = 5;
  kc.tiles = 4;
  kc.common.partitions = 4;
  kc.common.streamed = streamed;
  return kc;
}

TEST(KmeansApp, StreamedMatchesBaselineChecksum) {
  const auto s = KmeansApp::run(cfg(), small(true));
  const auto b = KmeansApp::run(cfg(), small(false));
  EXPECT_NEAR(s.checksum, b.checksum, 1e-4 * std::abs(b.checksum));
}

TEST(KmeansApp, ChecksumStableAcrossTiling) {
  double first = 0.0;
  bool have = false;
  for (const int t : {1, 2, 5, 8}) {
    auto kc = small(true);
    kc.tiles = t;
    const auto r = KmeansApp::run(cfg(), kc);
    if (!have) {
      first = r.checksum;
      have = true;
    } else {
      // Per-tile accumulation order differs, so allow float tolerance.
      EXPECT_NEAR(r.checksum, first, 1e-3 * std::abs(first)) << "T=" << t;
    }
  }
}

TEST(KmeansApp, EachIterationSynchronizes) {
  // Non-overlappable structure: at least `iterations` centroid uploads and
  // per-tile partial downloads happen.
  auto kc = small(true);
  kc.common.tracing = true;
  const auto r = KmeansApp::run(cfg(), kc);
  const auto h2d = r.timeline.count(trace::SpanKind::H2D);
  // points tiles (4) + centroids per iteration (5), x2 protocol runs.
  EXPECT_EQ(h2d, 2u * (4u + 5u));
}

TEST(KmeansApp, MorePartitionsReduceAllocOverhead) {
  // The Fig. 9(c) mechanism at test scale: with the same tile count, more
  // partitions => fewer threads per partition => cheaper per-launch scratch
  // allocation => faster overall.
  auto kc = small(true);
  kc.tiles = 56;
  kc.common.functional = false;
  kc.points = 1120000;
  kc.dims = 34;
  kc.clusters = 8;
  kc.iterations = 20;
  double prev = 1e300;
  for (const int p : {1, 2, 4, 8, 28}) {
    kc.common.partitions = p;
    const auto r = KmeansApp::run(cfg(), kc);
    EXPECT_LT(r.ms, prev) << "P=" << p;
    prev = r.ms;
  }
}

TEST(KmeansApp, StreamedBeatsBaselineAtPaperScale) {
  // Fig. 8(c): ~24% average improvement. Accept anything clearly positive.
  KmeansConfig kc;
  kc.points = 1120000;
  kc.dims = 34;
  kc.clusters = 8;
  kc.iterations = 20;
  kc.tiles = 56;
  kc.common.partitions = 28;
  kc.common.functional = false;
  const auto s = KmeansApp::run(cfg(), kc);
  kc.common.streamed = false;
  const auto b = KmeansApp::run(cfg(), kc);
  EXPECT_LT(s.ms, b.ms);
}

TEST(KmeansApp, InvalidTilesThrow) {
  auto kc = small(true);
  kc.tiles = 0;
  EXPECT_THROW(KmeansApp::run(cfg(), kc), std::invalid_argument);
  kc.tiles = 3000;  // more tiles than points (2000)
  EXPECT_THROW(KmeansApp::run(cfg(), kc), std::invalid_argument);
}

TEST(KmeansApp, GraphReplayCutsHostOverheadAtFineGranularity) {
  KmeansConfig kc;
  kc.points = 1120000;
  kc.dims = 34;
  kc.clusters = 8;
  kc.iterations = 50;
  // Granularity fine enough that the host's 3 x T x action_enqueue per
  // iteration exceeds the device time — the regime the graph API targets.
  kc.tiles = 2048;
  kc.common.partitions = 28;
  kc.common.functional = false;
  const auto direct = KmeansApp::run(cfg(), kc);
  kc.common.graph = GraphMode::Compiled;
  const auto graphed = KmeansApp::run(cfg(), kc);
  EXPECT_LT(graphed.ms, direct.ms * 0.9);
}

TEST(KmeansApp, MembershipValuesAreValidClusterIds) {
  // The checksum folds memberships in; a quick direct sanity run: the
  // checksum must be finite and reproducible.
  const auto a = KmeansApp::run(cfg(), small(true));
  const auto b = KmeansApp::run(cfg(), small(true));
  EXPECT_TRUE(std::isfinite(a.checksum));
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
}

TEST(KmeansApp, ChecksumIsPinnedBitForBit) {
  // Hex-float literals recorded before kmeans_assign was vectorized: any
  // change to a membership or to the centroid sums moves these bits.
  EXPECT_EQ(KmeansApp::run(cfg(), small(true)).checksum, 0x1.79546e45cp+11);
  EXPECT_EQ(KmeansApp::run(cfg(), small(false)).checksum, 0x1.79546e444p+11);

  // The MineBench shape (34 features, 8 clusters) over 3 tiles of 667
  // points, so every tile ends in a 3-point scalar remainder.
  KmeansConfig kc;
  kc.points = 2001;
  kc.iterations = 5;
  kc.tiles = 3;
  kc.common.partitions = 4;
  EXPECT_EQ(KmeansApp::run(cfg(), kc).checksum, 0x1.0d6c89e82p+13);
}

}  // namespace
}  // namespace ms::apps
