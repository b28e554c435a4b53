#include "apps/kmeans_async_app.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "apps/kmeans_app.hpp"
#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

KmeansConfig small(bool streamed = true) {
  KmeansConfig kc;
  kc.points = 2000;
  kc.dims = 6;
  kc.clusters = 4;
  kc.iterations = 8;
  kc.tiles = 4;
  kc.common.partitions = 4;
  kc.common.streamed = streamed;
  return kc;
}

TEST(KmeansAsync, RunsAndProducesFiniteCentroids) {
  const auto r = KmeansAsyncApp::run(cfg(), small());
  EXPECT_GT(r.ms, 0.0);
  EXPECT_TRUE(std::isfinite(r.checksum));
  EXPECT_NE(r.checksum, 0.0);
}

TEST(KmeansAsync, IterationCountActuallyMatters) {
  // The stale-centroid pipeline must still be doing real work: more
  // iterations move the centroids further from the seed.
  auto kc = small();
  kc.iterations = 1;
  const auto one = KmeansAsyncApp::run(cfg(), kc);
  kc.iterations = 20;
  const auto twenty = KmeansAsyncApp::run(cfg(), kc);
  EXPECT_NE(one.checksum, twenty.checksum);
  EXPECT_GT(twenty.ms, one.ms);
}

TEST(KmeansAsync, MatchesSynchronousCentroidScale) {
  // Stale centroids change the trajectory, not the data: centroid
  // magnitudes must stay in the data's range (points are uniform in
  // [0, 10], so every centroid coordinate averages ~5).
  auto kc = small();
  kc.iterations = 40;
  const auto async = KmeansAsyncApp::run(cfg(), kc);
  const double per_coord =
      async.checksum / (2.0 * static_cast<double>(kc.clusters * kc.dims));
  EXPECT_GT(per_coord, 1.0);
  EXPECT_LT(per_coord, 9.0);
}

TEST(KmeansAsync, TransformationMakesItOverlappable) {
  // The whole point of the future-work transformation: centroid uploads /
  // partials downloads overlap kernel execution, which the synchronous
  // version's per-iteration barrier prevents almost entirely.
  KmeansConfig kc;
  kc.points = 1120000;
  kc.dims = 34;
  kc.clusters = 8;
  kc.iterations = 10;
  kc.tiles = 28;
  kc.common.partitions = 28;
  kc.common.functional = false;
  kc.common.tracing = true;

  const auto async = KmeansAsyncApp::run(cfg(), kc);
  const auto h2d_overlap =
      async.timeline.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel) +
      async.timeline.overlap(trace::SpanKind::D2H, trace::SpanKind::Kernel);
  EXPECT_GT(h2d_overlap, sim::SimTime::zero());
}

TEST(KmeansAsync, FasterThanSynchronousAtScale) {
  KmeansConfig kc;
  kc.points = 1120000;
  kc.dims = 34;
  kc.clusters = 8;
  kc.iterations = 50;
  kc.tiles = 28;
  kc.common.partitions = 28;
  kc.common.functional = false;
  const auto async = KmeansAsyncApp::run(cfg(), kc);
  const auto sync = KmeansApp::run(cfg(), kc);
  EXPECT_LT(async.ms, sync.ms);
}

TEST(KmeansAsync, InvalidConfigThrows) {
  auto kc = small();
  kc.tiles = 0;
  EXPECT_THROW(KmeansAsyncApp::run(cfg(), kc), std::invalid_argument);
  kc = small();
  kc.iterations = 0;
  EXPECT_THROW(KmeansAsyncApp::run(cfg(), kc), std::invalid_argument);
}

}  // namespace
}  // namespace ms::apps
