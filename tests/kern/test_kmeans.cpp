#include "kern/kmeans.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "alloc_counter.hpp"
#include "isa_variant_test.hpp"
#include "kern/par.hpp"

namespace ms::kern {
namespace {

TEST(Kmeans, AssignsToNearestCentroid) {
  // Two well-separated clusters in 1-D.
  const std::vector<float> points{0.0f, 0.1f, 0.2f, 10.0f, 10.1f};
  const std::vector<float> centroids{0.0f, 10.0f};
  std::vector<std::int32_t> memb(5, -1);
  kmeans_assign(points.data(), centroids.data(), memb.data(), 5, 1, 2);
  EXPECT_EQ(memb, (std::vector<std::int32_t>{0, 0, 0, 1, 1}));
}

TEST(Kmeans, TieBreaksToLowestIndex) {
  const std::vector<float> points{5.0f};
  const std::vector<float> centroids{0.0f, 10.0f};  // equidistant
  std::vector<std::int32_t> memb(1, -1);
  kmeans_assign(points.data(), centroids.data(), memb.data(), 1, 1, 2);
  EXPECT_EQ(memb[0], 0);
}

TEST(Kmeans, MultiDimensionalDistance) {
  const std::vector<float> points{1.0f, 1.0f, /*p1*/ 4.0f, 5.0f};
  const std::vector<float> centroids{0.0f, 0.0f, /*c1*/ 4.0f, 4.0f};
  std::vector<std::int32_t> memb(2, -1);
  kmeans_assign(points.data(), centroids.data(), memb.data(), 2, 2, 2);
  EXPECT_EQ(memb[0], 0);
  EXPECT_EQ(memb[1], 1);
}

TEST(Kmeans, AccumulateSumsAndCounts) {
  const std::vector<float> points{1.0f, 2.0f, 3.0f, 5.0f};
  const std::vector<std::int32_t> memb{0, 0, 1, 1};
  std::vector<float> sums(2, 0.0f);
  std::vector<std::int32_t> counts(2, 0);
  kmeans_accumulate(points.data(), memb.data(), sums.data(), counts.data(), 4, 1, 2);
  EXPECT_FLOAT_EQ(sums[0], 3.0f);
  EXPECT_FLOAT_EQ(sums[1], 8.0f);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
}

TEST(Kmeans, UpdateComputesMeans) {
  const std::vector<float> sums{3.0f, 8.0f};
  const std::vector<std::int32_t> counts{2, 4};
  std::vector<float> cent(2, -1.0f);
  kmeans_update(sums.data(), counts.data(), cent.data(), 2, 1);
  EXPECT_FLOAT_EQ(cent[0], 1.5f);
  EXPECT_FLOAT_EQ(cent[1], 2.0f);
}

TEST(Kmeans, EmptyClusterKeepsPreviousCentroid) {
  const std::vector<float> sums{0.0f, 8.0f};
  const std::vector<std::int32_t> counts{0, 4};
  std::vector<float> cent{42.0f, 0.0f};
  kmeans_update(sums.data(), counts.data(), cent.data(), 2, 1);
  EXPECT_FLOAT_EQ(cent[0], 42.0f);
  EXPECT_FLOAT_EQ(cent[1], 2.0f);
}

TEST(Kmeans, LloydIterationConvergesOnSeparatedClusters) {
  // Full algorithm loop built from the kernels: must find the two obvious
  // cluster centers.
  std::mt19937 rng(12);
  std::normal_distribution<float> n1(0.0f, 0.1f), n2(8.0f, 0.1f);
  const std::size_t n = 200, dims = 2, k = 2;
  std::vector<float> pts(n * dims);
  for (std::size_t i = 0; i < n / 2; ++i) {
    pts[i * 2] = n1(rng);
    pts[i * 2 + 1] = n1(rng);
  }
  for (std::size_t i = n / 2; i < n; ++i) {
    pts[i * 2] = n2(rng);
    pts[i * 2 + 1] = n2(rng);
  }
  std::vector<float> cent{pts[0], pts[1], pts[2], pts[3]};  // poor seeds, same cluster
  // Nudge the second seed toward the other mass so the clusters can split.
  cent[2] = 4.0f;
  cent[3] = 4.0f;
  std::vector<std::int32_t> memb(n, -1);
  for (int it = 0; it < 20; ++it) {
    kmeans_assign(pts.data(), cent.data(), memb.data(), n, dims, k);
    std::vector<float> sums(k * dims, 0.0f);
    std::vector<std::int32_t> counts(k, 0);
    kmeans_accumulate(pts.data(), memb.data(), sums.data(), counts.data(), n, dims, k);
    kmeans_update(sums.data(), counts.data(), cent.data(), k, dims);
  }
  // One centroid near (0,0), the other near (8,8), in either order.
  const bool order_a = std::abs(cent[0]) < 0.5 && std::abs(cent[2] - 8.0f) < 0.5;
  const bool order_b = std::abs(cent[2]) < 0.5 && std::abs(cent[0] - 8.0f) < 0.5;
  EXPECT_TRUE(order_a || order_b) << cent[0] << "," << cent[2];
}

// The scalar kmeans_assign the point-lane kernel replaced, kept verbatim
// (minus the chunk parallelism, which never changes a point) as the exact
// oracle.
void ref_kmeans_assign(const float* points, const float* centroids, std::int32_t* membership,
                       std::size_t n, std::size_t dims, std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    const float* p = points + i * dims;
    float best = std::numeric_limits<float>::max();
    std::int32_t best_c = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const float* cc = centroids + c * dims;
      float dist = 0.0f;
      for (std::size_t d = 0; d < dims; ++d) {
        const float diff = p[d] - cc[d];
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        best_c = static_cast<std::int32_t>(c);
      }
    }
    membership[i] = best_c;
  }
}

std::vector<float> uniform(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-3.0f, 3.0f);
  std::vector<float> v(n);
  for (float& x : v) x = d(rng);
  return v;
}

/// The `isa` variant of kmeans_assign (the one the process runs by default)
/// against the oracle.
void expect_assign_matches_oracle(const std::vector<float>& points,
                                  const std::vector<float>& centroids, std::size_t n,
                                  std::size_t dims, std::size_t k,
                                  detail::Isa isa = detail::host_isa()) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " dims=" << dims << " k=" << k);
  std::vector<std::int32_t> got(n, -1), want(n, -2);
  detail::kmeans_assign(isa, points.data(), centroids.data(), got.data(), n, dims, k);
  ref_kmeans_assign(points.data(), centroids.data(), want.data(), n, dims, k);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(std::int32_t)), 0);
}

TEST(Kmeans, AssignMatchesScalarOracle) {
  // Every n % 4 remainder, centroid counts below, at and around the
  // four-in-flight group, and the 1-feature and MineBench 34-feature shapes.
  for (const std::size_t n : {1u, 2u, 3u, 64u, 65u, 66u, 67u}) {
    for (const std::size_t k : {1u, 3u, 4u, 5u, 8u, 9u}) {
      for (const std::size_t dims : {1u, 34u}) {
        const auto points = uniform(n * dims, static_cast<unsigned>(n * 100 + dims));
        const auto centroids = uniform(k * dims, static_cast<unsigned>(k * 100 + dims + 1));
        expect_assign_matches_oracle(points, centroids, n, dims, k);
      }
    }
  }
}

// The ISA variants (kern/isa.hpp) against the oracle.
class KmeansVariant : public test::IsaVariantTest {};
INSTANTIATE_TEST_SUITE_P(Isa, KmeansVariant, test::kIsaVariants, test::isa_variant_name);

TEST_P(KmeansVariant, AssignMatchesScalarOracle) {
  // Every n % 8 remainder, centroid counts around the four-in-flight group,
  // and the 1-, 3- and 34-feature shapes.
  for (std::size_t n = 1; n <= 17; ++n) {
    for (const std::size_t k : {1u, 4u, 5u, 9u}) {
      for (const std::size_t dims : {1u, 3u, 34u}) {
        const auto points = uniform(n * dims, static_cast<unsigned>(n * 100 + dims));
        const auto centroids = uniform(k * dims, static_cast<unsigned>(k * 100 + dims + 1));
        expect_assign_matches_oracle(points, centroids, n, dims, k, isa());
      }
    }
  }
}

TEST(Kmeans, AssignLanePathBreaksExactTiesToLowestIndex) {
  // Integer coordinates make the distances exact, so each point below ties
  // between centroids: duplicates inside one four-centroid group (0 and 2),
  // across groups (1 and 5, 3 and 8) and in the k % 4 tail. Ties must go
  // to the lowest index in every lane, as in the scalar scan.
  const std::size_t dims = 2, k = 9;
  const std::vector<float> centroids{0, 0, /*1*/ 4, 0, /*2*/ 0, 0, /*3*/ 0, 4, /*4*/ 8, 8,
                                     /*5*/ 4, 0, /*6*/ -4, 0, /*7*/ 0, -4, /*8*/ 0, 4};
  const std::vector<float> points{0, 0,  /* 0 = 2 */
                                  2, 0,  /* 0 = 1 = 2 = 5 */
                                  4, 0,  /* 1 = 5 */
                                  0, 4,  /* 3 = 8 */
                                  -2, 0, /* 0 = 2 = 6 */
                                  0, -2, /* 0 = 2 = 7 */
                                  6, 6,  /* 4 alone */
                                  2, 2}; /* 0 = 1 = 2 = 3 = 5 = 8 */
  const std::size_t n = points.size() / dims;
  std::vector<std::int32_t> memb(n, -1);
  kmeans_assign(points.data(), centroids.data(), memb.data(), n, dims, k);
  EXPECT_EQ(memb, (std::vector<std::int32_t>{0, 0, 1, 3, 0, 0, 4, 0}));
  expect_assign_matches_oracle(points, centroids, n, dims, k);
}

/// A centroid and its feature-reversed twin are exactly equidistant from
/// the origin, but their float sums d = 0..dims-1 round differently
/// whenever the accumulation order matters, so the membership of a point
/// at the origin reveals the order each distance was summed in. Centroids
/// come in three such pairs: two fill the four-in-flight group, one is the
/// k % 4 tail; nine points cover the lane path (4 or 8 lanes, by variant)
/// and the scalar remainder.
void expect_feature_order_kept(detail::Isa isa) {
  const std::size_t dims = 34, k = 6, n = 9;
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> u(0.5f, 2.0f);
  const std::vector<float> origin(n * dims, 0.0f);
  int order_sensitive = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> centroids(k * dims);
    for (std::size_t pair = 0; pair < k / 2; ++pair) {
      float* a = centroids.data() + 2 * pair * dims;
      float* b = a + dims;
      for (std::size_t d = 0; d < dims; ++d) a[d] = u(rng);
      for (std::size_t d = 0; d < dims; ++d) b[d] = a[dims - 1 - d];
      float fwd = 0.0f, rev = 0.0f;
      for (std::size_t d = 0; d < dims; ++d) {
        fwd += a[d] * a[d];
        rev += b[d] * b[d];
      }
      if (fwd != rev) ++order_sensitive;
    }
    expect_assign_matches_oracle(origin, centroids, n, dims, k, isa);
  }
  EXPECT_GT(order_sensitive, 50);  // the inputs do exercise the order
}

TEST(Kmeans, AssignKeepsEachDistancesFeatureOrder) {
  expect_feature_order_kept(detail::host_isa());
}

TEST_P(KmeansVariant, AssignKeepsEachDistancesFeatureOrder) { expect_feature_order_kept(isa()); }

TEST_P(KmeansVariant, AssignOverSeveralFeatureBlocksMatchesScalarOracle) {
  // Features beyond one 64-feature transpose block, with the accumulators
  // carried across blocks, on the lane path and the remainder.
  for (const std::size_t dims : {63u, 64u, 65u, 130u}) {
    const std::size_t n = 21, k = 6;
    const auto points = uniform(n * dims, static_cast<unsigned>(dims));
    const auto centroids = uniform(k * dims, static_cast<unsigned>(dims + 1));
    expect_assign_matches_oracle(points, centroids, n, dims, k, isa());
  }
}

TEST(Kmeans, AssignAllocatesNothingAtOneThread) {
  // Two point chunks, lane groups and a remainder, features over one
  // transpose block.
  const std::size_t n = 2 * par::kChunk + 5, dims = 70, k = 5;
  const auto points = uniform(n * dims, 3);
  const auto centroids = uniform(k * dims, 4);
  std::vector<std::int32_t> memb(n, -1);
  par::ThreadScope scope(1);
  const std::size_t before = ms::test::alloc_count();
  kmeans_assign(points.data(), centroids.data(), memb.data(), n, dims, k);
  EXPECT_EQ(ms::test::alloc_count() - before, 0u);
}

TEST(Kmeans, AssignFlopsFormula) {
  EXPECT_DOUBLE_EQ(kmeans_assign_flops(10, 34, 8), 3.0 * 10 * 34 * 8);
}

}  // namespace
}  // namespace ms::kern
