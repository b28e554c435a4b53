#include "rt/tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "rt/errors.hpp"

namespace ms::rt {
namespace {

sim::CoprocessorSpec phi() { return sim::SimConfig::phi_31sp().device; }

TEST(Tuner, PartitionCandidatesArePaperSet) {
  const auto p = Tuner::partition_candidates(phi());
  EXPECT_EQ(p, (std::vector<int>{2, 4, 7, 8, 14, 28, 56}));
}

TEST(Tuner, TileCandidatesAreMultiplesOfP) {
  const auto t = Tuner::tile_candidates(4);
  ASSERT_EQ(t.size(), 8u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i], 4 * static_cast<int>(i + 1));
  }
}

TEST(Tuner, TileCandidatesRespectMultiplierBound) {
  TunerOptions opt;
  opt.max_multiplier = 3;
  EXPECT_EQ(Tuner::tile_candidates(7, opt), (std::vector<int>{7, 14, 21}));
}

TEST(Tuner, TileCandidatesInvalidPartitionsThrow) {
  EXPECT_THROW(Tuner::tile_candidates(0), std::invalid_argument);
}

TEST(Tuner, PrunedSpaceIsProductOfCandidates) {
  const auto space = Tuner::pruned_space(phi());
  EXPECT_EQ(space.size(), 7u * 8u);
  for (const auto& c : space) {
    EXPECT_EQ(c.tiles % c.partitions, 0);  // T = m*P (load balance heuristic)
    EXPECT_EQ(56 % c.partitions, 0);       // P in divisor set
  }
}

TEST(Tuner, PrunedSpaceIsMuchSmallerThanExhaustive) {
  // The paper's point: the heuristics shrink the "huge" search space.
  const auto pruned = Tuner::pruned_space(phi());
  const auto full = Tuner::exhaustive_space(phi(), 448);
  EXPECT_EQ(full.size(), 56u * 448u);
  EXPECT_LT(pruned.size() * 100, full.size());  // >100x reduction
}

TEST(Tuner, ExhaustiveSpaceInvalidThrows) {
  EXPECT_THROW(Tuner::exhaustive_space(phi(), 0), std::invalid_argument);
}

TEST(Tuner, SearchFindsMinimum) {
  const auto space = Tuner::pruned_space(phi());
  // Synthetic metric with a known optimum at P=8, T=16.
  const auto metric = [](Tuner::Candidate c) {
    return std::abs(c.partitions - 8) * 10.0 + std::abs(c.tiles - 16) + 1.0;
  };
  const auto r = Tuner::search(space, metric);
  EXPECT_EQ(r.best.partitions, 8);
  EXPECT_EQ(r.best.tiles, 16);
  EXPECT_DOUBLE_EQ(r.best_metric, 1.0);
  EXPECT_EQ(r.evaluated, space.size());
}

TEST(Tuner, SearchEmptyInputsThrow) {
  EXPECT_THROW((void)Tuner::search({}, [](Tuner::Candidate) { return 0.0; }), std::invalid_argument);
  const auto space = Tuner::pruned_space(phi());
  EXPECT_THROW((void)Tuner::search(space, {}), std::invalid_argument);
}

TEST(Tuner, SearchSkipsNonFiniteMetrics) {
  // A metric rules a candidate out by scoring it +inf (or NaN): it is
  // counted, never chosen, and a search with no finite candidate throws.
  const std::vector<Tuner::Candidate> space{{1, 1}, {1, 2}, {1, 3}, {1, 4}};
  const auto metric = [](Tuner::Candidate c) {
    if (c.tiles == 1) return std::numeric_limits<double>::infinity();
    if (c.tiles == 2) return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(c.tiles);
  };
  const auto r = Tuner::search(space, metric);
  EXPECT_EQ(r.evaluated, 4u);
  EXPECT_EQ(r.rejected, 2u);
  EXPECT_EQ(r.best.tiles, 3);
  EXPECT_DOUBLE_EQ(r.best_metric, 3.0);

  const auto none = [](Tuner::Candidate) { return std::numeric_limits<double>::infinity(); };
  EXPECT_THROW((void)Tuner::search(space, none), Error);
}

TEST(Tuner, SweepKeepsSerialWinnerAndTieBreaks) {
  const auto space = Tuner::pruned_space(phi());
  // Every P has a T = 2P candidate scoring 1.0; the tie goes to the earliest.
  const auto metric = [](Tuner::Candidate c) { return std::abs(c.tiles - 2 * c.partitions) + 1.0; };
  const auto serial = Tuner::search(space, metric);
  const auto swept = Tuner::search(space, metric, {.sweep = {.threads = 4}});
  EXPECT_EQ(serial.best.partitions, space.front().partitions);
  EXPECT_EQ(swept.best.partitions, serial.best.partitions);
  EXPECT_EQ(swept.best.tiles, serial.best.tiles);
  EXPECT_EQ(swept.best_metric, serial.best_metric);
  EXPECT_EQ(swept.evaluated, serial.evaluated);
}

TEST(Tuner, PrunedSpaceContainsPaperOptima) {
  // Fig. 9/10 best configurations must survive pruning: P=4 with T=4
  // (most apps), and CF's T=100-ish region requires a larger multiplier.
  const auto space = Tuner::pruned_space(phi());
  bool has_p4_t4 = false;
  for (const auto& c : space) has_p4_t4 |= (c.partitions == 4 && c.tiles == 4);
  EXPECT_TRUE(has_p4_t4);

  TunerOptions wide;
  wide.max_multiplier = 25;
  bool has_p4_t100 = false;
  for (const auto& c : Tuner::pruned_space(phi(), wide)) {
    has_p4_t100 |= (c.partitions == 4 && c.tiles == 100);
  }
  EXPECT_TRUE(has_p4_t100);
}

TEST(Tuner, GeneralizesToOtherDevices) {
  // A 61-core KNC (60 usable) has a different divisor set.
  sim::CoprocessorSpec spec = phi();
  spec.cores = 61;
  const auto p = Tuner::partition_candidates(spec);
  const std::set<int> got(p.begin(), p.end());
  EXPECT_TRUE(got.contains(2));
  EXPECT_TRUE(got.contains(3));
  EXPECT_TRUE(got.contains(60));
  EXPECT_FALSE(got.contains(7));  // 7 does not divide 60
}

}  // namespace
}  // namespace ms::rt
