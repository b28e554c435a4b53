#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ms::sim {
namespace {

TEST(FifoResource, GrantsImmediatelyWhenIdle) {
  FifoResource r;
  const auto g = r.reserve(SimTime::micros(5), SimTime::micros(10));
  EXPECT_EQ(g.start, SimTime::micros(5));
  EXPECT_EQ(g.end, SimTime::micros(15));
  EXPECT_EQ(g.wait, SimTime::zero());
}

TEST(FifoResource, QueuesBehindPriorGrant) {
  FifoResource r;
  r.reserve(SimTime::zero(), SimTime::micros(10));
  const auto g = r.reserve(SimTime::micros(2), SimTime::micros(5));
  EXPECT_EQ(g.start, SimTime::micros(10));
  EXPECT_EQ(g.end, SimTime::micros(15));
  EXPECT_EQ(g.wait, SimTime::micros(8));
}

TEST(FifoResource, IdleGapIsNotBackfilled) {
  // A request that becomes ready late leaves the earlier idle gap unused —
  // FIFO, no reordering.
  FifoResource r;
  r.reserve(SimTime::micros(100), SimTime::micros(10));
  const auto g = r.reserve(SimTime::zero(), SimTime::micros(1));
  EXPECT_EQ(g.start, SimTime::micros(110));
}

TEST(FifoResource, ZeroDurationGrant) {
  FifoResource r;
  const auto g = r.reserve(SimTime::micros(3), SimTime::zero());
  EXPECT_EQ(g.start, g.end);
}

TEST(FifoResource, NegativeDurationThrows) {
  FifoResource r;
  EXPECT_THROW(r.reserve(SimTime::zero(), SimTime::micros(-1)), std::invalid_argument);
}

TEST(FifoResource, AccumulatesStats) {
  FifoResource r;
  r.reserve(SimTime::zero(), SimTime::micros(10));
  r.reserve(SimTime::zero(), SimTime::micros(10));
  EXPECT_EQ(r.grants(), 2u);
  EXPECT_EQ(r.total_busy(), SimTime::micros(20));
  EXPECT_EQ(r.total_wait(), SimTime::micros(10));
  EXPECT_EQ(r.busy_until(), SimTime::micros(20));
}

TEST(FifoResource, ResetRestoresPristineState) {
  FifoResource r;
  r.reserve(SimTime::zero(), SimTime::micros(10));
  r.reset();
  EXPECT_EQ(r.grants(), 0u);
  EXPECT_EQ(r.busy_until(), SimTime::zero());
  const auto g = r.reserve(SimTime::zero(), SimTime::micros(1));
  EXPECT_EQ(g.start, SimTime::zero());
}

// Property sweep: under FIFO, grant start times are non-decreasing when all
// requests are ready at their issue time, and total busy equals the sum of
// durations regardless of arrival pattern.
class FifoPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FifoPropertyTest, StartsMonotoneAndBusyAdds) {
  const int n = GetParam();
  FifoResource r;
  SimTime prev_start = SimTime::zero();
  SimTime expected_busy = SimTime::zero();
  for (int i = 0; i < n; ++i) {
    const SimTime ready = SimTime::micros((i * 7) % 13);
    const SimTime dur = SimTime::micros(1 + (i * 3) % 5);
    const auto g = r.reserve(ready, dur);
    EXPECT_GE(g.start, prev_start);
    EXPECT_GE(g.start, ready);
    EXPECT_EQ(g.end - g.start, dur);
    prev_start = g.start;
    expected_busy += dur;
  }
  EXPECT_EQ(r.total_busy(), expected_busy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FifoPropertyTest, ::testing::Values(1, 2, 8, 64, 512));

}  // namespace
}  // namespace ms::sim
