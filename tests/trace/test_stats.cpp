#include "trace/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ms::trace {
namespace {

TEST(MeanSkipFirst, DropsWarmup) {
  EXPECT_DOUBLE_EQ(mean_skip_first({100.0, 10.0, 20.0}), 15.0);
}

TEST(MeanSkipFirst, TwoSamplesUsesSecond) {
  EXPECT_DOUBLE_EQ(mean_skip_first({99.0, 7.0}), 7.0);
}

TEST(MeanSkipFirst, TooFewSamplesThrows) {
  EXPECT_THROW((void)mean_skip_first({1.0}), std::invalid_argument);
  EXPECT_THROW((void)mean_skip_first({}), std::invalid_argument);
}

TEST(Gflops, Conversion) {
  EXPECT_DOUBLE_EQ(gflops(2e9, 1000.0), 2.0);  // 2 GFLOP in 1 s
  EXPECT_DOUBLE_EQ(gflops(1e9, 1.0), 1000.0);  // 1 GFLOP in 1 ms
  EXPECT_DOUBLE_EQ(gflops(1e9, 0.0), 0.0);     // guard
}

}  // namespace
}  // namespace ms::trace
