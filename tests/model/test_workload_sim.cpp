#include "model/workload_sim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ms::model {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

OffloadShape shape_mib(double h2d, double d2h, double elems) {
  OffloadShape s;
  s.h2d_bytes = h2d * (1 << 20);
  s.d2h_bytes = d2h * (1 << 20);
  s.work.kind = sim::KernelKind::Streaming;
  s.work.elems = elems;
  return s;
}

TEST(WorkloadSim, StreamingHelpsBalancedWorkload) {
  const auto s = shape_mib(16, 16, 4.0 * (1 << 20) * 40);
  const double serial = simulate_streamed_ms(cfg(), s, 1, 1);
  const double streamed = simulate_streamed_ms(cfg(), s, 4, 8);
  EXPECT_LT(streamed, serial);
}

TEST(WorkloadSim, PureTransferWorkloadGainsNothing) {
  const auto s = shape_mib(32, 32, 0.0);
  const double serial = simulate_streamed_ms(cfg(), s, 1, 1);
  const double streamed = simulate_streamed_ms(cfg(), s, 4, 8);
  // Transfers serialize; tiling only adds per-command latency.
  EXPECT_GE(streamed, serial * 0.98);
}

TEST(WorkloadSim, ZeroByteDirectionsAreLegal) {
  const auto s = shape_mib(0, 8, 1e6);
  EXPECT_GT(simulate_streamed_ms(cfg(), s, 2, 4), 0.0);
  const auto s2 = shape_mib(8, 0, 1e6);
  EXPECT_GT(simulate_streamed_ms(cfg(), s2, 2, 4), 0.0);
}

TEST(WorkloadSim, InvalidArgsThrow) {
  const auto s = shape_mib(1, 1, 1e5);
  EXPECT_THROW((void)simulate_streamed_ms(cfg(), s, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)simulate_streamed_ms(cfg(), s, 1, 0), std::invalid_argument);
}

TEST(WorkloadSim, Deterministic) {
  const auto s = shape_mib(12, 4, 3e7);
  EXPECT_DOUBLE_EQ(simulate_streamed_ms(cfg(), s, 4, 12), simulate_streamed_ms(cfg(), s, 4, 12));
}

TEST(WorkloadSim, MoreTilesEventuallyHurt) {
  const auto s = shape_mib(16, 16, 1e8);
  const double moderate = simulate_streamed_ms(cfg(), s, 4, 8);
  const double extreme = simulate_streamed_ms(cfg(), s, 4, 2048);
  EXPECT_GT(extreme, moderate);
}

}  // namespace
}  // namespace ms::model
