#include "sim/pcie_link.hpp"

#include <gtest/gtest.h>

namespace ms::sim {
namespace {

constexpr std::size_t kMiB = 1u << 20;

LinkSpec paper_link() { return SimConfig::phi_31sp().link; }

TEST(PcieLink, TransferDurationIsLatencyPlusBytesOverBandwidth) {
  PcieLink link(paper_link());
  const SimTime d = link.transfer_duration(kMiB);
  // 1 MiB at 6.4 GiB/s = 152.6 us, + 12 us setup.
  EXPECT_NEAR(d.micros(), 12.0 + 1.0 / 6.4 / 1024.0 * 1e6, 1.0);
}

TEST(PcieLink, CalibrationMatchesFig5) {
  // Fig. 5: 16 blocks of 1 MB one-way ~= 2.5 ms; 32 blocks ~= 5.2 ms.
  PcieLink link(paper_link());
  const double block_ms = link.transfer_duration(kMiB).millis();
  EXPECT_NEAR(16.0 * block_ms, 2.6, 0.3);
  EXPECT_NEAR(32.0 * block_ms, 5.2, 0.6);
}

TEST(PcieLink, SerializesBothDirections) {
  PcieLink link(paper_link());
  const auto a = link.reserve(Direction::HostToDevice, SimTime::zero(), kMiB);
  const auto b = link.reserve(Direction::DeviceToHost, SimTime::zero(), kMiB);
  EXPECT_EQ(b.start, a.end);  // the paper's finding #1
}

TEST(PcieLink, DuplexModeOverlapsDirections) {
  LinkSpec spec = paper_link();
  spec.full_duplex = true;
  PcieLink link(spec);
  const auto a = link.reserve(Direction::HostToDevice, SimTime::zero(), kMiB);
  const auto b = link.reserve(Direction::DeviceToHost, SimTime::zero(), kMiB);
  EXPECT_EQ(a.start, SimTime::zero());
  EXPECT_EQ(b.start, SimTime::zero());
}

TEST(PcieLink, DuplexStillSerializesSameDirection) {
  LinkSpec spec = paper_link();
  spec.full_duplex = true;
  PcieLink link(spec);
  const auto a = link.reserve(Direction::HostToDevice, SimTime::zero(), kMiB);
  const auto b = link.reserve(Direction::HostToDevice, SimTime::zero(), kMiB);
  EXPECT_EQ(b.start, a.end);
}

TEST(PcieLink, TracksPerDirectionStats) {
  PcieLink link(paper_link());
  link.reserve(Direction::HostToDevice, SimTime::zero(), 100);
  link.reserve(Direction::HostToDevice, SimTime::zero(), 200);
  link.reserve(Direction::DeviceToHost, SimTime::zero(), 300);
  EXPECT_EQ(link.transfers(Direction::HostToDevice), 2u);
  EXPECT_EQ(link.transfers(Direction::DeviceToHost), 1u);
  EXPECT_EQ(link.bytes_moved(Direction::HostToDevice), 300u);
  EXPECT_EQ(link.bytes_moved(Direction::DeviceToHost), 300u);
}

TEST(PcieLink, ResetClearsState) {
  PcieLink link(paper_link());
  link.reserve(Direction::HostToDevice, SimTime::zero(), kMiB);
  link.reset();
  EXPECT_EQ(link.transfers(Direction::HostToDevice), 0u);
  EXPECT_EQ(link.busy_until(), SimTime::zero());
}

TEST(PcieLink, DirectionNames) {
  EXPECT_STREQ(to_string(Direction::HostToDevice), "H2D");
  EXPECT_STREQ(to_string(Direction::DeviceToHost), "D2H");
}

// Fig. 5 property at the link level: with a serialized engine, total time
// for (hd, dh) blocks depends only on hd + dh.
class SerializedPatternTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SerializedPatternTest, TotalDependsOnlyOnSum) {
  const auto [hd, dh] = GetParam();
  PcieLink link(paper_link());
  SimTime end = SimTime::zero();
  for (int i = 0; i < hd; ++i) end = link.reserve(Direction::HostToDevice, SimTime::zero(), kMiB).end;
  for (int i = 0; i < dh; ++i) end = link.reserve(Direction::DeviceToHost, SimTime::zero(), kMiB).end;
  const double per_block = link.transfer_duration(kMiB).micros();
  EXPECT_NEAR(end.micros(), (hd + dh) * per_block, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Patterns, SerializedPatternTest,
                         ::testing::Values(std::pair{16, 0}, std::pair{0, 16}, std::pair{8, 8},
                                           std::pair{4, 12}, std::pair{16, 16}, std::pair{1, 1}));

}  // namespace
}  // namespace ms::sim
