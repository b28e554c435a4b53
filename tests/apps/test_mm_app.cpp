#include "apps/mm_app.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

MmConfig small(bool streamed) {
  MmConfig mc;
  mc.dim = 96;
  mc.tile_grid = 3;
  mc.common.partitions = 4;
  mc.common.streamed = streamed;
  return mc;
}

TEST(MmApp, StreamedMatchesBaselineChecksum) {
  const auto s = MmApp::run(cfg(), small(true));
  const auto b = MmApp::run(cfg(), small(false));
  EXPECT_NEAR(s.checksum, b.checksum, 1e-6 * std::abs(b.checksum));
  EXPECT_GT(s.gflops, 0.0);
  EXPECT_GT(b.gflops, 0.0);
}

TEST(MmApp, ChecksumStableAcrossPartitionCounts) {
  double first = 0.0;
  for (const int p : {1, 2, 4, 7}) {
    auto mc = small(true);
    mc.common.partitions = p;
    const auto r = MmApp::run(cfg(), mc);
    if (p == 1) {
      first = r.checksum;
    } else {
      EXPECT_NEAR(r.checksum, first, 1e-9 * std::abs(first)) << "P=" << p;
    }
  }
}

TEST(MmApp, ChecksumStableAcrossTileGrids) {
  double first = 0.0;
  bool have = false;
  for (const int g : {1, 2, 4, 8}) {
    auto mc = small(true);
    mc.dim = 64;
    mc.tile_grid = g;
    const auto r = MmApp::run(cfg(), mc);
    if (!have) {
      first = r.checksum;
      have = true;
    } else {
      EXPECT_NEAR(r.checksum, first, 1e-9 * std::abs(first)) << "g=" << g;
    }
  }
}

TEST(MmApp, StreamedVersionOverlapsTransfersWithCompute) {
  auto mc = small(true);
  mc.common.tracing = true;
  const auto r = MmApp::run(cfg(), mc);
  EXPECT_GT(r.timeline.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel),
            sim::SimTime::zero());
}

TEST(MmApp, BaselineMovesSameDataVolume) {
  // Band sharing: streamed must transfer 2 D^2 in and D^2 out, like the
  // baseline (no re-send amplification).
  auto streamed = small(true);
  auto baseline = small(false);
  streamed.common.tracing = baseline.common.tracing = true;
  const auto s = MmApp::run(cfg(), streamed);
  const auto b = MmApp::run(cfg(), baseline);
  auto h2d_bytes = [](const trace::Timeline& t) {
    std::uint64_t total = 0;
    for (const auto& sp : t.spans()) {
      if (sp.kind == trace::SpanKind::H2D) total += sp.bytes;
    }
    return total;
  };
  EXPECT_EQ(h2d_bytes(s.timeline), h2d_bytes(b.timeline));
}

TEST(MmApp, TimingOnlyModeRunsWithoutData) {
  auto mc = small(true);
  mc.common.functional = false;
  mc.dim = 6000;  // paper scale: impossible to hold functionally in tests
  mc.tile_grid = 10;
  const auto r = MmApp::run(cfg(), mc);
  EXPECT_GT(r.ms, 0.0);
  EXPECT_GT(r.gflops, 100.0);  // should be in the paper's few-hundred range
  EXPECT_EQ(r.checksum, 0.0);
}

TEST(MmApp, InvalidTileGridThrows) {
  auto mc = small(true);
  mc.dim = 97;  // prime: 3 does not divide it
  EXPECT_THROW(MmApp::run(cfg(), mc), std::invalid_argument);
  mc = small(true);
  mc.tile_grid = 0;
  EXPECT_THROW(MmApp::run(cfg(), mc), std::invalid_argument);
}

TEST(MmApp, FlopFormula) {
  EXPECT_DOUBLE_EQ(MmApp::total_flops(100), 2e6);
}

TEST(MmApp, MoreProtocolIterationsGiveSameMean) {
  auto mc = small(true);
  mc.common.protocol_iterations = 2;
  const auto a = MmApp::run(cfg(), mc);
  mc.common.protocol_iterations = 5;
  const auto b = MmApp::run(cfg(), mc);
  EXPECT_NEAR(a.ms, b.ms, 1e-9);  // deterministic simulator
}

}  // namespace
}  // namespace ms::apps
