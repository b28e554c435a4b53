#include "apps/lu_app.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "apps/cf_app.hpp"
#include "kern/lu.hpp"
#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

LuConfig small(bool streamed) {
  LuConfig lc;
  lc.dim = 96;
  lc.tile = 24;
  lc.common.partitions = 4;
  lc.common.streamed = streamed;
  return lc;
}

TEST(LuApp, PackUnpackRoundTrip) {
  const std::size_t n = 12, tb = 4;
  std::vector<double> dense(n * n);
  fill_uniform(std::span<double>(dense), 3, -1.0, 1.0);
  const auto packed = LuApp::pack_tiles(dense, n, tb);
  std::vector<double> back(n * n, 0.0);
  LuApp::unpack_tiles(packed, back, n, tb);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_DOUBLE_EQ(back[i], dense[i]);
}

TEST(LuApp, StreamedMatchesBaselineChecksum) {
  const auto s = LuApp::run(cfg(), small(true));
  const auto b = LuApp::run(cfg(), small(false));
  EXPECT_NEAR(s.checksum, b.checksum, 1e-6 * std::abs(b.checksum));
}

TEST(LuApp, FactorIsActuallyLu) {
  LuConfig lc = small(true);
  const auto r = LuApp::run(cfg(), lc);

  std::vector<double> dense(lc.dim * lc.dim);
  fill_spd(std::span<double>(dense), lc.dim, 1313);  // the app's seed path
  auto reference = dense;
  ASSERT_TRUE(kern::lu_reference(reference.data(), lc.dim, lc.dim));
  double expect = 0.0;
  for (const double x : reference) expect += x;
  EXPECT_NEAR(r.checksum, expect, 1e-6 * std::abs(expect));
}

TEST(LuApp, ChecksumStableAcrossTileSizes) {
  double first = 0.0;
  bool have = false;
  for (const std::size_t tb : {96u, 48u, 24u, 12u}) {
    auto lc = small(true);
    lc.tile = tb;
    const auto r = LuApp::run(cfg(), lc);
    if (!have) {
      first = r.checksum;
      have = true;
    } else {
      EXPECT_NEAR(r.checksum, first, 1e-6 * std::abs(first)) << "tile=" << tb;
    }
  }
}

TEST(LuApp, ChecksumStableAcrossPartitionCounts) {
  double first = 0.0;
  for (const int p : {1, 2, 4}) {
    auto lc = small(true);
    lc.common.partitions = p;
    const auto r = LuApp::run(cfg(), lc);
    if (p == 1) {
      first = r.checksum;
    } else {
      EXPECT_NEAR(r.checksum, first, 1e-9 * std::abs(first)) << "P=" << p;
    }
  }
}

TEST(LuApp, TwoMicsMatchOneMic) {
  // Bit for bit on two and three cards, as for CF.
  const auto one = LuApp::run(sim::SimConfig::phi_31sp(), small(true));
  for (const int cards : {2, 3}) {
    auto c = sim::SimConfig::phi_31sp();
    c.num_devices = cards;
    EXPECT_EQ(LuApp::run(c, small(true)).checksum, one.checksum) << cards << " cards";
  }
}

TEST(LuApp, RoughlyHalfAsEfficientAsCholesky) {
  // The paper's own remark: "the Cholesky factorization is roughly twice as
  // efficient as LU factorization for solving system of linear equations".
  // Same matrix order, same tile size, same streams: LU does 2x the flops,
  // so its time should be ~2x CF's.
  LuConfig lc;
  lc.dim = 4800;
  lc.tile = 480;
  lc.common.partitions = 4;
  lc.common.functional = false;
  const auto lu = LuApp::run(cfg(), lc);

  CfConfig cc;
  cc.dim = 4800;
  cc.tile = 480;
  cc.common.partitions = 4;
  cc.common.functional = false;
  const auto cf = CfApp::run(cfg(), cc);

  EXPECT_NEAR(lu.ms / cf.ms, 2.0, 0.5);
}

TEST(LuApp, OverlapsTransfersWithCompute) {
  LuConfig lc;
  lc.dim = 2400;
  lc.tile = 240;
  lc.common.partitions = 4;
  lc.common.functional = false;
  lc.common.tracing = true;
  const auto r = LuApp::run(cfg(), lc);
  EXPECT_GT(r.timeline.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel),
            sim::SimTime::zero());
}

TEST(LuApp, InvalidTileThrows) {
  auto lc = small(true);
  lc.tile = 37;
  EXPECT_THROW(LuApp::run(cfg(), lc), std::invalid_argument);
}

TEST(LuApp, FlopFormula) {
  EXPECT_DOUBLE_EQ(LuApp::total_flops(1200), 2.0 * 1200.0 * 1200.0 * 1200.0 / 3.0);
}

}  // namespace
}  // namespace ms::apps
