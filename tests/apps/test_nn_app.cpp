#include "apps/nn_app.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "trace/timeline.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

NnConfig small(bool streamed) {
  NnConfig nc;
  nc.records = 5000;
  nc.tiles = 8;
  nc.k = 10;
  nc.common.partitions = 4;
  nc.common.streamed = streamed;
  return nc;
}

TEST(NnApp, StreamedMatchesBaselineTopK) {
  const auto s = NnApp::run_with_output(cfg(), small(true));
  const auto b = NnApp::run_with_output(cfg(), small(false));
  ASSERT_EQ(s.neighbors.size(), b.neighbors.size());
  for (std::size_t i = 0; i < s.neighbors.size(); ++i) {
    EXPECT_FLOAT_EQ(s.neighbors[i].dist, b.neighbors[i].dist) << i;
  }
}

TEST(NnApp, MatchesExhaustiveReference) {
  const auto out = NnApp::run_with_output(cfg(), small(true));
  // Rebuild the same records (same seed) and compare with the oracle.
  std::vector<kern::LatLng> records(5000);
  fill_uniform(std::span<float>(reinterpret_cast<float*>(records.data()), 10000), 7, 0.0f,
               180.0f);
  const auto expect = kern::nn_reference(records.data(), records.size(), {40.0f, 120.0f}, 10);
  ASSERT_EQ(out.neighbors.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(out.neighbors[i].dist, expect[i].dist) << i;
  }
}

TEST(NnApp, TopKIsSortedAscending) {
  const auto out = NnApp::run_with_output(cfg(), small(true));
  for (std::size_t i = 1; i < out.neighbors.size(); ++i) {
    EXPECT_LE(out.neighbors[i - 1].dist, out.neighbors[i].dist);
  }
}

TEST(NnApp, ChecksumStableAcrossTiling) {
  double first = 0.0;
  bool have = false;
  for (const int t : {1, 2, 8, 16}) {
    auto nc = small(true);
    nc.tiles = t;
    const auto r = NnApp::run(cfg(), nc);
    if (!have) {
      first = r.checksum;
      have = true;
    } else {
      EXPECT_NEAR(r.checksum, first, 1e-5 * std::abs(first) + 1e-12) << "T=" << t;
    }
  }
}

TEST(NnApp, IsTransferBound) {
  // Fig. 10(e) rationale: performance is bounded by data transfers — the
  // transfer busy time dominates the kernel busy time at paper scale.
  NnConfig nc;
  nc.records = 5242880;
  nc.tiles = 64;
  nc.common.partitions = 4;
  nc.common.functional = false;
  nc.common.tracing = true;
  const auto r = NnApp::run(cfg(), nc);
  const auto transfer =
      r.timeline.busy(trace::SpanKind::H2D) + r.timeline.busy(trace::SpanKind::D2H);
  // Transfers serialize on one engine, kernels spread over 4 partitions: the
  // link is the bottleneck resource when its busy time exceeds the kernels'
  // wall-clock share, and the elapsed time tracks the transfer time.
  EXPECT_GT(transfer, r.timeline.busy(trace::SpanKind::Kernel) / 4.0);
  EXPECT_LT(r.ms, transfer.millis() * 1.6);
}

TEST(NnApp, StreamedOverlapsTransfersWithKernels) {
  auto nc = small(true);
  nc.records = 200000;
  nc.common.functional = false;
  nc.common.tracing = true;
  const auto r = NnApp::run(cfg(), nc);
  EXPECT_GT(r.timeline.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel),
            sim::SimTime::zero());
}

TEST(NnApp, PerformanceFlatBeyondFourPartitions) {
  // Fig. 9(e): time drops sharply until P=4, then stays flat (~transfer
  // bound). Check P=8..28 stay within a narrow band of P=4.
  NnConfig nc;
  nc.records = 5242880;
  nc.tiles = 512;
  nc.common.functional = false;
  std::vector<double> ms;
  for (const int p : {1, 4, 8, 14, 28}) {
    nc.common.partitions = p;
    ms.push_back(NnApp::run(cfg(), nc).ms);
  }
  EXPECT_GT(ms[0], ms[1]);  // P=1 clearly worse
  for (std::size_t i = 2; i < ms.size(); ++i) {
    EXPECT_NEAR(ms[i] / ms[1], 1.0, 0.15) << i;
  }
}

TEST(NnApp, InvalidConfigThrows) {
  auto nc = small(true);
  nc.k = 0;
  EXPECT_THROW(NnApp::run(cfg(), nc), std::invalid_argument);
  nc = small(true);
  nc.tiles = 0;
  EXPECT_THROW(NnApp::run(cfg(), nc), std::invalid_argument);
}

}  // namespace
}  // namespace ms::apps
