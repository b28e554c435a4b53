#include "trace/energy.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "apps/mm_app.hpp"

namespace ms::trace {
namespace {

Span make(SpanKind k, double start_ms, double end_ms, int partition = 0) {
  Span s;
  s.kind = k;
  s.partition = partition;
  s.start = sim::SimTime::millis(start_ms);
  s.end = sim::SimTime::millis(end_ms);
  return s;
}

sim::CoprocessorSpec phi() { return sim::SimConfig::phi_31sp().device; }

TEST(Energy, EmptyTimelineIsZero) {
  EXPECT_DOUBLE_EQ(measure_energy(Timeline{}, phi()).total_j(), 0.0);
}

TEST(Energy, ZeroHorizonTimelineIsFinite) {
  // All-instantaneous spans: elapsed 0, every term 0, and the mean-Watts
  // print must not divide by the zero elapsed time.
  Timeline t;
  t.record(make(SpanKind::Kernel, 5.0, 5.0));
  const auto r = measure_energy(t, phi());
  EXPECT_DOUBLE_EQ(r.elapsed_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.total_j(), 0.0);

  std::ostringstream os;
  print(os, r);
  EXPECT_EQ(os.str().find("nan"), std::string::npos);
  EXPECT_EQ(os.str().find("inf"), std::string::npos);
}

TEST(Energy, PrintsReadableSummary) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 0.0, 1000.0));
  t.record(make(SpanKind::H2D, 0.0, 500.0));
  std::ostringstream os;
  print(os, measure_energy(t, phi()));
  const std::string s = os.str();
  EXPECT_NE(s.find("energy"), std::string::npos);
  EXPECT_NE(s.find("idle"), std::string::npos);
  EXPECT_NE(s.find(" W)"), std::string::npos);
}

TEST(Energy, IdleEnergyCoversWholeSpan) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 0.0, 1000.0));  // 1 s
  const auto r = measure_energy(t, phi());
  EXPECT_DOUBLE_EQ(r.elapsed_ms, 1000.0);
  EXPECT_DOUBLE_EQ(r.idle_j, 95.0);  // 95 W x 1 s
}

TEST(Energy, SinglePartitionKernelChargesAllCores) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 0.0, 1000.0));
  const auto r = measure_energy(t, phi());
  EXPECT_DOUBLE_EQ(r.compute_j, 3.0 * 56.0);  // 3 W/core x 56 cores x 1 s
}

TEST(Energy, FourPartitionsShareTheCores) {
  // Four concurrent kernels on quarter-partitions burn the same compute
  // energy as one whole-device kernel of the same duration.
  Timeline t;
  for (int p = 0; p < 4; ++p) t.record(make(SpanKind::Kernel, 0.0, 1000.0, p));
  const auto r = measure_energy(t, phi());
  EXPECT_DOUBLE_EQ(r.compute_j, 3.0 * 56.0);
}

TEST(Energy, TransfersChargeTheLink) {
  Timeline t;
  t.record(make(SpanKind::H2D, 0.0, 500.0));
  t.record(make(SpanKind::D2H, 500.0, 1000.0));
  const auto r = measure_energy(t, phi());
  EXPECT_DOUBLE_EQ(r.link_j, 12.0);  // 12 W over a total of 1 s of DMA
}

TEST(Energy, PerJouleMetric) {
  Timeline t;
  t.record(make(SpanKind::Kernel, 0.0, 1000.0));
  const auto r = measure_energy(t, phi());
  const double flops = 500e9;
  EXPECT_NEAR(r.per_joule(flops) / 1e9, 500.0 / r.total_j(), 1e-9);
  EXPECT_DOUBLE_EQ(EnergyReport{}.per_joule(1.0), 0.0);
}

TEST(Energy, StreamedMmBeatsBaselinePerWatt) {
  // The paper's intro claim, measured: the streamed port finishes sooner,
  // spends less idle energy, and therefore wins performance-per-Watt by
  // MORE than its speedup.
  apps::MmConfig mc;
  mc.dim = 6000;
  mc.tile_grid = 12;
  mc.common.partitions = 4;
  mc.common.functional = false;
  mc.common.protocol_iterations = 1;
  const auto streamed = apps::MmApp::run(sim::SimConfig::phi_31sp(), mc);
  mc.common.streamed = false;
  const auto baseline = apps::MmApp::run(sim::SimConfig::phi_31sp(), mc);

  const double flops = apps::MmApp::total_flops(mc.dim);
  const auto es = measure_energy(streamed.timeline, phi());
  const auto eb = measure_energy(baseline.timeline, phi());
  const double flops_per_j_streamed = es.per_joule(flops);
  const double flops_per_j_baseline = eb.per_joule(flops);
  EXPECT_GT(flops_per_j_streamed, flops_per_j_baseline);
}

TEST(Energy, SyncAndAllocSpansAreFree) {
  Timeline t;
  t.record(make(SpanKind::Sync, 0.0, 100.0));
  const auto r = measure_energy(t, phi());
  EXPECT_DOUBLE_EQ(r.compute_j, 0.0);
  EXPECT_DOUBLE_EQ(r.link_j, 0.0);
  EXPECT_GT(r.idle_j, 0.0);
}

}  // namespace
}  // namespace ms::trace
