#include "sim/cost_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace ms::sim {
namespace {

SimConfig cfg() { return SimConfig::phi_31sp(); }

PartitionView whole() { return PartitionTable::whole_device(cfg().device); }

KernelWork saxpy(double elems) {
  KernelWork w;
  w.kind = KernelKind::Streaming;
  w.elems = elems;
  return w;
}

KernelWork gemm(double flops) {
  KernelWork w;
  w.kind = KernelKind::Gemm;
  w.flops = flops;
  return w;
}

TEST(CostModel, HBenchCalibrationMatchesFig6) {
  // 4M elements x 40 iterations on the whole device ~= the ~5 ms where the
  // kernel line crosses the data line in Fig. 6.
  CostModel m(cfg());
  const SimTime d = m.compute_duration(saxpy(4.0 * (1 << 20) * 40), whole());
  EXPECT_NEAR(d.millis(), 5.2, 0.6);
}

TEST(CostModel, BigGemmApproachesConfiguredEfficiency) {
  CostModel m(cfg());
  const double flops = 2.0 * 6000.0 * 6000.0 * 6000.0;
  const KernelWork w = gemm(flops);
  const double gf = m.effective_gflops(w, whole());
  const double peak = cfg().device.peak_gflops();
  EXPECT_GT(gf, 0.5 * peak * cfg().efficiency.max_flop_efficiency);
  EXPECT_LT(gf, peak * cfg().efficiency.max_flop_efficiency * 1.01);
}

TEST(CostModel, ComputeScalesInverselyWithThreads) {
  CostModel m(cfg());
  PartitionTable t(cfg().device, 4);
  const KernelWork w = saxpy(1e8);
  const SimTime quarter = m.compute_duration(w, t.view(0));
  const SimTime full = m.compute_duration(w, whole());
  // 56 threads vs 224: about 4x slower (modulo the work-per-thread ramp,
  // which *favours* fewer threads slightly).
  EXPECT_NEAR(quarter / full, 4.0, 0.25);
}

TEST(CostModel, MoreWorkNeverTakesLessTime) {
  CostModel m(cfg());
  SimTime prev = SimTime::zero();
  for (double e = 1e3; e <= 1e9; e *= 10.0) {
    const SimTime d = m.compute_duration(saxpy(e), whole());
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(CostModel, SmallWorkLosesEfficiency) {
  CostModel m(cfg());
  // Throughput (elems per us) should be worse for tiny launches.
  const double small_tp = 1e4 / m.compute_duration(saxpy(1e4), whole()).micros();
  const double big_tp = 1e8 / m.compute_duration(saxpy(1e8), whole()).micros();
  EXPECT_LT(small_tp, 0.5 * big_tp);
}

TEST(CostModel, SplitCorePartitionIsSlower) {
  CostModel m(cfg());
  PartitionTable aligned(cfg().device, 4);   // 56 threads, aligned
  PartitionTable split(cfg().device, 5);     // 45/45/45/45/44, split cores
  const KernelWork w = gemm(1e9);
  const double aligned_rate = w.flops / m.compute_duration(w, aligned.view(0)).micros() /
                              aligned.view(0).threads();
  const double split_rate =
      w.flops / m.compute_duration(w, split.view(1)).micros() / split.view(1).threads();
  EXPECT_LT(split_rate, aligned_rate);
}

TEST(CostModel, StencilLocalityBonusAppliesOnlyToSmallPartitions) {
  CostModel m(cfg());
  KernelWork w;
  w.kind = KernelKind::Stencil;
  w.elems = 1e6;

  PartitionTable small(cfg().device, 28);  // 8 threads = 2 cores -> bonus
  PartitionTable large(cfg().device, 4);   // 14 cores -> no bonus
  KernelWork generic = w;
  generic.kind = KernelKind::Generic;

  const double stencil_speedup = m.compute_duration(generic, small.view(0)) /
                                 m.compute_duration(w, small.view(0));
  EXPECT_NEAR(stencil_speedup, 1.0 / (1.0 - cfg().efficiency.stencil_locality_bonus), 1e-9);

  const double no_speedup =
      m.compute_duration(generic, large.view(0)) / m.compute_duration(w, large.view(0));
  EXPECT_DOUBLE_EQ(no_speedup, 1.0);
}

TEST(CostModel, StencilBonusNotAppliedToWholeDevice) {
  // The baseline (1 partition) never gets the locality bonus even on a tiny
  // hypothetical device, because total_partitions == 1.
  CostModel m(cfg());
  KernelWork w;
  w.kind = KernelKind::Stencil;
  w.elems = 1e6;
  PartitionView v = whole();
  v.cores_spanned = 2;  // artificially small
  KernelWork g = w;
  g.kind = KernelKind::Generic;
  EXPECT_EQ(m.compute_duration(w, v), m.compute_duration(g, v));
}

TEST(CostModel, LaunchOverheadGrowsWithPartitionCount) {
  CostModel m(cfg());
  PartitionTable p4(cfg().device, 4);
  PartitionTable p56(cfg().device, 56);
  EXPECT_LT(m.launch_overhead(p4.view(0)), m.launch_overhead(p56.view(0)));
}

TEST(CostModel, AllocOverheadGrowsWithThreadsAndBytes) {
  CostModel m(cfg());
  PartitionTable p4(cfg().device, 4);
  PartitionTable p56(cfg().device, 56);
  KernelWork per_thread;
  per_thread.temp_alloc_bytes = 1024;
  per_thread.temp_alloc_per_thread = true;
  // The Kmeans mechanism: thread-private allocation on a fat partition
  // costs more.
  EXPECT_GT(m.alloc_overhead(per_thread, p4.view(0)), m.alloc_overhead(per_thread, p56.view(0)));
  KernelWork block;
  block.temp_alloc_bytes = 100.0 * (1 << 20);
  EXPECT_GT(m.alloc_overhead(block, p4.view(0)), m.alloc_overhead(per_thread, p56.view(0)));
  // Block scratch is partition-size independent.
  EXPECT_EQ(m.alloc_overhead(block, p4.view(0)), m.alloc_overhead(block, p56.view(0)));
  KernelWork none;
  EXPECT_EQ(m.alloc_overhead(none, p4.view(0)), SimTime::zero());
}

TEST(CostModel, KernelDurationIsSumOfParts) {
  CostModel m(cfg());
  KernelWork w = saxpy(1e6);
  w.temp_alloc_bytes = 4096;
  w.temp_alloc_per_thread = true;
  const auto part = whole();
  EXPECT_EQ(m.kernel_duration(w, part),
            m.launch_overhead(part) + m.alloc_overhead(w, part) + m.compute_duration(w, part));
}

TEST(CostModel, KernelDurationRejectsNegativeOrNonFiniteWork) {
  CostModel m(cfg());
  const auto part = whole();
  const double bad[] = {-1.0, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    KernelWork w = gemm(1e6);
    w.flops = v;
    EXPECT_THROW((void)m.kernel_duration(w, part), std::invalid_argument) << "flops " << v;
    w = saxpy(1e6);
    w.elems = v;
    EXPECT_THROW((void)m.kernel_duration(w, part), std::invalid_argument) << "elems " << v;
    w = saxpy(1e6);
    w.temp_alloc_bytes = v;
    EXPECT_THROW((void)m.kernel_duration(w, part), std::invalid_argument) << "temp " << v;
  }
  // Zero (either sign) is valid work.
  KernelWork zero;
  zero.flops = -0.0;
  EXPECT_EQ(m.kernel_duration(zero, part), m.kernel_duration(KernelWork{}, part));
}

TEST(CostModel, SyncOverheadScalesWithStreamsAndCrossDevice) {
  CostModel m(cfg());
  EXPECT_LT(m.sync_overhead(1, false), m.sync_overhead(16, false));
  EXPECT_LT(m.sync_overhead(4, false), m.sync_overhead(4, true));
}

TEST(CostModel, ZeroThreadPartitionThrows) {
  CostModel m(cfg());
  PartitionView v;
  v.thread_begin = 0;
  v.thread_end = 0;
  EXPECT_THROW((void)m.compute_duration(saxpy(10), v), std::invalid_argument);
}

TEST(CostModel, InvalidConfigRejectedAtConstruction) {
  SimConfig bad = cfg();
  bad.efficiency.max_flop_efficiency = 1.5;
  EXPECT_THROW(CostModel{bad}, std::invalid_argument);
  bad = cfg();
  bad.link.bandwidth_gib_s = -1.0;
  EXPECT_THROW(CostModel{bad}, std::invalid_argument);
  bad = cfg();
  bad.device.reserved_cores = 57;
  EXPECT_THROW(CostModel{bad}, std::invalid_argument);
}

TEST(CostModel, KernelKindNames) {
  EXPECT_STREQ(to_string(KernelKind::Gemm), "gemm");
  EXPECT_STREQ(to_string(KernelKind::Streaming), "streaming");
  EXPECT_STREQ(to_string(KernelKind::Stencil), "stencil");
  EXPECT_STREQ(to_string(KernelKind::Reduction), "reduction");
  EXPECT_STREQ(to_string(KernelKind::CholeskyTask), "cholesky-task");
  EXPECT_STREQ(to_string(KernelKind::Generic), "generic");
}

// Property: across every partition count, compute duration of a fixed total
// work, summed over partitions running concurrently (i.e. the max over
// partitions when work is split evenly), is minimized near core-aligned
// configurations — weaker form: aligned P is never slower than P+1.
class AlignedVsSplitSweep : public ::testing::TestWithParam<int> {};

TEST_P(AlignedVsSplitSweep, AlignedBeatsNeighborPerThread) {
  const int p = GetParam();  // aligned count
  CostModel m(cfg());
  PartitionTable aligned(cfg().device, p);
  PartitionTable split(cfg().device, p + 1);
  const KernelWork w = gemm(1e10);
  // Per-thread throughput comparison normalizes away the thread count.
  const auto rate = [&](const PartitionView& v) {
    return w.flops / m.compute_duration(w, v).micros() / v.threads();
  };
  EXPECT_GE(rate(aligned.view(0)) * 1.0001, rate(split.view(0)));
}

INSTANTIATE_TEST_SUITE_P(AlignedCounts, AlignedVsSplitSweep, ::testing::Values(2, 4, 7, 8, 14, 28));

}  // namespace
}  // namespace ms::sim
