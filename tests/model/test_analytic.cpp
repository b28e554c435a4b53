#include "model/analytic.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "model/ml_tuner.hpp"
#include "model/workload_sim.hpp"

namespace ms::model {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

OffloadShape balanced_shape() {
  // 16 MiB each way, kernel sized near the Fig. 6 crossover.
  OffloadShape s;
  s.h2d_bytes = 16.0 * (1 << 20);
  s.d2h_bytes = 16.0 * (1 << 20);
  s.work.kind = sim::KernelKind::Streaming;
  s.work.elems = 4.0 * (1 << 20) * 40.0;
  return s;
}

TEST(AnalyticModel, TransferTimeMatchesLinkCalibration) {
  AnalyticModel m(cfg());
  EXPECT_NEAR(m.transfer_ms(16.0 * (1 << 20)), 2.5, 0.3);  // Fig. 5 one-way
  EXPECT_DOUBLE_EQ(m.transfer_ms(0.0), 0.0);
}

TEST(AnalyticModel, KernelTimeMatchesCostModel) {
  AnalyticModel m(cfg());
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = 4.0 * (1 << 20) * 40.0;
  EXPECT_NEAR(m.kernel_ms(w, 224), 5.2, 0.6);  // the Fig. 6 kernel line at 40
}

TEST(AnalyticModel, KernelTimeInvalidThreadsThrows) {
  AnalyticModel m(cfg());
  EXPECT_THROW((void)m.kernel_ms(sim::KernelWork{}, 0), std::invalid_argument);
}

TEST(AnalyticModel, SerialPredictionTracksSimulator) {
  AnalyticModel m(cfg());
  const auto shape = balanced_shape();
  const double predicted = m.predict(shape, 4, 4).serial_ms;
  const double simulated = simulate_streamed_ms(cfg(), shape, 1, 1);
  EXPECT_NEAR(predicted / simulated, 1.0, 0.1);
}

TEST(AnalyticModel, StreamedPredictionTracksSimulator) {
  AnalyticModel m(cfg());
  const auto shape = balanced_shape();
  for (const int p : {2, 4, 8}) {
    for (const int t : {4, 8, 16}) {
      const double predicted = m.predict(shape, p, t).streamed_ms;
      const double simulated = simulate_streamed_ms(cfg(), shape, p, t);
      EXPECT_NEAR(predicted / simulated, 1.0, 0.25) << "P=" << p << " T=" << t;
    }
  }
}

TEST(AnalyticModel, PredictionRespectsBounds) {
  AnalyticModel m(cfg());
  const auto shape = balanced_shape();
  const auto p = m.predict(shape, 4, 8);
  EXPECT_GE(p.streamed_ms, p.ideal_ms);     // never beats perfect overlap
  EXPECT_LE(p.streamed_ms, p.serial_ms * 1.05);  // pipelining shouldn't hurt here
  EXPECT_GT(p.speedup, 1.0);
}

TEST(AnalyticModel, ClassifiesTransferBoundWorkloads) {
  AnalyticModel m(cfg());
  OffloadShape io_heavy = balanced_shape();
  io_heavy.work.elems = 1e5;  // trivial kernel
  EXPECT_TRUE(m.predict(io_heavy, 4, 8).transfer_bound);

  OffloadShape compute_heavy = balanced_shape();
  compute_heavy.work.elems = 0.0;
  compute_heavy.work.kind = sim::KernelKind::Gemm;
  compute_heavy.work.flops = 1e12;
  EXPECT_FALSE(m.predict(compute_heavy, 4, 8).transfer_bound);
}

TEST(AnalyticModel, InvalidPredictArgsThrow) {
  AnalyticModel m(cfg());
  EXPECT_THROW((void)m.predict(balanced_shape(), 0, 4), std::invalid_argument);
  EXPECT_THROW((void)m.predict(balanced_shape(), 4, 0), std::invalid_argument);
  EXPECT_THROW((void)m.best_tiles(balanced_shape(), 4, 0), std::invalid_argument);
}

TEST(AnalyticModel, BestTilesIsMultipleOfPartitions) {
  AnalyticModel m(cfg());
  const int best = m.best_tiles(balanced_shape(), 4);
  EXPECT_EQ(best % 4, 0);
  EXPECT_GE(best, 4);
}

TEST(AnalyticModel, BestTilesBeatsSingleRound) {
  // For an overlappable balanced shape, some T > P should beat T = P... or
  // at least never be worse than the model's own T = P point.
  AnalyticModel m(cfg());
  const auto shape = balanced_shape();
  const int best = m.best_tiles(shape, 4);
  EXPECT_LE(m.predict(shape, 4, best).streamed_ms,
            m.predict(shape, 4, 4).streamed_ms * (1.0 + 1e-12));
}

TEST(AnalyticModel, BestConfigurationStaysInPrunedSpace) {
  AnalyticModel m(cfg());
  const auto choice = m.best_configuration(balanced_shape(), 8);
  EXPECT_EQ(56 % choice.partitions, 0);
  EXPECT_EQ(choice.tiles % choice.partitions, 0);
  EXPECT_GT(choice.predicted_ms, 0.0);
  // Its prediction is the minimum over its own space by construction.
  EXPECT_LE(choice.predicted_ms, m.predict(balanced_shape(), 4, 8).streamed_ms + 1e-12);
}

TEST(AnalyticModel, BestConfigurationBeatsNaiveInSimulator) {
  AnalyticModel m(cfg());
  const auto shape = balanced_shape();
  const auto choice = m.best_configuration(shape, 8);
  const double chosen = simulate_streamed_ms(cfg(), shape, choice.partitions, choice.tiles);
  const double naive = simulate_streamed_ms(cfg(), shape, 1, 1);
  EXPECT_LT(chosen, naive);
}

// Property: prediction accuracy across random shapes.
class ModelAccuracySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ModelAccuracySweep, Within35Percent) {
  AnalyticModel m(cfg());
  const OffloadShape shape = KnnTuner::random_shape(GetParam());
  const double predicted = m.predict(shape, 4, 8).streamed_ms;
  const double simulated = simulate_streamed_ms(cfg(), shape, 4, 8);
  EXPECT_NEAR(predicted / simulated, 1.0, 0.35) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelAccuracySweep, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace ms::model
