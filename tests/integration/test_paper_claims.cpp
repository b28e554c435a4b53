// Integration tests pinning the paper's six concluding observations
// (Section VII) at test-friendly scales. The bench harness reproduces the
// full figures; these tests keep the *claims* from regressing.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "apps/hbench.hpp"
#include "apps/registry.hpp"
#include "rt/tuner.hpp"

namespace ms {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

TEST(PaperClaims, C1_TransfersBothDirectionsSerialize) {
  // "The data transfers in both directions on Phi cannot run concurrently."
  const double one_way = apps::HBench::transfer_pattern(cfg(), 16, 0, 1 << 20);
  const double both = apps::HBench::transfer_pattern(cfg(), 16, 16, 1 << 20);
  EXPECT_NEAR(both / one_way, 2.0, 0.1);  // sum, not max
}

TEST(PaperClaims, C2_TransfersOverlapKernelsButNotFully) {
  // "Data transferring on Phi overlaps kernel execution, but the full
  // overlap seems not achievable."
  const auto p = apps::HBench::overlap(cfg(), 4u << 20, 40, 4, 8);
  EXPECT_LT(p.streamed_ms, 0.95 * p.serial_ms);
  EXPECT_GT(p.streamed_ms, 1.05 * p.ideal_ms);
}

TEST(PaperClaims, C3_SpatialSharingAloneDoesNotHelp) {
  // "Using multiple streams might not lead to a performance increase only in
  // the presence of spatial resource sharing."
  const double ref = apps::HBench::spatial_ref(cfg(), 100, 4u << 20);
  const auto rec = rt::Tuner::partition_candidates(cfg().device);
  for (const int p : rec) {
    EXPECT_GT(apps::HBench::spatial(cfg(), p, 128, 100, 4u << 20), ref) << p;
  }
}

/// Virtual ms of `app` at `point` under the paper-scale timing knobs.
double run_ms(std::string_view app, const sim::SimConfig& c, int partitions,
              const apps::AppPoint& point, bool streamed = true) {
  return apps::find_app(app)->run(c, apps::timing_common(partitions, streamed), point).ms;
}

TEST(PaperClaims, C4_OverlappableAppsBenefitAtScale) {
  // "Being overlappable is a must for benefits" — MM (overlappable) gains
  // from streams at paper scale (Fig. 8(a): +8.3% on average).
  const double streamed = run_ms("mm", cfg(), 4, {16, 6000});
  const double baseline = run_ms("mm", cfg(), 4, {16, 6000}, false);
  EXPECT_LT(streamed, baseline);
  const double gain = (baseline - streamed) / baseline;
  EXPECT_GT(gain, 0.03);
  EXPECT_LT(gain, 0.40);
}

TEST(PaperClaims, C4b_CfGainsMoreThanMm) {
  // Fig. 8: CF improves ~24% vs MM ~8% — CF has more pipeline stages to
  // overlap. Require CF's relative gain to exceed MM's.
  const double mm_s = run_ms("mm", cfg(), 4, {16, 6000});
  const double mm_b = run_ms("mm", cfg(), 4, {16, 6000}, false);
  const double cf_s = run_ms("cf", cfg(), 4, {100, 9600});
  const double cf_b = run_ms("cf", cfg(), 4, {100, 9600}, false);

  const double mm_gain = (mm_b - mm_s) / mm_b;
  const double cf_gain = (cf_b - cf_s) / cf_b;
  EXPECT_GT(cf_gain, mm_gain);
}

TEST(PaperClaims, C5_TaskAndResourceGranularityMatter) {
  // "Both task granularity and resource granularity have a large impact."
  // Sweep T for MM at fixed P: the spread between best and worst must be
  // substantial (Fig. 10(a)).
  double best = 1e300;
  double worst = 0.0;
  for (const int tiles : {1, 4, 16, 100, 400}) {
    const double ms = run_ms("mm", cfg(), 4, {tiles, 6000});
    best = std::min(best, ms);
    worst = std::max(worst, ms);
  }
  EXPECT_GT(worst / best, 1.15);
}

TEST(PaperClaims, C7_TwoMicsFasterButBelowProjection) {
  // Section VI / Fig. 11: two cards beat one, but stay under 2x.
  const double one = run_ms("cf", sim::SimConfig::phi_31sp(), 4, {100, 4800});
  const double two = run_ms("cf", sim::SimConfig::phi_31sp_x2(), 4, {100, 4800});
  EXPECT_LT(two, one);            // faster
  EXPECT_GT(two, one / 2.0);      // but below the 2x projection
}

TEST(PaperClaims, DivisorPartitionsBeatNeighborsForMm) {
  // Fig. 9(a): P in {2,4,7,8,14,28,56} runs "much faster" than neighbours.
  // T = 100 gives plenty of tasks for any P.
  auto run_p = [](int p) { return run_ms("mm", cfg(), p, {100, 6000}); };
  EXPECT_LT(run_p(28), run_p(27));
  EXPECT_LT(run_p(28), run_p(29));
  EXPECT_LT(run_p(14), run_p(13));
  EXPECT_LT(run_p(14), run_p(15));
}

}  // namespace
}  // namespace ms
