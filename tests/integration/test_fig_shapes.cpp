// Figure-shape regression tests: full-scale timing-model runs asserting the
// qualitative features EXPERIMENTS.md documents per figure, so calibration
// changes that would bend a paper shape fail loudly here rather than being
// noticed in the bench output.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "apps/hbench.hpp"
#include "apps/registry.hpp"

namespace ms {
namespace {

using apps::timing_common;

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

const apps::AppEntry& app(std::string_view name) { return *apps::find_app(name); }

TEST(FigShapes, Fig5LinesAreLinearInBlocks) {
  // IC rises and CD falls by the same per-block increment.
  const double b0 = apps::HBench::transfer_pattern(cfg(), 0, 16, 1 << 20);
  const double b8 = apps::HBench::transfer_pattern(cfg(), 8, 16, 1 << 20);
  const double b16 = apps::HBench::transfer_pattern(cfg(), 16, 16, 1 << 20);
  EXPECT_NEAR(b8 - b0, b16 - b8, 0.05);
  EXPECT_NEAR((b16 - b0) / 16.0, 0.165, 0.03);  // ~1 MiB / 6.4 GiB/s + setup
}

TEST(FigShapes, Fig9bCfDivisorPeaksAtSmallP) {
  // CF's divisor structure only shows where the factorization DAG has
  // enough width to keep the partitions busy (small P); at large P the
  // wavefront's idle time swamps the per-task contention differences —
  // recorded as a deviation in EXPERIMENTS.md.
  auto at = [](int p) { return app("cf").run(cfg(), timing_common(p), {144, 9600}).gflops; };
  EXPECT_GT(at(2), at(3));  // 2 divides 56, 3 does not
  EXPECT_GT(at(4), at(3));
  EXPECT_GT(at(4), at(5));
}

TEST(FigShapes, Fig9dHotspotPlateauIsLow) {
  auto at = [](int p) {
    return app("hotspot").run(cfg(), timing_common(p), {256, 16384, 50}).ms;
  };
  // The narrow-partition plateau (locality bonus region) beats wide and
  // very fragmented configurations.
  const double plateau = std::min({at(28), at(33), at(35), at(37)});
  EXPECT_LT(plateau, at(16));
  EXPECT_LT(plateau, at(48));
}

TEST(FigShapes, Fig10cKmeansTileUShape) {
  auto at = [](int t) {
    return app("kmeans").run(cfg(), timing_common(4), {t, 1120000, 100}).ms;
  };
  const double t1 = at(1);
  const double t4 = at(4);
  const double t224 = at(224);
  EXPECT_LT(t4, t1);    // under-tiling starves partitions
  EXPECT_LT(t4, t224);  // over-tiling drowns in overheads
}

TEST(FigShapes, Fig8fSradCrossoverPersists) {
  auto gain = [](std::size_t d, int tiles) {
    const apps::AppPoint point{tiles, d, 100};
    const double streamed = app("srad").run(cfg(), timing_common(4), point).ms;
    const double baseline = app("srad").run(cfg(), timing_common(4, false), point).ms;
    return (baseline - streamed) / baseline;
  };
  EXPECT_LT(gain(1000, 4), 0.05);   // small image: no meaningful win
  EXPECT_GT(gain(10000, 16), 0.1);  // large image: clear win (few big tiles)
}

TEST(FigShapes, Fig7MinimumIsInteriorAndAboveRef) {
  std::vector<double> times;
  for (const int p : {1, 8, 128}) {
    times.push_back(apps::HBench::spatial(cfg(), p, 128, 100, 4u << 20));
  }
  const double ref = apps::HBench::spatial_ref(cfg(), 100, 4u << 20);
  EXPECT_LT(times[1], times[0]);
  EXPECT_LT(times[1], times[2]);
  EXPECT_GT(times[1], ref);
}

}  // namespace
}  // namespace ms
