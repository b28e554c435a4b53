// The app registry is the one place that turns (T, size, iters) into an
// app config; these pin its table against the configs the figures cite.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string_view>

#include "apps/cf_app.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/registry.hpp"
#include "apps/srad_app.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

TEST(Registry, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const AppEntry& app : registry()) {
    EXPECT_TRUE(names.insert(app.name).second) << app.name;
    EXPECT_EQ(find_app(app.name), &app);
  }
  EXPECT_EQ(names.size(), 8u);
  EXPECT_EQ(find_app("fig5"), nullptr);
}

TEST(Registry, NonSquareTilesThrowForTwoDimensionalApps) {
  for (const AppEntry& app : registry()) {
    if (!app.square_tiles) continue;
    EXPECT_FALSE(app.check({10, 240}).empty()) << app.name;
    EXPECT_THROW((void)app.run(cfg(), timing_common(4), {10, 240}), std::invalid_argument)
        << app.name;
  }
  EXPECT_TRUE(find_app("kmeans")->check({10, 2000}).empty());
  EXPECT_THROW((void)find_app("nn")->run(cfg(), timing_common(4), {4, 2000, 7}),
               std::invalid_argument);
}

// kmeans-async issues every action directly (it has no GraphPhase), so a
// Compiled run of it would only rerun the Direct one: it is refused.
TEST(Registry, CompiledModeOnlyForAppsThatCompile) {
  for (const AppEntry& app : registry()) {
    EXPECT_EQ(app.check({4, 2000}, GraphMode::Compiled).empty(), app.compiles) << app.name;
  }
  const AppEntry& async = *find_app("kmeans-async");
  EXPECT_FALSE(async.compiles);
  EXPECT_EQ(async.check({4, 2000}, GraphMode::Compiled),
            "kmeans-async has no compiled-graph mode (it issues every action directly)");
  CommonConfig compiled = timing_common(4);
  compiled.graph = GraphMode::Compiled;
  EXPECT_THROW((void)async.run(cfg(), compiled, {4, 2000, 3}), std::invalid_argument);
}

// Fig. 9's captions: MM 6000 with 500x500 tiles, CF 9600 with 800x800,
// Hotspot 16384 with 1024x1024 (50 steps), SRAD 10000 with 500x500.
TEST(Registry, TileMappingReproducesFig9Captions) {
  const CommonConfig common = timing_common(4);

  MmConfig mc;
  mc.common = common;
  mc.dim = 6000;
  mc.tile_grid = 12;
  EXPECT_DOUBLE_EQ(find_app("mm")->run(cfg(), common, {144, 6000}).ms, MmApp::run(cfg(), mc).ms);

  CfConfig cc;
  cc.common = common;
  cc.dim = 9600;
  cc.tile = 800;
  EXPECT_DOUBLE_EQ(find_app("cf")->run(cfg(), common, {144, 9600}).ms, CfApp::run(cfg(), cc).ms);

  HotspotConfig hc;
  hc.common = common;
  hc.rows = hc.cols = 16384;
  hc.tile_rows = hc.tile_cols = 1024;
  hc.steps = 50;
  EXPECT_DOUBLE_EQ(find_app("hotspot")->run(cfg(), common, {256, 16384, 50}).ms,
                   HotspotApp::run(cfg(), hc).ms);

  SradConfig sc;
  sc.common = common;
  sc.rows = sc.cols = 10000;
  sc.tile_rows = sc.tile_cols = 500;
  sc.iterations = 100;
  EXPECT_DOUBLE_EQ(find_app("srad")->run(cfg(), common, {400, 10000, 100}).ms,
                   SradApp::run(cfg(), sc).ms);
}

}  // namespace
}  // namespace ms::apps
