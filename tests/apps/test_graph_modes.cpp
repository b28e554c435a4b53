// The apps' replay-shaped inner loops through the graph executor: for every
// ported app, functional checksums must be identical across the Direct and
// Compiled issue modes, and compiled virtual times must stay BIT-identical to
// pinned values — on one card and two, and regardless of the kernel engine's
// thread count. The pins are C99 hex-float literals: only a deliberate
// change to replay pricing or scheduling order may move them. The process
// graph cache must never hand one schedule's plan to a run of another.

#include <gtest/gtest.h>

#include "apps/cf_app.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/lu_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"

namespace ms::apps {
namespace {

struct Modes {
  AppResult direct;
  AppResult compiled;
};

template <typename App, typename Config>
Modes run_modes(const sim::SimConfig& cfg, Config c) {
  Modes m;
  c.common.graph = GraphMode::Direct;
  m.direct = App::run(cfg, c);
  c.common.graph = GraphMode::Compiled;
  m.compiled = App::run(cfg, c);
  return m;
}

void expect_identical(const Modes& m, double pinned_ms) {
  // Functional results do not depend on the issue mode at all.
  EXPECT_EQ(m.compiled.checksum, m.direct.checksum);
  // Replay pricing differs from per-enqueue pricing (and is cheaper), but
  // the replayed virtual time itself is pinned to the bit.
  EXPECT_EQ(m.compiled.ms, pinned_ms);
  EXPECT_GT(m.direct.ms, m.compiled.ms);
}

MmConfig mm_cfg() {
  MmConfig c;
  c.dim = 128;
  c.tile_grid = 4;
  c.common.partitions = 4;
  return c;
}

NnConfig nn_cfg() {
  NnConfig c;
  c.records = 4096;
  c.tiles = 4;
  c.k = 8;
  c.common.partitions = 4;
  return c;
}

KmeansConfig kmeans_cfg() {
  KmeansConfig c;
  c.points = 2000;
  c.dims = 6;
  c.clusters = 4;
  c.iterations = 5;
  c.tiles = 4;
  c.common.partitions = 4;
  return c;
}

HotspotConfig hotspot_cfg() {
  HotspotConfig c;
  c.rows = 64;
  c.cols = 64;
  c.tile_rows = 16;
  c.tile_cols = 32;
  c.steps = 4;
  c.common.partitions = 4;
  return c;
}

SradConfig srad_cfg() {
  SradConfig c;
  c.rows = 64;
  c.cols = 64;
  c.tile_rows = 16;
  c.tile_cols = 64;
  c.iterations = 3;
  c.common.partitions = 4;
  return c;
}

CfConfig cf_cfg() {
  CfConfig c;
  c.dim = 128;
  c.tile = 32;
  c.common.partitions = 4;
  return c;
}

LuConfig lu_cfg() {
  LuConfig c;
  c.dim = 128;
  c.tile = 32;
  c.common.partitions = 4;
  return c;
}

TEST(GraphModes, MmIdenticalAcrossModes) {
  expect_identical(run_modes<MmApp>(sim::SimConfig::phi_31sp(), mm_cfg()), 0x1.5d9b2deeb0be7p-1);
}

TEST(GraphModes, NnIdenticalAcrossModes) {
  expect_identical(run_modes<NnApp>(sim::SimConfig::phi_31sp(), nn_cfg()), 0x1.2315e1d69c63dp-1);
}

TEST(GraphModes, KmeansIdenticalAcrossModes) {
  expect_identical(run_modes<KmeansApp>(sim::SimConfig::phi_31sp(), kmeans_cfg()),
                   0x1.6d5c8bda0315cp+3);
}

TEST(GraphModes, HotspotIdenticalAcrossModes) {
  expect_identical(run_modes<HotspotApp>(sim::SimConfig::phi_31sp(), hotspot_cfg()),
                   0x1.1e878bb6a7ae5p+0);
}

TEST(GraphModes, SradIdenticalAcrossModes) {
  expect_identical(run_modes<SradApp>(sim::SimConfig::phi_31sp(), srad_cfg()),
                   0x1.db6b758090937p+0);
}

TEST(GraphModes, CfIdenticalAcrossModes) {
  expect_identical(run_modes<CfApp>(sim::SimConfig::phi_31sp(), cf_cfg()), 0x1.037bb6a201ad5p+0);
}

TEST(GraphModes, LuIdenticalAcrossModes) {
  expect_identical(run_modes<LuApp>(sim::SimConfig::phi_31sp(), lu_cfg()), 0x1.26a3659a74171p+0);
}

// Two cards: the multi-device apps route coherence round trips through
// per-card transfer streams; the capture must reproduce those too.
TEST(GraphModes, CfIdenticalAcrossModesOnTwoCards) {
  expect_identical(run_modes<CfApp>(sim::SimConfig::phi_31sp_x2(), cf_cfg()), 0x1.618c04ee4830ap+0);
}

TEST(GraphModes, LuIdenticalAcrossModesOnTwoCards) {
  expect_identical(run_modes<LuApp>(sim::SimConfig::phi_31sp_x2(), lu_cfg()), 0x1.8043583f97b5ap+0);
}

TEST(GraphModes, MmIdenticalAcrossModesOnTwoCards) {
  expect_identical(run_modes<MmApp>(sim::SimConfig::phi_31sp_x2(), mm_cfg()), 0x1.da693ccf7ec5ap-1);
}

template <typename Config>
Config timing_only(Config c) {
  c.common.functional = false;
  c.common.graph = GraphMode::Compiled;
  return c;
}

// Timing-only runs consult the process-wide graph cache: a repeat run of the
// same app geometry must hit, not recompile.
TEST(GraphModes, TimingOnlyRunsShareCachedPlans) {
  const auto c = timing_only(kmeans_cfg());
  const auto first = KmeansApp::run(sim::SimConfig::phi_31sp(), c);
  const auto misses_after_first = rt::process_graph_cache().misses();
  const auto hits_before = rt::process_graph_cache().hits();
  const auto second = KmeansApp::run(sim::SimConfig::phi_31sp(), c);
  EXPECT_EQ(second.ms, first.ms);
  EXPECT_EQ(rt::process_graph_cache().misses(), misses_after_first);
  EXPECT_GE(rt::process_graph_cache().hits(), hits_before + 1);
}

// The cache matches the recorded schedule itself, so runs whose schedules
// differ never share a plan, whatever ran before them.
template <typename App, typename Config>
void expect_cold_equals_after(const Config& earlier, const Config& later) {
  rt::process_graph_cache().clear();
  const double cold = App::run(sim::SimConfig::phi_31sp(), later).ms;
  rt::process_graph_cache().clear();
  (void)App::run(sim::SimConfig::phi_31sp(), earlier);
  EXPECT_EQ(App::run(sim::SimConfig::phi_31sp(), later).ms, cold);
  EXPECT_EQ(rt::process_graph_cache().hits(), 0u);
}

TEST(GraphModes, KmeansCacheSeparatesDimsAndClusters) {
  auto small = timing_only(kmeans_cfg());
  small.dims = 34;
  small.clusters = 8;
  auto big = small;
  big.dims = 68;
  big.clusters = 16;
  expect_cold_equals_after<KmeansApp>(small, big);
}

TEST(GraphModes, HotspotCacheSeparatesTileShapes) {
  auto wide = timing_only(hotspot_cfg());
  wide.rows = 256;
  wide.cols = 256;
  wide.tile_rows = 64;
  wide.tile_cols = 128;
  auto tall = wide;
  tall.tile_rows = 128;
  tall.tile_cols = 64;
  expect_cold_equals_after<HotspotApp>(tall, wide);
}

// A functional run's transfer-only load phase is shared through the cache;
// each executor resolves the payloads against its own context's buffers.
TEST(GraphModes, FunctionalHotspotLoadPlanFromCacheKeepsChecksum) {
  auto c = hotspot_cfg();
  c.common.graph = GraphMode::Compiled;
  const AppResult first = HotspotApp::run(sim::SimConfig::phi_31sp(), c);
  const auto hits_before = rt::process_graph_cache().hits();
  const AppResult second = HotspotApp::run(sim::SimConfig::phi_31sp(), c);
  EXPECT_EQ(rt::process_graph_cache().hits(), hits_before + 1);
  EXPECT_EQ(second.checksum, first.checksum);
  EXPECT_EQ(second.ms, first.ms);
  c.common.graph = GraphMode::Direct;
  EXPECT_EQ(second.checksum, HotspotApp::run(sim::SimConfig::phi_31sp(), c).checksum);
}

}  // namespace
}  // namespace ms::apps
