// The telemetry layer's core contract: host-side observation must never
// perturb the virtual experiment. Every app must produce bit-identical
// virtual times and checksums whether metrics recording is on or off, and
// metric totals must not depend on how many threads did the recording.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/cf_app.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/lu_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"
#include "sim/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace ms::apps {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

/// Run `App` on `c` once with metrics off and once with metrics on, both
/// traced; the runs must be bit-identical in virtual time, checksum, and
/// span count.
template <typename App, typename Config>
void expect_invariant_under_telemetry(Config c) {
  c.common.tracing = true;
  telemetry::set_enabled(false);
  const AppResult off = App::run(cfg(), c);
  telemetry::set_enabled(true);
  const AppResult on = App::run(cfg(), c);
  telemetry::set_enabled(false);
  telemetry::clear_spans();

  EXPECT_DOUBLE_EQ(off.ms, on.ms);
  EXPECT_DOUBLE_EQ(off.checksum, on.checksum);
  EXPECT_GT(off.timeline.size(), 0u);
  EXPECT_EQ(off.timeline.size(), on.timeline.size());
}

TEST(TelemetryDeterminism, Mm) {
  MmConfig c;
  c.dim = 64;
  c.tile_grid = 2;
  expect_invariant_under_telemetry<MmApp>(c);
}

TEST(TelemetryDeterminism, Cf) {
  CfConfig c;
  c.dim = 48;
  c.tile = 16;
  expect_invariant_under_telemetry<CfApp>(c);
}

TEST(TelemetryDeterminism, Lu) {
  LuConfig c;
  c.dim = 48;
  c.tile = 16;
  expect_invariant_under_telemetry<LuApp>(c);
}

TEST(TelemetryDeterminism, Kmeans) {
  KmeansConfig c;
  c.points = 500;
  c.dims = 4;
  c.clusters = 3;
  c.iterations = 3;
  c.tiles = 2;
  expect_invariant_under_telemetry<KmeansApp>(c);
}

TEST(TelemetryDeterminism, Hotspot) {
  HotspotConfig c;
  c.rows = c.cols = 32;
  c.tile_rows = c.tile_cols = 16;
  c.steps = 3;
  expect_invariant_under_telemetry<HotspotApp>(c);
}

TEST(TelemetryDeterminism, Nn) {
  NnConfig c;
  c.records = 1000;
  c.tiles = 4;
  expect_invariant_under_telemetry<NnApp>(c);
}

TEST(TelemetryDeterminism, Srad) {
  SradConfig c;
  c.rows = c.cols = 32;
  c.tile_rows = c.tile_cols = 16;
  c.iterations = 2;
  expect_invariant_under_telemetry<SradApp>(c);
}

TEST(TelemetryDeterminism, TotalsIndependentOfThreadCount) {
  // Counter shards and histogram buckets merge by addition, so the totals a
  // sweep records are exact and identical no matter how many threads split
  // the work: {serial, 2 workers, one per hardware thread}.
  telemetry::set_enabled(true);

  telemetry::Counter& c =
      telemetry::registry().counter("ms_test_sweep_total", "thread-count invariance test");
  telemetry::Histogram& h =
      telemetry::registry().histogram("ms_test_sweep_ns", "thread-count invariance test");

  constexpr std::size_t kJobs = 300;
  std::vector<telemetry::HistogramSnapshot> snaps;
  std::vector<std::uint64_t> counts;
  for (const int threads : {1, 2, 0}) {
    c.reset();
    h.reset();
    sim::SweepOptions opt;
    opt.threads = threads;
    sim::parallel_for(
        kJobs,
        [&](std::size_t i) {
          c.add(1);
          h.observe(static_cast<std::uint64_t>(i) % 1000);
        },
        opt);
    counts.push_back(c.value());
    snaps.push_back(h.snapshot());
  }
  telemetry::set_enabled(false);

  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], kJobs) << "thread config #" << i;
    EXPECT_EQ(snaps[i].count(), kJobs) << "thread config #" << i;
    EXPECT_EQ(snaps[i].sum, snaps[0].sum) << "thread config #" << i;
    EXPECT_EQ(snaps[i].buckets, snaps[0].buckets) << "thread config #" << i;
  }
}

}  // namespace
}  // namespace ms::apps
