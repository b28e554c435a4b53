// Metric totals must not depend on how many threads did the recording.
// (That metrics recording leaves every app's virtual time and checksum
// untouched is one of the knobs of the Passivity suite, test_determinism.cpp.)

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/sweep.hpp"
#include "telemetry/metrics.hpp"

namespace ms::apps {
namespace {

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
