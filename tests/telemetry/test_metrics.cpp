#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep.hpp"
#include "telemetry/export.hpp"

namespace ms::telemetry {
namespace {

// -------------------------------------------------------------------------
// HistogramSnapshot: pure bucket arithmetic, no live registry needed.
// -------------------------------------------------------------------------

TEST(HistogramSnapshot, BucketOfIsBitWidth) {
  EXPECT_EQ(HistogramSnapshot::bucket_of(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(2), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(3), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(4), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1023), 10u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1024), 11u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(std::numeric_limits<std::uint64_t>::max()), 64u);
}

TEST(HistogramSnapshot, BucketUpperIsInclusiveBound) {
  EXPECT_EQ(HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(2), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(11), 2047u);
  EXPECT_EQ(HistogramSnapshot::bucket_upper(64), std::numeric_limits<std::uint64_t>::max());
  // Every value lands in a bucket whose upper bound is >= the value.
  for (std::uint64_t x : {0ull, 1ull, 7ull, 1000ull, 123456789ull}) {
    EXPECT_GE(HistogramSnapshot::bucket_upper(HistogramSnapshot::bucket_of(x)), x);
  }
}

TEST(HistogramSnapshot, QuantileOfEmptyIsZero) {
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0u);
  EXPECT_EQ(HistogramSnapshot{}.count(), 0u);
}

TEST(HistogramSnapshot, QuantilesWalkTheBuckets) {
  HistogramSnapshot s;
  // 90 observations of "1" and 10 of "1000": p50 sits in bucket 1,
  // p95/p99 in the bucket containing 1000 (upper bound 1023).
  s.buckets[HistogramSnapshot::bucket_of(1)] = 90;
  s.buckets[HistogramSnapshot::bucket_of(1000)] = 10;
  s.sum = 90 + 10 * 1000;
  EXPECT_EQ(s.count(), 100u);
  EXPECT_EQ(s.quantile(0.50), 1u);
  EXPECT_EQ(s.quantile(0.95), 1023u);
  EXPECT_EQ(s.quantile(0.99), 1023u);
  EXPECT_EQ(s.quantile(1.0), 1023u);
}

TEST(HistogramSnapshot, MergeIsAssociativeAndCommutative) {
  auto fill = [](std::uint64_t seed) {
    HistogramSnapshot s;
    for (std::uint64_t i = 0; i < 20; ++i) {
      const std::uint64_t x = (seed * 2654435761u + i * 40503u) % 100000u;
      s.buckets[HistogramSnapshot::bucket_of(x)] += 1;
      s.sum += x;
    }
    return s;
  };
  const HistogramSnapshot a = fill(1), b = fill(2), c = fill(3);

  HistogramSnapshot ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);

  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);

  HistogramSnapshot cba = c;
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.buckets, cba.buckets);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.sum, cba.sum);
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
}

// -------------------------------------------------------------------------
// Live metric primitives.
// -------------------------------------------------------------------------

class Metrics : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(true);
  }
  void TearDown() override { set_enabled(false); }
};

TEST_F(Metrics, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(Metrics, DisabledCounterRecordsNothing) {
  set_enabled(false);
  Counter c;
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(Metrics, CounterSumsAcrossConcurrentWriters) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&c] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) c.add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(Metrics, GaugeSetAndAdd) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST_F(Metrics, MaxGaugeKeepsHighWater) {
  MaxGauge m;
  m.observe(5);
  m.observe(3);
  EXPECT_EQ(m.value(), 5);
  m.observe(9);
  EXPECT_EQ(m.value(), 9);
  m.observe(9);
  EXPECT_EQ(m.value(), 9);
}

TEST_F(Metrics, MaxGaugeUnderConcurrentObservers) {
  MaxGauge m;
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&m, i] {
      for (std::int64_t j = 0; j < 5000; ++j) m.observe(i * 5000 + j);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(m.value(), (kThreads - 1) * 5000 + 4999);
}

TEST_F(Metrics, HistogramObserveAndSnapshot) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(1000);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.sum, 1001u);
  EXPECT_EQ(s.buckets[HistogramSnapshot::bucket_of(0)], 1u);
  EXPECT_EQ(s.buckets[HistogramSnapshot::bucket_of(1)], 1u);
  EXPECT_EQ(s.buckets[HistogramSnapshot::bucket_of(1000)], 1u);
  h.reset();
  EXPECT_EQ(h.snapshot().count(), 0u);
}

TEST_F(Metrics, ConcurrentHistogramTotalsAreExact) {
  // Per-thread sharding does not exist for histograms — the buckets are
  // relaxed atomics — so totals must be exact regardless of interleaving.
  Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&h] {
      for (std::uint64_t j = 0; j < kPerThread; ++j) h.observe(j % 512);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.snapshot().count(), kThreads * kPerThread);
}

// -------------------------------------------------------------------------
// Registry
// -------------------------------------------------------------------------

TEST_F(Metrics, RegistryDeduplicatesByName) {
  Counter& a = registry().counter("ms_test_dedupe_total", "dedupe test");
  Counter& b = registry().counter("ms_test_dedupe_total", "different help is ignored");
  EXPECT_EQ(&a, &b);
}

TEST_F(Metrics, RegistryRejectsKindMismatch) {
  registry().counter("ms_test_kind_clash", "registered as a counter");
  EXPECT_THROW(registry().gauge("ms_test_kind_clash", "now as a gauge"), std::logic_error);
  EXPECT_THROW(registry().histogram("ms_test_kind_clash", "now as a histogram"), std::logic_error);
}

TEST_F(Metrics, SnapshotIsNameSortedAndCarriesValues) {
  Counter& c = registry().counter("ms_test_snap_counter_total", "snapshot test counter");
  Gauge& g = registry().gauge("ms_test_snap_gauge", "snapshot test gauge");
  c.reset();
  g.reset();
  c.add(5);
  g.set(-2);

  const auto snap = registry().snapshot();
  ASSERT_GE(snap.metrics.size(), 2u);
  for (std::size_t i = 1; i < snap.metrics.size(); ++i) {
    EXPECT_LE(snap.metrics[i - 1].name, snap.metrics[i].name);
  }
  bool saw_counter = false, saw_gauge = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "ms_test_snap_counter_total") {
      saw_counter = true;
      EXPECT_EQ(m.kind, MetricKind::Counter);
      EXPECT_EQ(m.counter, 5u);
      EXPECT_EQ(m.help, "snapshot test counter");
    }
    if (m.name == "ms_test_snap_gauge") {
      saw_gauge = true;
      EXPECT_EQ(m.kind, MetricKind::Gauge);
      EXPECT_EQ(m.gauge, -2);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST_F(Metrics, ResetAllZeroesEverything) {
  Counter& c = registry().counter("ms_test_resetall_total", "reset_all test");
  Histogram& h = registry().histogram("ms_test_resetall_ns", "reset_all test histogram");
  c.add(3);
  h.observe(100);
  registry().reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count(), 0u);
}

// -------------------------------------------------------------------------
// Exporters
// -------------------------------------------------------------------------

TEST_F(Metrics, PrometheusExportHasHelpTypeAndSeries) {
  Counter& c = registry().counter("ms_test_prom_total", "prometheus export test");
  Histogram& h = registry().histogram("ms_test_prom_ns", "prometheus histogram test");
  c.reset();
  h.reset();
  c.add(7);
  h.observe(100);

  std::ostringstream os;
  write_prometheus(os, registry().snapshot());
  const std::string s = os.str();
  EXPECT_NE(s.find("# HELP ms_test_prom_total prometheus export test"), std::string::npos);
  EXPECT_NE(s.find("# TYPE ms_test_prom_total counter"), std::string::npos);
  EXPECT_NE(s.find("ms_test_prom_total 7"), std::string::npos);
  EXPECT_NE(s.find("# TYPE ms_test_prom_ns histogram"), std::string::npos);
  EXPECT_NE(s.find("ms_test_prom_ns_bucket{le="), std::string::npos);
  EXPECT_NE(s.find("ms_test_prom_ns_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(s.find("ms_test_prom_ns_sum 100"), std::string::npos);
  EXPECT_NE(s.find("ms_test_prom_ns_count 1"), std::string::npos);
}

TEST(TelemetryDeterminism, TotalsIndependentOfThreadCount) {
  // Counter shards and histogram buckets merge by addition, so the totals a
  // sweep records are exact and identical no matter how many threads split
  // the work: {serial, 2 workers, one per hardware thread}.
  set_enabled(true);
  Counter& c = registry().counter("ms_test_sweep_total", "thread-count invariance test");
  Histogram& h = registry().histogram("ms_test_sweep_ns", "thread-count invariance test");

  constexpr std::size_t kJobs = 300;
  std::vector<HistogramSnapshot> snaps;
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
  set_enabled(false);

  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], kJobs) << "thread config #" << i;
    EXPECT_EQ(snaps[i].count(), kJobs) << "thread config #" << i;
    EXPECT_EQ(snaps[i].sum, snaps[0].sum) << "thread config #" << i;
    EXPECT_EQ(snaps[i].buckets, snaps[0].buckets) << "thread config #" << i;
  }
}

}  // namespace
}  // namespace ms::telemetry
