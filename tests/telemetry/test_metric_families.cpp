// Labeled metric families: registration semantics, child identity, snapshot
// ordering, and the Prometheus/JSON label rendering. The compiled-graph
// executor is the first adopter (ms_rt_graph_replays_total{graph="..."}).

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace ms::telemetry {
namespace {

class MetricFamilies : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(true);
  }
  void TearDown() override { set_enabled(false); }

  static Registry& registry() { return Registry::instance(); }
};

TEST_F(MetricFamilies, WithReturnsAStableChildPerLabelValue) {
  auto& fam = registry().counter_family("ms_test_fam_stable_total", "family child identity", "app");
  Counter& a1 = fam.with("mm");
  Counter& a2 = fam.with("mm");
  Counter& b = fam.with("nn");
  EXPECT_EQ(&a1, &a2) << "same label value must resolve to the same child";
  EXPECT_NE(&a1, &b);

  a1.add(3);
  b.add(1);
  EXPECT_EQ(a2.value(), 3u);
  EXPECT_EQ(b.value(), 1u);
}

TEST_F(MetricFamilies, ReRegisteringSameFamilyIsIdempotent) {
  auto& a = registry().counter_family("ms_test_fam_dedupe_total", "first", "app");
  auto& b = registry().counter_family("ms_test_fam_dedupe_total", "help ignored", "app");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.label_key(), "app");
}

TEST_F(MetricFamilies, LabelKeyAndKindClashesThrow) {
  registry().counter_family("ms_test_fam_clash_total", "as counter family", "app");
  // Same name, different label key.
  EXPECT_THROW(registry().counter_family("ms_test_fam_clash_total", "other key", "graph"),
               std::logic_error);
  // Same name, different family kind.
  EXPECT_THROW(registry().histogram_family("ms_test_fam_clash_total", "as histogram", "app"),
               std::logic_error);
  // Family name colliding with a plain metric, in either direction.
  registry().counter("ms_test_fam_plain_total", "plain counter");
  EXPECT_THROW(registry().counter_family("ms_test_fam_plain_total", "now a family", "app"),
               std::logic_error);
  registry().counter_family("ms_test_fam_first_total", "family first", "app");
  EXPECT_THROW(registry().counter("ms_test_fam_first_total", "now plain"), std::logic_error);
}

TEST_F(MetricFamilies, SnapshotCarriesLabelsSortedByValue) {
  auto& fam = registry().counter_family("ms_test_fam_snap_total", "snapshot ordering", "app");
  fam.with("zeta").add(1);
  fam.with("alpha").add(2);

  const auto snap = registry().snapshot();
  std::vector<std::pair<std::string, std::string>> seen;
  for (const auto& m : snap.metrics) {
    if (m.name == "ms_test_fam_snap_total") seen.emplace_back(m.label_value, m.label_key);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, "alpha");
  EXPECT_EQ(seen[1].first, "zeta");
  EXPECT_EQ(seen[0].second, "app");
}

TEST_F(MetricFamilies, PrometheusRendersLabelSelectors) {
  auto& fam = registry().counter_family("ms_test_fam_prom_total", "prom rendering", "app");
  fam.with("mm").add(7);

  std::ostringstream os;
  write_prometheus(os, registry().snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("ms_test_fam_prom_total{app=\"mm\"} 7"), std::string::npos) << out;
  // HELP/TYPE headers appear once for the family, not once per child.
  fam.with("nn").add(1);
  std::ostringstream os2;
  write_prometheus(os2, registry().snapshot());
  const std::string out2 = os2.str();
  const auto first = out2.find("# HELP ms_test_fam_prom_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out2.find("# HELP ms_test_fam_prom_total", first + 1), std::string::npos);
}

TEST_F(MetricFamilies, PrometheusMergesHistogramLabelsWithLe) {
  auto& fam =
      registry().histogram_family("ms_test_fam_hist_ns", "labeled histogram rendering", "graph");
  fam.with("pipeline").observe(5);

  std::ostringstream os;
  write_prometheus(os, registry().snapshot());
  const std::string out = os.str();
  // Bucket selectors must combine the family label and `le` in one set.
  EXPECT_NE(out.find("ms_test_fam_hist_ns_bucket{graph=\"pipeline\",le=\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("ms_test_fam_hist_ns_count{graph=\"pipeline\"} 1"), std::string::npos) << out;
}

TEST_F(MetricFamilies, GaugeFamilyMirrorsCounterFamilySemantics) {
  auto& fam = registry().gauge_family("ms_test_fam_gauge", "labeled gauge", "lp");
  Gauge& a1 = fam.with("0");
  Gauge& a2 = fam.with("0");
  Gauge& b = fam.with("1");
  EXPECT_EQ(&a1, &a2);
  EXPECT_NE(&a1, &b);
  EXPECT_EQ(fam.label_key(), "lp");

  a1.set(17);
  b.set(4);
  EXPECT_EQ(a2.value(), 17u);

  std::ostringstream os;
  write_prometheus(os, registry().snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("ms_test_fam_gauge{lp=\"0\"} 17"), std::string::npos) << out;
  EXPECT_NE(out.find("# TYPE ms_test_fam_gauge gauge"), std::string::npos) << out;
}

TEST_F(MetricFamilies, GaugeFamilyKindClashesThrow) {
  registry().gauge_family("ms_test_fam_gkind", "as gauge family", "lp");
  EXPECT_THROW(registry().counter_family("ms_test_fam_gkind", "as counter", "lp"),
               std::logic_error);
  EXPECT_THROW(registry().gauge_family("ms_test_fam_gkind", "other key", "device"),
               std::logic_error);
  registry().counter_family("ms_test_fam_ckind_total", "as counter family", "app");
  EXPECT_THROW(registry().gauge_family("ms_test_fam_ckind_total", "as gauge", "app"),
               std::logic_error);
}

TEST_F(MetricFamilies, TrackReturnsTheRenderedSeriesName) {
  auto& fam = registry().gauge_family("ms_test_fam_track", "track identity", "lp");
  const char* t1 = fam.track("3");
  const char* t2 = fam.track("3");
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1, t2) << "same label value must resolve to the same interned name";
  EXPECT_EQ(std::string(t1), "ms_test_fam_track{lp=\"3\"}");

  // The interned name is byte-identical to the Prometheus exposition series,
  // so counter-sample tracks and scrapes join without translation.
  fam.with("3").set(9);
  std::ostringstream os;
  write_prometheus(os, registry().snapshot());
  EXPECT_NE(os.str().find(std::string(t1) + " 9"), std::string::npos) << os.str();

  const char* c = registry()
                      .counter_family("ms_test_fam_track_total", "counter track", "app")
                      .track("mm");
  EXPECT_EQ(std::string(c), "ms_test_fam_track_total{app=\"mm\"}");
  const char* h =
      registry().histogram_family("ms_test_fam_track_ns", "histogram track", "graph").track("g");
  EXPECT_EQ(std::string(h), "ms_test_fam_track_ns{graph=\"g\"}");
}

TEST_F(MetricFamilies, TrackEscapesLabelValues) {
  auto& fam = registry().gauge_family("ms_test_fam_escape", "selector escaping", "k");
  EXPECT_EQ(std::string(fam.track("a\"b\\c\nd")), "ms_test_fam_escape{k=\"a\\\"b\\\\c\\nd\"}");
}

TEST_F(MetricFamilies, HistogramExemplarCarriesTheLatestReplayId) {
  auto& fam = registry().histogram_family("ms_test_fam_ex_ns", "exemplar rendering", "graph");
  Histogram& h = fam.with("pipeline");
  h.observe(100, /*replay_id=*/7);
  h.observe(250, /*replay_id=*/9);
  h.observe(50);  // exemplar-free observation must not clear the exemplar

  const auto snap = registry().snapshot();
  const MetricSnapshot* m = nullptr;
  for (const auto& it : snap.metrics) {
    if (it.name == "ms_test_fam_ex_ns") m = &it;
  }
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->histogram.exemplar_replay, 9u);
  EXPECT_EQ(m->histogram.exemplar_value, 250u);

  std::ostringstream prom;
  write_prometheus(prom, snap);
  EXPECT_NE(prom.str().find("le=\"+Inf\"} 3 # {replay_id=\"9\"} 250"), std::string::npos)
      << prom.str();
}

TEST_F(MetricFamilies, DisabledChildrenRecordNothing) {
  auto& fam = registry().counter_family("ms_test_fam_disabled_total", "gating", "app");
  set_enabled(false);
  fam.with("mm").add(100);
  set_enabled(true);
  EXPECT_EQ(fam.with("mm").value(), 0u);
}

}  // namespace
}  // namespace ms::telemetry
