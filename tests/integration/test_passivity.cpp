// The passivity harness, the one identity oracle of the test suite. A knob
// that only observes a run, or only changes how the host executes it, must
// leave every virtual time, checksum, span, hazard and lint verdict
// bit-identical to the all-off run of the same point. The knobs and their
// levels (level 0 is off):
//
//   timeline   CommonConfig::tracing / Context::set_tracing
//   analysis   none, an analyze::Capture, or a linting Capture(true)
//   metrics    telemetry::set_enabled
//   obs        a local ObsServer whose /metrics another thread scrapes while
//              the run is in flight
//   kthreads   kern::par::ThreadScope of 1, 2 or 0 (one per hardware thread)
//   placement  the calling thread, or two concurrent identical jobs of
//              sim::parallel_map on the shared pool (Capture inside the job)
//   repeat     cold (graph cache and chunk depot emptied first), or warm: two
//              runs back to back, both checked
//
// The points are every apps::registry() entry x {Direct, Compiled} x {1, 2,
// 3} cards (Direct only for an app that does not compile), with P in
// {1, 4, 7} for every app, and the random DAGs of random_dag.hpp on 1-3
// cards. Each runs the all-off oracle and three knob vectors, drawn in turn
// from a greedy pairwise cover plus a fixed-seed random sample;
// PassiveKnobs.GeneratorCoversEveryPair proves the coverage.
// The named points at the end run one or two knobs at a time at further
// sizes, so a failure there names the knob at fault.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analyze/capture.hpp"
#include "analyze/report.hpp"
#include "apps/registry.hpp"
#include "kern/par.hpp"
#include "loopback_http.hpp"
#include "random_dag.hpp"
#include "sim/chunk_depot.hpp"
#include "sim/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/obs_server.hpp"

namespace ms::apps {

/// How gtest prints a GraphMode parameter (found by argument-dependent
/// lookup, so it lives in GraphMode's namespace).
void PrintTo(GraphMode mode, std::ostream* os) {
  *os << (mode == GraphMode::Direct ? "Direct" : "Compiled");
}

namespace {

// --- PassiveKnobs ---------------------------------------------------------------

enum Knob : std::size_t { kTimeline, kAnalysis, kMetrics, kObs, kKthreads, kPlacement, kRepeat };

struct KnobLevels {
  const char* name;
  std::vector<const char*> levels;
};

const std::array<KnobLevels, 7> kKnobs{{
    {"timeline", {"off", "on"}},
    {"analysis", {"none", "capture", "lint"}},
    {"metrics", {"off", "on"}},
    {"obs", {"off", "on"}},
    {"kthreads", {"1", "2", "hw"}},
    {"placement", {"caller", "pool"}},
    {"repeat", {"cold", "warm"}},
}};

/// One level per knob; the default value is the all-off oracle.
struct PassiveKnobs {
  std::array<std::size_t, kKnobs.size()> level{};

  bool operator==(const PassiveKnobs&) const = default;
  [[nodiscard]] bool on(Knob k) const { return level[k] != 0; }
  [[nodiscard]] int kernel_threads() const { return std::array{1, 2, 0}[level[kKthreads]]; }
  [[nodiscard]] std::string str() const {
    std::string s;
    for (std::size_t k = 0; k < kKnobs.size(); ++k) {
      s += (k ? " " : "") + std::string(kKnobs[k].name) + "=" + kKnobs[k].levels[level[k]];
    }
    return s;
  }
};

/// Knob vectors, each spelled in str()'s form ("timeline=on repeat=warm");
/// the knobs a text does not name stay off.
std::vector<PassiveKnobs> vectors(std::initializer_list<const char*> texts) {
  std::vector<PassiveKnobs> out;
  for (const char* text : texts) {
    PassiveKnobs& v = out.emplace_back();
    std::istringstream in(text);
    for (std::string word; in >> word;) {
      const std::size_t eq = word.find('=');
      const auto named = [&](const KnobLevels& k) { return word.substr(0, eq) == k.name; };
      const auto k = std::ranges::find_if(kKnobs, named);
      if (eq == std::string::npos || k == kKnobs.end()) throw std::invalid_argument(word);
      const auto l = std::ranges::find(k->levels, word.substr(eq + 1));
      if (l == k->levels.end()) throw std::invalid_argument(word);
      v.level[static_cast<std::size_t>(k - kKnobs.begin())] =
          static_cast<std::size_t>(l - k->levels.begin());
    }
  }
  return out;
}

using Pair = std::array<std::size_t, 4>;  // (knob i, its level, knob j > i, its level)

std::vector<Pair> pairs_of(const PassiveKnobs& v) {
  std::vector<Pair> out;
  for (std::size_t i = 0; i < kKnobs.size(); ++i) {
    for (std::size_t j = i + 1; j < kKnobs.size(); ++j) {
      out.push_back({i, v.level[i], j, v.level[j]});
    }
  }
  return out;
}

/// Every knob vector, in mixed-radix order (the first knob varies fastest).
std::vector<PassiveKnobs> cross_product() {
  std::vector<PassiveKnobs> out(1);
  for (std::size_t k = 0; k < kKnobs.size(); ++k) {
    std::vector<PassiveKnobs> next;
    for (std::size_t l = 0; l < kKnobs[k].levels.size(); ++l) {
      for (PassiveKnobs v : out) {
        v.level[k] = l;
        next.push_back(v);
      }
    }
    out = std::move(next);
  }
  return out;
}

/// A greedy pairwise cover (each step takes the first vector covering the
/// most pairs that neither the oracle nor an earlier step covers), then six
/// more vectors drawn from the cross product with a fixed seed.
std::vector<PassiveKnobs> knob_vectors() {
  const std::vector<PassiveKnobs> all = cross_product();
  std::set<Pair> open;
  for (const PassiveKnobs& v : all) {
    for (const Pair& p : pairs_of(v)) open.insert(p);
  }
  for (const Pair& p : pairs_of(PassiveKnobs{})) open.erase(p);
  const auto gain = [&](const PassiveKnobs& v) {
    return std::ranges::count_if(pairs_of(v), [&](const Pair& p) { return open.contains(p); });
  };
  std::vector<PassiveKnobs> out;
  while (!open.empty()) {
    out.push_back(*std::ranges::max_element(all, {}, gain));
    for (const Pair& p : pairs_of(out.back())) open.erase(p);
  }
  std::mt19937 rng(20160328u);
  for (const std::size_t n = out.size() + 6; out.size() < n;) {
    const PassiveKnobs& v = all[rng() % all.size()];
    if (std::ranges::find(out, v) == out.end()) out.push_back(v);
  }
  return out;
}

// --- Points -----------------------------------------------------------------------

/// A registry app at (mode, cards, P), or a random DAG (empty `app`), and
/// the knob vectors it runs besides the all-off oracle.
struct Point {
  std::string app;
  AppPoint size;
  GraphMode mode = GraphMode::Direct;
  int cards = 1;
  int partitions = 4;  // CommonConfig's and GraphSpec's default
  std::uint32_t seed = 0;
  std::vector<PassiveKnobs> knobs;

  [[nodiscard]] std::string str() const {
    const std::string at = " cards=" + std::to_string(cards) + " P=" + std::to_string(partitions);
    if (app.empty()) return "dag seed=" + std::to_string(seed) + at;
    return "app=" + app + (mode == GraphMode::Direct ? " mode=direct" : " mode=compiled") + at;
  }
};

void PrintTo(const Point& p, std::ostream* os) { *os << p.str(); }  // for gtest's test list

/// `app` as a gtest name part, which allows no '-'.
std::string test_name(std::string app) {
  std::replace(app.begin(), app.end(), '-', '_');
  return app;
}

std::vector<Point> points() {
  // mm, cf, lu, hotspot, srad and nn tiles span more than one kern::par
  // block (cf and lu: 144-row tiles, three row bands), so the kthreads knob
  // runs their kernels on the pool. A multi-chunk kmeans tile would cost
  // ~30 ms a run.
  static const std::map<std::string_view, AppPoint> small{
      {"mm", {4, 288}},         {"cf", {4, 288}},    {"lu", {4, 288}},
      {"kmeans", {4, 2000, 3}}, {"kmeans-async", {4, 2000, 3}},
      {"hotspot", {4, 256, 2}}, {"nn", {4, 132000}}, {"srad", {4, 256, 2}},
  };
  constexpr std::array kPartitions{1, 4, 7};
  const std::vector<PassiveKnobs> vectors = knob_vectors();
  std::vector<Point> out;
  const auto add = [&](Point p, std::size_t n) {
    for (std::size_t j = 0; j < 3; ++j) p.knobs.push_back(vectors[(3 * n + j) % vectors.size()]);
    out.push_back(std::move(p));
  };
  for (std::size_t a = 0; a < registry().size(); ++a) {
    for (const GraphMode mode : {GraphMode::Direct, GraphMode::Compiled}) {
      if (mode == GraphMode::Compiled && !registry()[a].compiles) continue;
      for (std::size_t c = 0; c < 3; ++c) {
        const auto m = static_cast<std::size_t>(mode);
        add({std::string(registry()[a].name), small.at(registry()[a].name), mode,
             static_cast<int>(c) + 1, kPartitions[(a + m + c) % 3], 0, {}},
            6 * a + 3 * m + c);
      }
    }
  }
  const std::array<std::uint32_t, 10> seeds{1, 2, 3, 4, 5, 10, 42, 99, 1234, 777777};
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    add({"", {}, GraphMode::Direct, 1 + static_cast<int>(d % 3), kPartitions[(d / 3) % 3],
         seeds[d], {}},
        d);
  }
  return out;
}

// --- Running a point --------------------------------------------------------------

std::string hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

using Lines = std::vector<std::string>;

/// What one run shows: its clock values (an app's ms and checksum; a DAG's
/// every Event::time() and then its host time), its spans with replay ids
/// renumbered in order of appearance, and the analyzer's and linter's
/// reports (with the lint bounds as bit patterns). Each report is there only
/// when the run made it.
struct Observed {
  std::vector<double> clock;
  std::optional<Lines> spans;
  std::optional<Lines> hazards;
  std::optional<Lines> lint;
  bool clean = true;           // the analyzer found no hazard
  std::size_t lint_nodes = 0;  // actions the linter saw
};

std::optional<Lines> span_lines(const trace::Timeline& timeline) {
  if (timeline.empty()) return std::nullopt;
  std::map<std::uint64_t, std::size_t> replay{{0, 0}};
  Lines out;
  for (const trace::Span& s : timeline.spans()) {
    const std::size_t rid = replay.try_emplace(s.replay_id, replay.size()).first->second;
    out.push_back(std::string(trace::to_string(s.kind)) + " dev" + std::to_string(s.device) +
                  " stream" + std::to_string(s.stream) + " part" + std::to_string(s.partition) +
                  " [" + hex(s.start.micros()) + ", " + hex(s.end.micros()) + "] " +
                  std::to_string(s.bytes) + "B '" + std::string(s.label) + "' replay" +
                  std::to_string(rid));
  }
  return out;
}

Lines lines_of(const std::string& doc) {
  Lines out;
  std::istringstream in(doc);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

Lines lint_lines(const analyze::LintTotals& t) {
  Lines out = lines_of(analyze::json_report(t));
  out.push_back(hex(t.bound().micros()) + " " + hex(t.elapsed().micros()));
  for (const analyze::DeviceBound& d : t.devices()) {
    for (const sim::SimTime v : {d.path, d.h2d, d.d2h, d.link, d.bound}) {
      out.back() += " " + hex(v.micros());
    }
  }
  return out;
}

/// One run of `p` on the calling thread, under the knobs a run carries with
/// it (timeline, analysis); the process-wide knobs are set by the caller.
Observed run_once(const Point& p, const PassiveKnobs& k) {
  std::optional<analyze::Capture> capture;  // outlives every context it observes
  if (k.on(kAnalysis)) capture.emplace(/*lint=*/k.level[kAnalysis] == 2);
  sim::SimConfig cfg = sim::SimConfig::phi_31sp();
  cfg.num_devices = p.cards;
  Observed o;
  if (!p.app.empty()) {
    CommonConfig common;
    common.partitions = p.partitions;
    common.graph = p.mode;
    common.tracing = k.on(kTimeline);
    const AppResult r = find_app(p.app)->run(cfg, common, p.size);
    o.clock = {r.ms, r.checksum};
    o.spans = span_lines(r.timeline);
  } else {
    rt::Context ctx(cfg);
    ctx.set_tracing(k.on(kTimeline));
    ctx.setup(p.partitions);
    const rt::BufferId buf = ctx.create_virtual_buffer(8 << 20);
    const test::BuiltGraph g = test::build_random_graph(ctx, buf, {p.seed, p.partitions});
    ctx.synchronize();
    for (const rt::Event& e : g.events) o.clock.push_back(e.time().micros());
    o.clock.push_back(ctx.host_time().micros());
    o.spans = span_lines(ctx.timeline());
  }
  if (capture) {
    o.hazards = lines_of(analyze::json_report(capture->result()));
    o.clean = capture->clean();
    if (capture->linting()) o.lint = lint_lines(capture->lint());
    o.lint_nodes = capture->lint().nodes();
  }
  return o;
}

/// Every run `k` makes of `p`: one, two back to back (warm), and each of
/// those twice over when two pool jobs run them side by side.
std::vector<Observed> observe(const Point& p, const PassiveKnobs& k) {
  telemetry::set_enabled(k.on(kMetrics));
  const kern::par::ThreadScope threads(k.kernel_threads());
  if (!k.on(kRepeat)) {
    rt::process_graph_cache().clear();
    sim::detail::ChunkDepot::trim();
  }
  std::optional<telemetry::ObsServer> server;
  int scrapes = 0;
  int failed = 0;
  std::jthread scraper;  // joins before `server` goes, also on a throw
  if (k.on(kObs)) {
    server.emplace("127.0.0.1:0");
    scraper = std::jthread([&](const std::stop_token& stop) {
      do {
        ++scrapes;
        failed += test::status_of(test::http_request(server->bound_port(), "/metrics")) != 200;
      } while (!stop.stop_requested());
    });
  }
  const auto job = [&](std::size_t) {
    std::vector<Observed> runs{run_once(p, k)};
    if (k.on(kRepeat)) runs.push_back(run_once(p, k));
    return runs;
  };
  const std::vector<std::vector<Observed>> jobs =
      k.on(kPlacement) ? sim::parallel_map<std::vector<Observed>>(2, job)
                       : std::vector<std::vector<Observed>>{job(0)};
  if (server) {
    scraper.request_stop();
    scraper.join();
    EXPECT_TRUE(scrapes > 0 && failed == 0)
        << p.str() << " [" << k.str() << "]: " << failed << " of " << scrapes << " scrapes failed";
  }
  telemetry::set_enabled(false);
  std::vector<Observed> out;
  for (const auto& runs : jobs) out.insert(out.end(), runs.begin(), runs.end());
  return out;
}

/// The first run to show `what` sets `ref`; every later one must equal it.
void expect_same_lines(std::optional<Lines>& ref, const Lines& got, const char* what,
                       const std::string& where) {
  if (!ref) {
    ref = got;
    return;
  }
  const auto [w, g] = std::mismatch(ref->begin(), ref->end(), got.begin(), got.end());
  if (w == ref->end() && g == got.end()) return;
  ADD_FAILURE() << where << ": " << what << " line " << (w - ref->begin()) << " of "
                << ref->size() << "/" << got.size() << " differs\n  want "
                << (w == ref->end() ? "(none)" : *w) << "\n  got  "
                << (g == got.end() ? "(none)" : *g);
}

/// `o` against `ref`: the oracle's clock, and the spans, hazards and lint
/// of the first run of the point that had them.
void expect_matches(Observed& ref, const Observed& o, const PassiveKnobs& k,
                    const std::string& where) {
  const std::vector<double>& want = ref.clock;
  ASSERT_EQ(o.clock.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(o.clock[i]) == std::bit_cast<std::uint64_t>(want[i])) continue;
    const std::string what = want.size() == 2     ? (i == 0 ? "ms" : "checksum")
                             : i + 1 == want.size() ? "host time"
                                                    : "Event #" + std::to_string(i) + " time";
    ADD_FAILURE() << where << ": " << what << " " << hex(o.clock[i]) << " != all-off "
                  << hex(want[i]);
    break;  // report the first value that moved; later ones usually follow it
  }
  EXPECT_EQ(o.spans.has_value(), k.on(kTimeline)) << where;
  if (o.spans) expect_same_lines(ref.spans, *o.spans, "span list", where);
  EXPECT_EQ(o.hazards.has_value(), k.on(kAnalysis)) << where;
  if (o.hazards) expect_same_lines(ref.hazards, *o.hazards, "hazard list", where);
  EXPECT_EQ(o.lint.has_value(), k.level[kAnalysis] == 2) << where;
  if (o.lint) expect_same_lines(ref.lint, *o.lint, "lint totals", where);
}

/// An analyzing run of a registry app: no hazard, and a graph was linted.
void expect_clean(const Observed& o, const std::string& where) {
  if (!o.clean) {
    std::string report;
    for (const std::string& line : *o.hazards) report += "\n" + line;
    ADD_FAILURE() << where << ": the analyzer found hazards" << report;
  }
  EXPECT_TRUE(!o.lint || o.lint_nodes > 0) << where << ": nothing linted";
}

/// Runs `p`: the all-off oracle, then each knob vector of `p`, every run
/// compared with the oracle. A registry app must also take virtual time, and
/// every analyzing run of one must be clean.
void check(const Point& p) {
  const bool app = !p.app.empty();
  Observed ref = observe(p, PassiveKnobs{}).front();
  EXPECT_TRUE(!app || ref.clock[0] > 0.0) << p.str() << ": no virtual time";
  if (p.mode == GraphMode::Compiled) {
    // Replay pricing moves virtual time; the data must not move at all.
    Point direct = p;
    direct.mode = GraphMode::Direct;
    const double want = observe(direct, PassiveKnobs{}).front().clock[1];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.clock[1]), std::bit_cast<std::uint64_t>(want))
        << p.str() << " [" << PassiveKnobs{}.str() << "]: compiled checksum " << hex(ref.clock[1])
        << " != direct " << hex(want);
  }
  for (const PassiveKnobs& k : p.knobs) {
    const std::vector<Observed> runs = observe(p, k);
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const std::string where = p.str() + " [" + k.str() + "] run " + std::to_string(r + 1) +
                                "/" + std::to_string(runs.size());
      expect_matches(ref, runs[r], k, where);
      if (app && runs[r].hazards) expect_clean(runs[r], where);
    }
  }
}

class PassivityHarness : public ::testing::TestWithParam<Point> {};

TEST_P(PassivityHarness, KnobsLeaveResultsBitIdentical) { check(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Points, PassivityHarness, ::testing::ValuesIn(points()), [](const auto& point) {
  const Point& p = point.param;
  std::string name = p.app.empty() ? "dag" + std::to_string(p.seed) : test_name(p.app);
  if (!p.app.empty()) name += p.mode == GraphMode::Direct ? "_direct" : "_compiled";
  return name + "_" + std::to_string(p.cards) + "card_P" + std::to_string(p.partitions);
});

TEST(PassiveKnobs, GeneratorCoversEveryPair) {
  std::set<Pair> all;
  for (const PassiveKnobs& v : cross_product()) {
    for (const Pair& q : pairs_of(v)) all.insert(q);
  }
  const std::vector<Pair> oracle = pairs_of(PassiveKnobs{});  // runs at every point
  std::set<Pair> on_apps(oracle.begin(), oracle.end());
  std::set<Pair> on_dags = on_apps;
  std::set<std::tuple<std::string, GraphMode, int>> triples;
  std::map<std::string, std::set<int>> partitions;
  for (const Point& p : points()) {
    if (!p.app.empty()) {
      triples.emplace(p.app, p.mode, p.cards);
      partitions[p.app].insert(p.partitions);
    }
    for (const PassiveKnobs& k : p.knobs) {
      for (const Pair& q : pairs_of(k)) (p.app.empty() ? on_dags : on_apps).insert(q);
    }
  }
  EXPECT_EQ(on_apps, all) << "a pair of knob levels never runs on an app";
  EXPECT_EQ(on_dags, all) << "a pair of knob levels never runs on a DAG";
  const auto compiling = std::ranges::count_if(registry(), &AppEntry::compiles);
  EXPECT_EQ(triples.size(), (registry().size() + static_cast<std::size_t>(compiling)) * 3)
      << "an (app, mode, cards) triple is missing";
  for (const AppEntry& app : registry()) {
    EXPECT_EQ(partitions[std::string(app.name)], (std::set<int>{1, 4, 7})) << app.name;
  }
}

// Whether kernels really execute is not a passive knob (functional runs
// compute checksums), but the cost model must not see it.
TEST(Determinism, TimingOnlyAndFunctionalAgreeOnVirtualTime) {
  CommonConfig timing_only;
  timing_only.functional = false;
  const double fun = find_app("mm")->run(sim::SimConfig::phi_31sp(), {}, {9, 96}).ms;
  const double tim = find_app("mm")->run(sim::SimConfig::phi_31sp(), timing_only, {9, 96}).ms;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fun), std::bit_cast<std::uint64_t>(tim))
      << hex(fun) << " != " << hex(tim);
}

// --- Named points -----------------------------------------------------------------
// The harness at further sizes with one or two knobs at a time, so that a
// failure here names the knob at fault.

/// A random DAG on one card.
Point dag(std::uint32_t seed, int partitions, const char* vector) {
  Point p;
  p.partitions = partitions;
  p.seed = seed;
  p.knobs = vectors({vector});
  return p;
}

TEST(Determinism, MmIsBitStable) {
  check({.app = "mm", .size = {4, 64}, .knobs = vectors({"timeline=on repeat=warm"})});
}
TEST(Determinism, CfIsBitStable) {
  check({.app = "cf", .size = {9, 48}, .knobs = vectors({"timeline=on repeat=warm"})});
}
TEST(Determinism, KmeansIsBitStable) {
  check({.app = "kmeans", .size = {2, 500, 3}, .knobs = vectors({"timeline=on repeat=warm"})});
}
TEST(Determinism, HotspotIsBitStable) {
  check({.app = "hotspot", .size = {4, 32, 3}, .knobs = vectors({"timeline=on repeat=warm"})});
}
TEST(Determinism, NnIsBitStable) {
  check({.app = "nn", .size = {4, 1000}, .knobs = vectors({"timeline=on repeat=warm"})});
}
TEST(Determinism, SradIsBitStable) {
  check({.app = "srad", .size = {4, 32, 2}, .knobs = vectors({"timeline=on repeat=warm"})});
}
TEST(Determinism, UnrelatedTracingDoesNotChangeTiming) { check(dag(1, 4, "timeline=on")); }

/// A small size for every registry app. mm's 32-row tiles are one kern::par
/// block each; the points above run mm on the pool.
AppPoint small(const std::string& app) {
  static const std::map<std::string, AppPoint> sizes{
      {"mm", {16, 128}},         {"cf", {36, 96}},     {"lu", {16, 128}},
      {"kmeans", {4, 2000, 3}},  {"kmeans-async", {4, 2000, 3}},
      {"hotspot", {16, 64, 3}},  {"nn", {4, 2000}},    {"srad", {16, 64, 3}},
  };
  return sizes.at(app);
}

TEST(Determinism, MmCompiledReplayIsBitStableOnEveryCardCount) {
  for (const int cards : {1, 2, 3}) {
    check({.app = "mm", .size = small("mm"), .mode = GraphMode::Compiled, .cards = cards,
           .knobs = vectors({"timeline=on repeat=warm"})});
  }
}

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  for (const AppEntry& app : registry()) names.emplace_back(app.name);
  return names;
}

/// Every registry app in Direct mode, and in Compiled mode if it compiles.
std::vector<std::tuple<std::string, GraphMode>> app_modes() {
  std::vector<std::tuple<std::string, GraphMode>> out;
  for (const AppEntry& app : registry()) {
    out.emplace_back(app.name, GraphMode::Direct);
    if (app.compiles) out.emplace_back(app.name, GraphMode::Compiled);
  }
  return out;
}

class Passivity : public ::testing::TestWithParam<std::tuple<std::string, GraphMode>> {};

TEST_P(Passivity, ObserversMetricsAndThreadsLeaveResultsBitIdentical) {
  const auto& [app, mode] = GetParam();
  check({.app = app, .size = small(app), .mode = mode,
         .knobs = vectors({"timeline=on", "analysis=capture", "timeline=on analysis=lint",
                           "metrics=on", "timeline=on analysis=capture metrics=on",
                           "kthreads=hw"})});
}

INSTANTIATE_TEST_SUITE_P(
    Apps, Passivity, ::testing::ValuesIn(app_modes()),
    [](const auto& p) {
      return test_name(std::get<0>(p.param)) +
             (std::get<1>(p.param) == GraphMode::Direct ? "_direct" : "_compiled");
    });

class MultiCardDeterminism : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MultiCardDeterminism, RepeatedRunsAreBitStable) {
  const auto& [app, cards] = GetParam();
  check({.app = app, .size = small(app), .cards = cards,
         .knobs = vectors({"timeline=on repeat=warm"})});
}

INSTANTIATE_TEST_SUITE_P(
    Apps, MultiCardDeterminism,
    ::testing::Combine(::testing::ValuesIn(app_names()), ::testing::Values(1, 2, 3)),
    [](const auto& p) {
      return test_name(std::get<0>(p.param)) + "_" + std::to_string(std::get<1>(p.param)) + "dev";
    });

class StressDag : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StressDag, Deterministic) {
  check(dag(GetParam(), 3, "repeat=warm"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressDag,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 10u, 42u, 99u, 1234u, 777777u));

TEST(KernelEngine, Fig9aVirtualTimesUnchangedByParallelKernels) {
  for (const int partitions : {1, 2, 4, 7}) {
    check({.app = "mm", .size = {4, 96}, .partitions = partitions,
           .knobs = vectors({"timeline=on kthreads=hw"})});
  }
}

TEST(KernelEngine, VirtualTimesUnchangedAcrossApps) {
  for (const auto& [app, size] : std::initializer_list<std::pair<const char*, AppPoint>>{
           {"hotspot", {4, 96, 3}}, {"srad", {4, 64, 2}}, {"nn", {4, 4096}},
           {"kmeans", {2, 2000, 3}}}) {
    check({.app = app, .size = size, .knobs = vectors({"timeline=on kthreads=hw"})});
  }
}

TEST(KernelEngine, ParallelSweepOverParallelKernelsMatchesSerial) {
  for (const int partitions : {1, 2, 3, 5}) {
    check({.app = "mm", .size = {4, 64}, .partitions = partitions,
           .knobs = vectors({"kthreads=hw placement=pool"})});
  }
}

TEST(GraphModes, ThreadCountInvariant) {
  for (const GraphMode mode : {GraphMode::Direct, GraphMode::Compiled}) {
    check({.app = "srad", .size = {16, 64, 3}, .mode = mode,
           .knobs = vectors({"kthreads=2", "kthreads=hw"})});
  }
  check({.app = "kmeans", .size = {4, 2000, 5}, .mode = GraphMode::Compiled,
         .knobs = vectors({"kthreads=2", "kthreads=hw"})});
}

TEST(SradApp, ChecksumReproducible) {
  check({.app = "srad", .size = {9, 48, 4}, .knobs = vectors({"repeat=warm"})});
}

TEST(KmeansAsync, IsDeterministic) {
  check({.app = "kmeans-async", .size = {4, 2000, 8}, .knobs = vectors({"repeat=warm"})});
}

TEST(KmeansApp, GraphReplayMatchesDirectEnqueueResults) {
  // No knob vector: the compiled checksum against direct issue's.
  check({.app = "kmeans", .size = {4, 2000, 5}, .mode = GraphMode::Compiled, .knobs = {}});
}

TEST(AppsClean, AnalyzerDoesNotPerturbResults) {
  check({.app = "hotspot", .size = {4, 64, 3}, .knobs = vectors({"analysis=capture"})});
  check({.app = "srad", .size = {4, 64, 3}, .knobs = vectors({"analysis=capture"})});
}

TEST(ParallelSweep, VirtualTimesIdenticalSerialVsParallel) {
  for (const int partitions : {1, 2, 3, 4, 7, 8, 14}) {
    check(dag(1, partitions, "placement=pool"));
  }
}

}  // namespace
}  // namespace ms::apps
