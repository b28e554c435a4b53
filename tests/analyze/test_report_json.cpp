// JSON report round-trip: the hazard and lint reports in analyze/report.cpp
// are parsed back with a minimal JSON reader, and every hazard, finding and
// bound must survive the trip with its fields intact.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/perf_lint.hpp"
#include "analyze/record.hpp"
#include "analyze/report.hpp"
#include "sim/sim_time.hpp"

namespace {

using ms::analyze::GraphRecord;
using ms::analyze::HazardKind;
using ms::analyze::LintTotals;
using ms::analyze::LintFinding;
using ms::analyze::LintReport;
using ms::rt::AccessMode;
using ms::rt::MemRange;
namespace rule = ms::analyze::rule;

// --- minimal JSON reader (enough for the report round-trips) ---------------

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    static const JsonValue missing;
    auto it = object.find(key);
    return it == object.end() ? missing : it->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    EXPECT_EQ(pos_, s_.size()) << "trailing bytes after JSON document";
    return v;
  }

private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::String;
      v.string = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      pos_ += 4;
      return JsonValue{};
    }
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Object;
    EXPECT_TRUE(consume('{'));
    if (consume('}')) return v;
    do {
      EXPECT_EQ(peek(), '"') << "object key must be a string";
      std::string key = string();
      EXPECT_TRUE(consume(':'));
      v.object.emplace(std::move(key), value());
    } while (consume(','));
    EXPECT_TRUE(consume('}')) << "unterminated object";
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Array;
    EXPECT_TRUE(consume('['));
    if (consume(']')) return v;
    do {
      v.array.push_back(value());
    } while (consume(','));
    EXPECT_TRUE(consume(']')) << "unterminated array";
    return v;
  }

  std::string string() {
    std::string out;
    EXPECT_TRUE(consume('"'));
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u': {
            // The emitter only escapes control bytes; decode as a raw char.
            const std::string hex = s_.substr(pos_, 4);
            pos_ += 4;
            c = static_cast<char>(std::stoi(hex, nullptr, 16));
            break;
          }
          default: c = e; break;
        }
      }
      out.push_back(c);
    }
    EXPECT_TRUE(consume('"')) << "unterminated string";
    return out;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else {
      pos_ += 5;
    }
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Number;
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) != 0 || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    v.number = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue parse(const std::string& text) { return JsonParser(text).parse(); }

double num(std::size_t v) { return static_cast<double>(v); }

/// The report prints times with three decimals.
void expect_us(const JsonValue& v, ms::sim::SimTime t) {
  EXPECT_NEAR(v.number, t.micros(), 5e-4);
}

void expect_action(const JsonValue& v, const ms::analyze::HazardAction& a) {
  EXPECT_EQ(v.at("id").number, num(a.id & 0xFFFFFFFFFFull));
  EXPECT_EQ(v.at("stream").number, static_cast<double>(a.stream));
  EXPECT_EQ(v.at("kind").string, ms::analyze::to_string(a.kind));
  EXPECT_EQ(v.at("label").string, a.label);
}

void expect_range(const JsonValue& v, const MemRange& r) {
  EXPECT_EQ(v.at("offset").number, num(r.offset));
  EXPECT_EQ(v.at("len").number, num(r.len));
  EXPECT_EQ(v.at("rows").number, num(r.rows));
  EXPECT_EQ(v.at("stride").number, num(r.stride));
}

// --- hazard report -----------------------------------------------------------

TEST(ReportJson, HazardRaceRoundTrip) {
  // Two unordered overlapping writes from different streams: one RaceWAW.
  GraphRecord g;
  g.stream_count = 2;
  constexpr ms::rt::BufferId kBuf{1};
  g.declare_buffer(kBuf, 4096, "grid");
  g.add_kernel(0, 0, "w1", {{kBuf, AccessMode::Write, MemRange::flat(0, 4096)}});
  g.add_kernel(1, 0, "w2", {{kBuf, AccessMode::Write, MemRange::flat(1024, 2048)}});
  const ms::analyze::Analysis a = ms::analyze::analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  const ms::analyze::Hazard& h = a.hazards[0];
  ASSERT_EQ(h.kind, HazardKind::RaceWAW);

  const JsonValue doc = parse(ms::analyze::json_report(a));
  EXPECT_EQ(doc.at("clean").kind, JsonValue::Bool);
  EXPECT_FALSE(doc.at("clean").boolean);
  EXPECT_EQ(doc.at("nodes").number, num(a.nodes_analyzed));
  const auto& hazards = doc.at("hazards").array;
  ASSERT_EQ(hazards.size(), 1u);
  const JsonValue& j = hazards[0];
  EXPECT_EQ(j.at("kind").string, "race-waw");
  EXPECT_EQ(j.at("buffer").number, num(h.buffer));
  EXPECT_EQ(j.at("buffer_name").string, "grid");
  EXPECT_EQ(j.at("space").number, static_cast<double>(h.space));
  expect_action(j.at("first"), h.first);
  expect_action(j.at("second"), h.second);
  expect_range(j.at("range_first"), h.range_first);
  expect_range(j.at("range_second"), h.range_second);
  EXPECT_EQ(j.at("cycle").kind, JsonValue::Null) << "only deadlocks carry a cycle";
  EXPECT_EQ(j.at("message").string, h.message);
}

TEST(ReportJson, DeadlockCarriesItsCycle) {
  // Node 1 waits on node 2 and vice versa.
  GraphRecord g;
  constexpr ms::rt::BufferId kBuf{1};
  g.declare_buffer(kBuf, 64);
  const auto a1 = g.add_kernel(0, 0, "left", {}, {2});
  g.add_kernel(1, 0, "right", {}, {a1});
  const ms::analyze::Analysis a = ms::analyze::analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  const ms::analyze::Hazard& h = a.hazards[0];
  ASSERT_EQ(h.kind, HazardKind::Deadlock);

  const JsonValue doc = parse(ms::analyze::json_report(a));
  const JsonValue& j = doc.at("hazards").array.at(0);
  EXPECT_EQ(j.at("kind").string, "deadlock");
  EXPECT_EQ(j.at("buffer").kind, JsonValue::Null) << "a deadlock names no buffer";
  expect_action(j.at("first"), h.first);
  expect_action(j.at("second"), h.second);
  const auto& cycle = j.at("cycle").array;
  ASSERT_EQ(cycle.size(), h.cycle.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) expect_action(cycle[i], h.cycle[i]);
  EXPECT_EQ(j.at("message").string, h.message);
}

TEST(ReportJson, CleanAnalysisHasNoHazards) {
  GraphRecord g;
  constexpr ms::rt::BufferId kBuf{1};
  g.declare_buffer(kBuf, 64);
  g.add_h2d(0, 0, kBuf, 0, 64);
  const ms::analyze::Analysis a = ms::analyze::analyze(g);
  ASSERT_TRUE(a.clean());

  const JsonValue doc = parse(ms::analyze::json_report(a));
  EXPECT_TRUE(doc.at("clean").boolean);
  EXPECT_EQ(doc.at("nodes").number, num(a.nodes_analyzed));
  EXPECT_EQ(doc.at("hazards").kind, JsonValue::Array);
  EXPECT_TRUE(doc.at("hazards").array.empty());
}

// --- lint report -------------------------------------------------------------

LintReport duplex_report() {
  GraphRecord g;
  g.stream_count = 2;
  constexpr ms::rt::BufferId kUp{1}, kDown{2};
  constexpr std::size_t kMiB = 1u << 20;
  g.declare_buffer(kUp, 8 * kMiB, "up");
  g.declare_buffer(kDown, 8 * kMiB, "down");
  g.assume_device_resident(kDown);
  for (std::size_t i = 0; i < 4; ++i) {
    g.add_h2d(0, 0, kUp, i * kMiB, kMiB);
    g.add_d2h(1, 0, kDown, i * kMiB, kMiB);
  }
  return ms::analyze::lint(g, ms::sim::SimConfig::phi_31sp());
}

TEST(ReportJson, LintFindingsRoundTrip) {
  const LintReport r = duplex_report();
  ASSERT_EQ(r.findings.size(), 1u);
  LintTotals totals;
  totals.add_segment(r, r.bound + r.bound, /*synced=*/true);

  const JsonValue doc = parse(ms::analyze::json_report(totals));
  EXPECT_FALSE(doc.at("clean").boolean);
  const auto& findings = doc.at("findings").array;
  ASSERT_EQ(findings.size(), 1u);
  const LintFinding& f = r.findings[0];
  const JsonValue& j = findings[0];
  EXPECT_EQ(j.at("rule").string, rule::kDuplexSerialization);
  EXPECT_EQ(j.at("rule").string, f.rule);
  EXPECT_EQ(j.at("severity").string, "warning");
  EXPECT_EQ(j.at("device").number, static_cast<double>(f.device));
  EXPECT_EQ(j.at("buffer").number, num(f.buffer));
  EXPECT_EQ(j.at("buffer_name").string, f.buffer_name);
  EXPECT_EQ(j.at("message").string, f.message);
  EXPECT_EQ(j.at("fixit").string, f.fixit);
  EXPECT_FALSE(f.fixit.empty());
  const auto& actions = j.at("actions").array;
  ASSERT_EQ(actions.size(), f.actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) expect_action(actions[i], f.actions[i]);
}

TEST(ReportJson, LintBoundsMatchTheCapture) {
  const LintReport r = duplex_report();
  LintTotals totals;
  totals.add_segment(r, r.bound + r.bound, /*synced=*/true);
  totals.add_segment(r, r.bound + r.bound + r.bound, /*synced=*/true);
  ASSERT_FALSE(totals.devices().empty());

  const JsonValue doc = parse(ms::analyze::json_report(totals));
  EXPECT_EQ(doc.at("segments").number, num(totals.segments()));
  EXPECT_EQ(doc.at("nodes").number, num(totals.nodes()));
  expect_us(doc.at("bound_us"), totals.bound());
  expect_us(doc.at("elapsed_us"), totals.elapsed());
  EXPECT_NEAR(doc.at("overlap_efficiency").number, totals.overlap_efficiency(), 5e-4);
  EXPECT_NEAR(doc.at("overlap_efficiency").number, 0.4, 5e-4);

  const auto& devices = doc.at("devices").array;
  ASSERT_EQ(devices.size(), totals.devices().size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const ms::analyze::DeviceBound& d = totals.devices()[i];
    EXPECT_EQ(devices[i].at("device").number, static_cast<double>(d.device));
    expect_us(devices[i].at("path_us"), d.path);
    expect_us(devices[i].at("h2d_us"), d.h2d);
    expect_us(devices[i].at("d2h_us"), d.d2h);
    expect_us(devices[i].at("link_us"), d.link);
    expect_us(devices[i].at("bound_us"), d.bound);
  }
}

TEST(ReportJson, LintSeverities) {
  LintFinding note;
  note.rule = std::string(rule::kRedundantH2D);
  note.severity = ms::analyze::LintSeverity::Note;
  note.message = "a note-level finding";
  LintFinding warn;
  warn.rule = std::string(rule::kDeadAction);
  warn.severity = ms::analyze::LintSeverity::Warning;
  warn.message = "a warning-level finding";
  LintTotals totals;
  totals.add_findings({note, warn});

  const JsonValue doc = parse(ms::analyze::json_report(totals));
  const auto& findings = doc.at("findings").array;
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].at("severity").string, "note");
  EXPECT_EQ(findings[1].at("severity").string, "warning");
  EXPECT_EQ(findings[1].at("actions").kind, JsonValue::Array);
  EXPECT_TRUE(findings[1].at("actions").array.empty());
}

TEST(ReportJson, EscapesStrings) {
  const std::string nasty = "quote \" backslash \\ newline \n tab \t done";
  LintFinding f;
  f.rule = std::string(rule::kDeadAction);
  f.buffer_name = nasty;
  f.message = nasty;
  f.fixit = nasty;
  LintTotals totals;
  totals.add_findings({f});
  const JsonValue lint = parse(ms::analyze::json_report(totals));
  const JsonValue& j = lint.at("findings").array.at(0);
  EXPECT_EQ(j.at("buffer_name").string, nasty);
  EXPECT_EQ(j.at("message").string, nasty);
  EXPECT_EQ(j.at("fixit").string, nasty);

  GraphRecord g;
  g.stream_count = 2;
  constexpr ms::rt::BufferId kBuf{1};
  g.declare_buffer(kBuf, 64, nasty);
  g.add_kernel(0, 0, nasty, {{kBuf, AccessMode::Write, MemRange::flat(0, 64)}});
  g.add_kernel(1, 0, "w2", {{kBuf, AccessMode::Write, MemRange::flat(0, 64)}});
  const ms::analyze::Analysis a = ms::analyze::analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  const JsonValue hazards = parse(ms::analyze::json_report(a));
  const JsonValue& h = hazards.at("hazards").array.at(0);
  EXPECT_EQ(h.at("buffer_name").string, nasty);
  EXPECT_EQ(h.at("first").at("label").string, nasty);
  EXPECT_EQ(h.at("message").string, a.hazards[0].message);
}

TEST(ReportJson, CleanLintTotals) {
  const LintTotals totals;
  const JsonValue doc = parse(ms::analyze::json_report(totals));
  EXPECT_TRUE(doc.at("clean").boolean);
  EXPECT_EQ(doc.at("segments").number, 0.0);
  EXPECT_EQ(doc.at("nodes").number, 0.0);
  EXPECT_EQ(doc.at("bound_us").number, 0.0);
  EXPECT_EQ(doc.at("elapsed_us").number, 0.0);
  EXPECT_EQ(doc.at("overlap_efficiency").number, 0.0);
  EXPECT_EQ(doc.at("devices").kind, JsonValue::Array);
  EXPECT_TRUE(doc.at("devices").array.empty());
  EXPECT_EQ(doc.at("findings").kind, JsonValue::Array);
  EXPECT_TRUE(doc.at("findings").array.empty());
}

}  // namespace
