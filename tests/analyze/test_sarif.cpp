// SARIF 2.1.0 round-trip: both analyses export through the shared emitter in
// analyze/report.cpp; these tests parse the emitted logs back with a minimal
// JSON reader and verify the schema shape, the rule tables, and that every
// hazard/finding survives the trip with its ruleId, level, and message.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/perf_lint.hpp"
#include "analyze/record.hpp"
#include "analyze/report.hpp"
#include "sim/sim_time.hpp"

namespace {

using ms::analyze::GraphRecord;
using ms::analyze::LintFinding;
using ms::analyze::LintReport;
namespace rule = ms::analyze::rule;

// --- minimal JSON reader (enough for SARIF round-trips) ----------------------

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

const JsonValue& driver_of(const JsonValue& doc) {
  return doc.at("runs").array.at(0).at("tool").at("driver");
}

// --- lint SARIF --------------------------------------------------------------

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

TEST(Sarif, LintLogShape) {
  const LintReport r = duplex_report();
  ASSERT_FALSE(r.clean());
  const JsonValue doc = parse(ms::analyze::sarif_report(r.findings));

  EXPECT_EQ(doc.at("version").string, "2.1.0");
  EXPECT_NE(doc.at("$schema").string.find("sarif-2.1.0"), std::string::npos);
  ASSERT_EQ(doc.at("runs").array.size(), 1u);

  const JsonValue& driver = driver_of(doc);
  EXPECT_EQ(driver.at("name").string, "mstream-lint");

  // The rule table always carries the full catalog, even for one finding.
  const auto& rules = driver.at("rules").array;
  ASSERT_EQ(rules.size(), ms::analyze::lint_rule_ids().size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const std::string& id = rules[i].at("id").string;
    EXPECT_EQ(id, ms::analyze::lint_rule_ids()[i]);
    EXPECT_EQ(rules[i].at("shortDescription").at("text").string,
              ms::analyze::lint_rule_description(id));
  }
}

TEST(Sarif, LintFindingsRoundTrip) {
  const LintReport r = duplex_report();
  ASSERT_EQ(r.findings.size(), 1u);
  const JsonValue doc = parse(ms::analyze::sarif_report(r.findings));
  const auto& results = doc.at("runs").array.at(0).at("results").array;
  ASSERT_EQ(results.size(), 1u);

  const LintFinding& f = r.findings[0];
  const JsonValue& res = results[0];
  EXPECT_EQ(res.at("ruleId").string, f.rule);
  EXPECT_EQ(res.at("level").string, "warning");
  EXPECT_EQ(res.at("message").at("text").string, f.message);
  const JsonValue& props = res.at("properties");
  EXPECT_EQ(props.at("device").number, static_cast<double>(f.device));
  EXPECT_EQ(props.at("fixit").string, f.fixit);
  EXPECT_EQ(props.at("actions").array.size(), f.actions.size());
}

TEST(Sarif, LintSeverityMapsToLevel) {
  LintFinding note;
  note.rule = std::string(rule::kRedundantH2D);
  note.severity = ms::analyze::LintSeverity::Note;
  note.message = "a note-level finding";
  LintFinding warn;
  warn.rule = std::string(rule::kDeadAction);
  warn.severity = ms::analyze::LintSeverity::Warning;
  warn.message = "a warning-level finding";

  const JsonValue doc = parse(ms::analyze::sarif_report({note, warn}));
  const auto& results = doc.at("runs").array.at(0).at("results").array;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].at("level").string, "note");
  EXPECT_EQ(results[1].at("level").string, "warning");
}

TEST(Sarif, CleanLintLogIsValidWithEmptyResults) {
  const JsonValue doc = parse(ms::analyze::sarif_report(std::vector<LintFinding>{}));
  EXPECT_EQ(doc.at("runs").array.at(0).at("results").array.size(), 0u);
  EXPECT_EQ(driver_of(doc).at("rules").array.size(), ms::analyze::lint_rule_ids().size());
}

TEST(Sarif, EscapesMessageContent) {
  LintFinding f;
  f.rule = std::string(rule::kDeadAction);
  f.message = "quote \" backslash \\ newline \n tab \t done";
  const JsonValue doc = parse(ms::analyze::sarif_report({f}));
  const auto& results = doc.at("runs").array.at(0).at("results").array;
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].at("message").at("text").string, f.message);
}

// --- hazard SARIF ------------------------------------------------------------

TEST(Sarif, HazardLogRoundTrip) {
  // Two unordered overlapping writes from different streams: one RaceWAW.
  GraphRecord g;
  g.stream_count = 2;
  constexpr ms::rt::BufferId kBuf{1};
  g.declare_buffer(kBuf, 4096, "grid");
  g.add_kernel(0, 0, "w1", {{kBuf, ms::rt::AccessMode::Write, ms::rt::MemRange::flat(0, 4096)}});
  g.add_kernel(1, 0, "w2", {{kBuf, ms::rt::AccessMode::Write, ms::rt::MemRange::flat(0, 4096)}});
  const ms::analyze::Analysis a = ms::analyze::analyze(g);
  ASSERT_FALSE(a.clean());

  const JsonValue doc = parse(ms::analyze::sarif_report(a));
  EXPECT_EQ(doc.at("version").string, "2.1.0");
  const JsonValue& driver = driver_of(doc);
  EXPECT_EQ(driver.at("name").string, "mstream-analyze");
  EXPECT_FALSE(driver.at("rules").array.empty());

  const auto& results = doc.at("runs").array.at(0).at("results").array;
  ASSERT_EQ(results.size(), a.hazards.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].at("ruleId").string, ms::analyze::to_string(a.hazards[i].kind));
    EXPECT_EQ(results[i].at("level").string, "error");
    EXPECT_EQ(results[i].at("message").at("text").string, a.hazards[i].message);
  }
}

TEST(Sarif, RuleDescriptionsCoverCatalog) {
  for (const std::string_view id : ms::analyze::lint_rule_ids()) {
    EXPECT_FALSE(ms::analyze::lint_rule_description(id).empty()) << id;
  }
  EXPECT_TRUE(ms::analyze::lint_rule_description("no-such-rule").empty());
}

}  // namespace
