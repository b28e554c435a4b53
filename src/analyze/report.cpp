#include "analyze/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "telemetry/export.hpp"

namespace ms::analyze {
namespace {

using telemetry::json_quote;

std::string json_action(const HazardAction& a) {
  std::string s = "{\"id\": " + std::to_string(a.id & 0xFFFFFFFFFFull) +
                  ", \"stream\": " + std::to_string(a.stream) + ", \"kind\": \"" +
                  std::string(to_string(a.kind)) + "\", \"label\": " + json_quote(a.label) + "}";
  return s;
}

std::string json_range(const rt::MemRange& r) {
  return "{\"offset\": " + std::to_string(r.offset) + ", \"len\": " + std::to_string(r.len) +
         ", \"rows\": " + std::to_string(r.rows) + ", \"stride\": " + std::to_string(r.stride) +
         "}";
}

std::string f3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string json_actions(const std::vector<HazardAction>& actions) {
  std::string out = "[";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_action(actions[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string text_report(const Analysis& analysis) {
  if (analysis.clean()) {
    return "analyze: clean (" + std::to_string(analysis.nodes_analyzed) + " actions, 0 hazards)\n";
  }
  std::string out = "analyze: " + std::to_string(analysis.hazards.size()) + " hazard(s) in " +
                    std::to_string(analysis.nodes_analyzed) + " actions\n";
  std::size_t i = 1;
  for (const Hazard& h : analysis.hazards) {
    out += "  [" + std::to_string(i++) + "] " + h.message + "\n";
  }
  return out;
}

std::string json_report(const Analysis& analysis) {
  std::string out = "{\n  \"clean\": ";
  out += analysis.clean() ? "true" : "false";
  out += ",\n  \"nodes\": " + std::to_string(analysis.nodes_analyzed);
  out += ",\n  \"hazards\": [";
  bool first = true;
  for (const Hazard& h : analysis.hazards) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kind\": \"" + std::string(to_string(h.kind)) + "\"";
    if (h.kind != HazardKind::Deadlock) {
      out += ", \"buffer\": " + std::to_string(h.buffer) + ", \"buffer_name\": " +
             json_quote(h.buffer_name) + ", \"space\": " +
             (h.space == kHostSpace ? std::string("\"host\"") : std::to_string(h.space));
    }
    if (h.first.id != 0 || h.kind == HazardKind::Deadlock) {
      out += ", \"first\": " + json_action(h.first);
    }
    out += ", \"second\": " + json_action(h.second);
    if (!h.range_first.empty()) out += ", \"range_first\": " + json_range(h.range_first);
    if (!h.range_second.empty()) out += ", \"range_second\": " + json_range(h.range_second);
    if (!h.cycle.empty()) out += ", \"cycle\": " + json_actions(h.cycle);
    out += ", \"message\": " + json_quote(h.message) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string text_report(const LintTotals& totals) {
  std::string out;
  const std::vector<LintFinding>& findings = totals.findings();
  if (findings.empty()) {
    out += "lint: clean (" + std::to_string(totals.nodes()) + " actions in " +
           std::to_string(totals.segments()) + " segment(s), 0 findings)\n";
  } else {
    out += "lint: " + std::to_string(findings.size()) + " finding(s) in " +
           std::to_string(totals.nodes()) + " actions\n";
    std::size_t i = 1;
    for (const LintFinding& f : findings) {
      out += "  [" + std::to_string(i++) + "] " + std::string(to_string(f.severity)) + " " +
             f.rule + ": " + f.message + "\n";
      if (!f.fixit.empty()) out += "      fix: " + f.fixit + "\n";
    }
  }
  for (const DeviceBound& d : totals.devices()) {
    out += "  device " + std::to_string(d.device) + ": path " + f3(d.path.millis()) +
           " ms, link " + f3(d.link.millis()) + " ms (h2d " + f3(d.h2d.millis()) + " + d2h " +
           f3(d.d2h.millis()) + "), bound " + f3(d.bound.millis()) + " ms\n";
  }
  if (totals.elapsed() > sim::SimTime::zero()) {
    out += "  bound " + f3(totals.bound().millis()) + " ms <= elapsed " +
           f3(totals.elapsed().millis()) + " ms, overlap efficiency " +
           f3(totals.overlap_efficiency()) + "\n";
  }
  return out;
}

std::string json_report(const LintTotals& totals) {
  std::string out = "{\n  \"clean\": ";
  out += totals.clean() ? "true" : "false";
  out += ",\n  \"segments\": " + std::to_string(totals.segments());
  out += ",\n  \"nodes\": " + std::to_string(totals.nodes());
  out += ",\n  \"bound_us\": " + f3(totals.bound().micros());
  out += ",\n  \"elapsed_us\": " + f3(totals.elapsed().micros());
  out += ",\n  \"overlap_efficiency\": " + f3(totals.overlap_efficiency());
  out += ",\n  \"devices\": [";
  bool first = true;
  for (const DeviceBound& d : totals.devices()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"device\": " + std::to_string(d.device) + ", \"path_us\": " +
           f3(d.path.micros()) + ", \"h2d_us\": " + f3(d.h2d.micros()) + ", \"d2h_us\": " +
           f3(d.d2h.micros()) + ", \"link_us\": " + f3(d.link.micros()) + ", \"bound_us\": " +
           f3(d.bound.micros()) + "}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"findings\": [";
  first = true;
  for (const LintFinding& f : totals.findings()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": \"" + f.rule + "\", \"severity\": \"" +
           std::string(to_string(f.severity)) + "\", \"device\": " + std::to_string(f.device) +
           ", \"buffer\": " + std::to_string(f.buffer) + ", \"buffer_name\": " +
           json_quote(f.buffer_name) + ", \"message\": " + json_quote(f.message) +
           ", \"fixit\": " + json_quote(f.fixit) + ", \"actions\": " +
           json_actions(f.actions) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string dot_racy_subgraph(const Analysis& analysis, const GraphRecord& record) {
  std::set<std::uint64_t> involved;
  for (const Hazard& h : analysis.hazards) {
    if (h.first.id != 0) involved.insert(h.first.id);
    if (h.second.id != 0) involved.insert(h.second.id);
    for (const HazardAction& a : h.cycle) {
      if (a.id != 0) involved.insert(a.id);
    }
  }

  std::string out = "digraph hazards {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  for (const std::uint64_t id : involved) {
    const ActionNode* n = record.find(id);
    std::string label;
    int stream = -2;
    if (n != nullptr) {
      label = n->label;
      stream = n->stream;
    }
    out += "  n" + std::to_string(id & 0xFFFFFFFFFFull) + " [label=\"#" +
           std::to_string(id & 0xFFFFFFFFFFull) + " " + label +
           (stream >= 0 ? "\\nstream " + std::to_string(stream) : std::string("\\nhost")) +
           "\"];\n";
  }

  // Ordering edges among the involved nodes: explicit deps plus the
  // same-stream FIFO chain restricted to the subgraph.
  std::map<int, std::vector<std::uint64_t>> per_stream;
  for (const std::uint64_t id : involved) {
    const ActionNode* n = record.find(id);
    if (n == nullptr) continue;
    per_stream[n->stream].push_back(id);
    for (const std::uint64_t dep : n->deps) {
      if (involved.count(dep) != 0) {
        out += "  n" + std::to_string(dep & 0xFFFFFFFFFFull) + " -> n" +
               std::to_string(id & 0xFFFFFFFFFFull) + ";\n";
      }
    }
  }
  for (auto& [stream, ids] : per_stream) {
    if (stream < 0) continue;
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 1; i < ids.size(); ++i) {
      out += "  n" + std::to_string(ids[i - 1] & 0xFFFFFFFFFFull) + " -> n" +
             std::to_string(ids[i] & 0xFFFFFFFFFFull) + " [style=dotted, label=\"fifo\"];\n";
    }
  }

  for (const Hazard& h : analysis.hazards) {
    if (h.kind == HazardKind::Deadlock) {
      for (std::size_t i = 1; i < h.cycle.size(); ++i) {
        out += "  n" + std::to_string(h.cycle[i - 1].id & 0xFFFFFFFFFFull) + " -> n" +
               std::to_string(h.cycle[i].id & 0xFFFFFFFFFFull) +
               " [color=red, label=\"waits\"];\n";
      }
      continue;
    }
    if (h.first.id == 0 || h.second.id == 0) continue;
    out += "  n" + std::to_string(h.first.id & 0xFFFFFFFFFFull) + " -> n" +
           std::to_string(h.second.id & 0xFFFFFFFFFFull) +
           " [style=dashed, color=red, label=\"" + std::string(to_string(h.kind)) + "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace ms::analyze
