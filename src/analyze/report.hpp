#pragma once

#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/perf_lint.hpp"
#include "analyze/record.hpp"

namespace ms::analyze {

/// Human-readable multi-line report (one paragraph per hazard).
[[nodiscard]] std::string text_report(const Analysis& analysis);

/// Machine-readable report: {"clean": bool, "nodes": N, "hazards": [...]}.
[[nodiscard]] std::string json_report(const Analysis& analysis);

/// Graphviz dot of the racy subgraph: every action involved in a hazard,
/// the ordering edges among them, and a dashed red edge per missing edge.
[[nodiscard]] std::string dot_racy_subgraph(const Analysis& analysis, const GraphRecord& record);

// --- lint report formats ------------------------------------------------------

/// Human-readable lint summary: findings with fix-its, then per-device bound
/// components and the overlap-efficiency score.
[[nodiscard]] std::string text_report(const LintTotals& totals);

/// Machine-readable lint summary:
/// {"clean": bool, "segments": N, "nodes": N, "bound_us": x, "elapsed_us": x,
///  "overlap_efficiency": x, "devices": [...], "findings": [...]}.
[[nodiscard]] std::string json_report(const LintTotals& totals);

}  // namespace ms::analyze
