#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"

namespace ms::telemetry {

/// `s` as a quoted JSON string: escapes `"`, `\`, `\n`, `\r` and `\t`, and
/// writes every other byte below 0x20 as `\u00XX`. Every JSON writer of the
/// library (reports, traces, metric snapshots, the live endpoint) quotes its
/// strings through this one function.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Write a registry snapshot in the Prometheus text exposition format
/// (# HELP / # TYPE lines, histograms as cumulative _bucket/_sum/_count
/// series with le labels). MaxGauges export as gauges.
void write_prometheus(std::ostream& os, const Registry::Snapshot& snap);

/// Write a registry snapshot as one JSON object:
///   {"counters": {...}, "gauges": {...},
///    "histograms": {name: {count, sum, p50, p95, p99, buckets: [[le, n]...]}}}
/// Histogram quantiles are the log-bucket upper bounds (see
/// HistogramSnapshot), good to ~2x — latency orders of magnitude, not
/// nanosecond precision.
void write_json(std::ostream& os, const Registry::Snapshot& snap);

/// Convenience: snapshot the process registry and write it. `prometheus`
/// selects the text format, otherwise JSON.
void write_snapshot(std::ostream& os, bool prometheus);

}  // namespace ms::telemetry
