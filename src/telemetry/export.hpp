#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace ms::telemetry {

/// `s` as a quoted JSON string: escapes `"`, `\`, `\n`, `\r` and `\t`, and
/// writes every other byte below 0x20 as `\u00XX`. Every JSON writer of the
/// library (reports, traces) quotes its strings through this one function.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Write a registry snapshot in the Prometheus text exposition format
/// (# HELP / # TYPE lines, histograms as cumulative _bucket/_sum/_count
/// series with le labels). MaxGauges export as gauges.
void write_prometheus(std::ostream& os, const Registry::Snapshot& snap);

/// Snapshot the process registry and write it as Prometheus text.
void write_snapshot(std::ostream& os);

/// Process id of the wall-clock host track in a Chrome trace. High enough
/// never to collide with a device index.
inline constexpr int kHostTracePid = 1000;

/// Chrome trace-event JSON writer (chrome://tracing, https://ui.perfetto.dev)
/// and the one encoder of the host span rings and counter samples: the
/// `--trace` export adds the virtual device events through event(), and
/// GET /trace writes the host track alone.
///
///   ChromeTraceWriter w(os);           // {"displayTimeUnit":"ms","traceEvents":[
///   w.event() << "{...}";              // any number of events
///   w.host(spans, counters);           // the host process
///   w.close();                         // ]}
class ChromeTraceWriter {
public:
  explicit ChromeTraceWriter(std::ostream& os);

  /// Start the next event and return the stream to write its object into.
  std::ostream& event();

  /// The wall-clock "host" process (pid kHostTracePid, sorted above the
  /// devices): one thread per recording thread, each span a complete ("X")
  /// event and each counter sample a counter ("C") event. Timestamps are
  /// normalized so the earliest span or sample starts at 0. Writes nothing
  /// when both are empty.
  void host(std::span<const SpanRecord> spans, std::span<const CounterSample> counters);

  /// End the document.
  void close();

private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace ms::telemetry
