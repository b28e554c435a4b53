#pragma once

#include <iosfwd>
#include <span>

#include "telemetry/span.hpp"
#include "trace/timeline.hpp"

namespace ms::trace {

/// Export a timeline in the Chrome trace-event JSON format, loadable in
/// chrome://tracing or https://ui.perfetto.dev. Devices map to processes,
/// streams to threads, each span to one complete ("X") event with its kind
/// as the category; virtual microseconds map 1:1 onto trace microseconds.
///
/// Host telemetry spans and counter samples, when given, follow as the
/// wall-clock "host" process (telemetry::ChromeTraceWriter::host): counter
/// samples render as stacked area charts above the span tracks. The two time
/// bases share the microsecond unit but are otherwise independent, which is
/// exactly how the paper's host-vs-device timelines are read side by side.
void write_chrome_trace(std::ostream& os, const Timeline& timeline,
                        std::span<const telemetry::SpanRecord> host_spans = {},
                        std::span<const telemetry::CounterSample> counters = {});

}  // namespace ms::trace
