#include "trace/chrome_trace.hpp"

#include <cstdio>
#include <ostream>
#include <set>
#include <string_view>

#include "telemetry/export.hpp"

namespace ms::trace {

void write_chrome_trace(std::ostream& os, const Timeline& timeline,
                        std::span<const telemetry::SpanRecord> host_spans,
                        std::span<const telemetry::CounterSample> counters) {
  telemetry::ChromeTraceWriter w(os);
  /// Virtual device microseconds, fixed to 3 decimals like the host track.
  auto write_sim_us = [&](sim::SimTime t) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.3f", t.micros());
    os << buf;
  };

  // Name the virtual-device processes so the combined view reads itself.
  std::set<int> devices;
  for (const Span& s : timeline.spans()) devices.insert(s.device);
  for (const int d : devices) {
    w.event() << "{\"ph\":\"M\",\"pid\":" << d
              << ",\"name\":\"process_name\",\"args\":{\"name\":\"device " << d
              << " (virtual)\"}}";
  }

  for (const Span& s : timeline.spans()) {
    w.event() << "{\"ph\":\"X\",\"name\":"
              << telemetry::json_quote(s.label.empty() ? std::string_view(to_string(s.kind))
                                                       : s.label)
              << ",\"cat\":\"" << to_string(s.kind) << "\"";
    os << ",\"pid\":" << s.device << ",\"tid\":" << s.stream;
    os << ",\"ts\":";
    write_sim_us(s.start);
    os << ",\"dur\":";
    write_sim_us(s.duration());
    os << ",\"args\":{\"partition\":" << s.partition << ",\"bytes\":" << s.bytes;
    if (s.replay_id != 0) os << ",\"replay_id\":" << s.replay_id;
    os << "}}";
  }

  w.host(host_spans, counters);
  w.close();
}

}  // namespace ms::trace
