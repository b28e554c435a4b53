#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <set>
#include <string_view>

#include "telemetry/export.hpp"

namespace ms::trace {

void write_chrome_trace(std::ostream& os, const Timeline& timeline) {
  write_chrome_trace(os, timeline, {});
}

void write_chrome_trace(std::ostream& os, const Timeline& timeline,
                        std::span<const telemetry::SpanRecord> host_spans) {
  write_chrome_trace(os, timeline, host_spans, {});
}

void write_chrome_trace(std::ostream& os, const Timeline& timeline,
                        std::span<const telemetry::SpanRecord> host_spans,
                        std::span<const telemetry::CounterSample> counters) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };
  /// Exact microseconds with a 3-digit nanosecond fraction — stream default
  /// precision would round large steady-clock offsets.
  auto write_us = [&](std::uint64_t ns) {
    os << ns / 1000 << '.' << static_cast<char>('0' + ns / 100 % 10)
       << static_cast<char>('0' + ns / 10 % 10) << static_cast<char>('0' + ns % 10);
  };
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
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << d
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"device " << d << " (virtual)\"}}";
  }

  for (const Span& s : timeline.spans()) {
    sep();
    os << "{\"ph\":\"X\",\"name\":";
    os << telemetry::json_quote(s.label.empty() ? std::string_view(to_string(s.kind)) : s.label);
    os << ",\"cat\":\"" << to_string(s.kind) << "\"";
    os << ",\"pid\":" << s.device << ",\"tid\":" << s.stream;
    os << ",\"ts\":";
    write_sim_us(s.start);
    os << ",\"dur\":";
    write_sim_us(s.duration());
    os << ",\"args\":{\"partition\":" << s.partition << ",\"bytes\":" << s.bytes;
    if (s.replay_id != 0) os << ",\"replay_id\":" << s.replay_id;
    os << "}}";
  }

  if (!host_spans.empty() || !counters.empty()) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << kHostTracePid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"host (wall-clock)\"}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << kHostTracePid
       << ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":-1}}";
    std::set<std::uint32_t> threads;
    for (const telemetry::SpanRecord& r : host_spans) threads.insert(r.thread);
    for (const std::uint32_t t : threads) {
      sep();
      os << "{\"ph\":\"M\",\"pid\":" << kHostTracePid << ",\"tid\":" << t
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"host thread " << t << "\"}}";
    }

    // Normalize so the earliest host event starts at 0 — steady-clock offsets
    // are since boot and would park the track light-years from the devices.
    // Spans and counters share one origin so their tracks stay aligned.
    std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
    for (const telemetry::SpanRecord& r : host_spans) t0 = std::min(t0, r.start_ns);
    for (const telemetry::CounterSample& c : counters) t0 = std::min(t0, c.t_ns);
    for (const telemetry::SpanRecord& r : host_spans) {
      sep();
      os << "{\"ph\":\"X\",\"name\":";
      os << telemetry::json_quote(r.name != nullptr ? r.name : "span");
      os << ",\"cat\":\"host\",\"pid\":" << kHostTracePid << ",\"tid\":" << r.thread
         << ",\"ts\":";
      write_us(r.start_ns - t0);
      os << ",\"dur\":";
      write_us(r.duration_ns());
      if (r.replay_id != 0) os << ",\"args\":{\"replay_id\":" << r.replay_id << '}';
      os << '}';
    }
    for (const telemetry::CounterSample& c : counters) {
      sep();
      os << "{\"ph\":\"C\",\"name\":";
      os << telemetry::json_quote(c.name != nullptr ? c.name : "counter");
      os << ",\"cat\":\"counter\",\"pid\":" << kHostTracePid << ",\"ts\":";
      write_us(c.t_ns - t0);
      os << ",\"args\":{\"value\":";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", c.value);
      os << buf << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace ms::trace
