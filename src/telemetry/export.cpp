#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <set>
#include <string>

namespace ms::telemetry {

namespace {

/// Prometheus metric names and help strings are library-generated, but keep
/// the escaping anyway — a dynamic registration (per-worker counters) could
/// in principle carry anything.
void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '"': os << "\\\""; break;
      default: os << c;
    }
  }
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void write_prometheus(std::ostream& os, const Registry::Snapshot& snap) {
  // Snapshots are (name, label)-sorted, so a family's children are adjacent:
  // emit HELP/TYPE once per metric name.
  const std::string* described = nullptr;
  for (const MetricSnapshot& m : snap.metrics) {
    const std::string sel = render_selector(m.label_key, m.label_value);
    if (described == nullptr || *described != m.name) {
      os << "# HELP " << m.name << ' ';
      write_escaped(os, m.help);
      os << '\n';
      os << "# TYPE " << m.name << ' '
         << (m.kind == MetricKind::Counter     ? "counter"
             : m.kind == MetricKind::Histogram ? "histogram"
                                               : "gauge")
         << '\n';
      described = &m.name;
    }
    switch (m.kind) {
      case MetricKind::Counter:
        os << m.name << sel << ' ' << m.counter << '\n';
        break;
      case MetricKind::Gauge:
      case MetricKind::MaxGauge:
        os << m.name << sel << ' ' << m.gauge << '\n';
        break;
      case MetricKind::Histogram: {
        // A labeled histogram's extra label joins `le` inside one selector.
        const std::string pre =
            sel.empty() ? "{le=\"" : sel.substr(0, sel.size() - 1) + ",le=\"";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
          if (m.histogram.buckets[b] == 0) continue;  // sparse: most buckets are empty
          cum += m.histogram.buckets[b];
          os << m.name << "_bucket" << pre << HistogramSnapshot::bucket_upper(b) << "\"} " << cum
             << '\n';
        }
        os << m.name << "_bucket" << pre << "+Inf\"} " << m.histogram.count();
        if (m.histogram.exemplar_replay != 0) {
          // OpenMetrics-style exemplar: joins this series to the replay that
          // produced its most recent observation (span ring / Chrome trace
          // carry the same id).
          os << " # {replay_id=\"" << m.histogram.exemplar_replay << "\"} "
             << m.histogram.exemplar_value;
        }
        os << '\n';
        os << m.name << "_sum" << sel << ' ' << m.histogram.sum << '\n';
        os << m.name << "_count" << sel << ' ' << m.histogram.count() << '\n';
        break;
      }
    }
  }
}

void write_snapshot(std::ostream& os) { write_prometheus(os, registry().snapshot()); }

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

std::ostream& ChromeTraceWriter::event() {
  if (!first_) os_ << ',';
  first_ = false;
  return os_ << '\n';
}

void ChromeTraceWriter::host(std::span<const SpanRecord> spans,
                             std::span<const CounterSample> counters) {
  if (spans.empty() && counters.empty()) return;
  /// Exact microseconds with a 3-digit nanosecond fraction — stream default
  /// precision would round large steady-clock offsets.
  auto write_us = [&](std::uint64_t ns) {
    os_ << ns / 1000 << '.' << static_cast<char>('0' + ns / 100 % 10)
        << static_cast<char>('0' + ns / 10 % 10) << static_cast<char>('0' + ns % 10);
  };
  event() << "{\"ph\":\"M\",\"pid\":" << kHostTracePid
          << ",\"name\":\"process_name\",\"args\":{\"name\":\"host (wall-clock)\"}}";
  event() << "{\"ph\":\"M\",\"pid\":" << kHostTracePid
          << ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":-1}}";
  std::set<std::uint32_t> threads;
  for (const SpanRecord& r : spans) threads.insert(r.thread);
  for (const std::uint32_t t : threads) {
    event() << "{\"ph\":\"M\",\"pid\":" << kHostTracePid << ",\"tid\":" << t
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\"host thread " << t << "\"}}";
  }

  // Normalize so the earliest host event starts at 0 — steady-clock offsets
  // are since boot and would park the track light-years from the devices.
  // Spans and counters share one origin so their tracks stay aligned.
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const SpanRecord& r : spans) t0 = std::min(t0, r.start_ns);
  for (const CounterSample& c : counters) t0 = std::min(t0, c.t_ns);
  for (const SpanRecord& r : spans) {
    event() << "{\"ph\":\"X\",\"name\":" << json_quote(r.name != nullptr ? r.name : "span")
            << ",\"cat\":\"host\",\"pid\":" << kHostTracePid << ",\"tid\":" << r.thread
            << ",\"ts\":";
    write_us(r.start_ns - t0);
    os_ << ",\"dur\":";
    write_us(r.duration_ns());
    if (r.replay_id != 0) os_ << ",\"args\":{\"replay_id\":" << r.replay_id << '}';
    os_ << '}';
  }
  for (const CounterSample& c : counters) {
    event() << "{\"ph\":\"C\",\"name\":" << json_quote(c.name != nullptr ? c.name : "counter")
            << ",\"cat\":\"counter\",\"pid\":" << kHostTracePid << ",\"ts\":";
    write_us(c.t_ns - t0);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", c.value);
    os_ << ",\"args\":{\"value\":" << buf << "}}";
  }
}

void ChromeTraceWriter::close() { os_ << "\n]}\n"; }

}  // namespace ms::telemetry
