#include "telemetry/export.hpp"

#include <ostream>
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

/// Rendered `{key="value"}` selector of a labeled snapshot ("" if unlabeled).
/// Delegates to the registry's shared renderer so exporters and family
/// track() names agree byte-for-byte.
std::string label_selector(const MetricSnapshot& m) {
  return render_selector(m.label_key, m.label_value);
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
    const std::string sel = label_selector(m);
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

void write_json(std::ostream& os, const Registry::Snapshot& snap) {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.kind != MetricKind::Counter) continue;
    if (!first) os << ',';
    first = false;
    os << "\n    ";
    os << json_quote(m.name + label_selector(m));
    os << ": " << m.counter;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.kind != MetricKind::Gauge && m.kind != MetricKind::MaxGauge) continue;
    if (!first) os << ',';
    first = false;
    os << "\n    ";
    os << json_quote(m.name + label_selector(m));
    os << ": " << m.gauge;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.kind != MetricKind::Histogram) continue;
    if (!first) os << ',';
    first = false;
    os << "\n    ";
    os << json_quote(m.name + label_selector(m));
    os << ": {\"count\": " << m.histogram.count() << ", \"sum\": " << m.histogram.sum
       << ", \"p50\": " << m.histogram.quantile(0.50) << ", \"p95\": " << m.histogram.quantile(0.95)
       << ", \"p99\": " << m.histogram.quantile(0.99);
    if (m.histogram.exemplar_replay != 0) {
      os << ", \"exemplar\": {\"replay_id\": " << m.histogram.exemplar_replay
         << ", \"value\": " << m.histogram.exemplar_value << '}';
    }
    os << ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (m.histogram.buckets[b] == 0) continue;
      if (!bfirst) os << ", ";
      bfirst = false;
      os << '[' << HistogramSnapshot::bucket_upper(b) << ", " << m.histogram.buckets[b] << ']';
    }
    os << "]}";
  }
  os << "\n  }\n}\n";
}

void write_snapshot(std::ostream& os, bool prometheus) {
  const auto snap = registry().snapshot();
  if (prometheus) {
    write_prometheus(os, snap);
  } else {
    write_json(os, snap);
  }
}

}  // namespace ms::telemetry
