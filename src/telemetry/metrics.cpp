#include "telemetry/metrics.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace ms::telemetry {

std::uint64_t HistogramSnapshot::quantile(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the quantile observation (1-based, ceil) within the sorted
  // sample; the reported value is the containing bucket's upper bound.
  const double exact = p * static_cast<double>(n);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return bucket_upper(b);
  }
  return bucket_upper(kBuckets - 1);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) noexcept {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  sum += other.sum;
  if (other.exemplar_replay > exemplar_replay) {
    exemplar_replay = other.exemplar_replay;
    exemplar_value = other.exemplar_value;
  }
}

std::string render_selector(std::string_view key, std::string_view value) {
  if (key.empty()) return {};
  std::string out = "{";
  out += key;
  out += "=\"";
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '"': out += "\\\""; break;
      default: out += c;
    }
  }
  out += "\"}";
  return out;
}

const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::MaxGauge: return "max_gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

struct Registry::Entry {
  std::string name;
  std::string help;
  /// Family children record their label pair; empty key = unlabeled.
  std::string label_key;
  std::string label_value;
  /// Fully rendered series name (`name` or `name{key="value"}`); immutable
  /// after creation and owned by the immortal registry, so its c_str() is a
  /// process-lifetime-stable track name for counter samples and spans.
  std::string rendered;
  /// Entries are heap-allocated, so the metric's address stays stable as the
  /// registry grows (call sites hold references for the process life).
  AnyMetric metric;

  [[nodiscard]] MetricKind kind() const noexcept {
    return static_cast<MetricKind>(metric.index());
  }
};

struct Registry::Impl {
  /// A registered family: its kind, checked on every re-registration, and
  /// the Family<kind> itself, type-erased so one map holds every kind.
  struct FamilyEntry {
    MetricKind kind;
    std::unique_ptr<void, void (*)(void*)> family;
  };

  mutable std::mutex mu;
  std::vector<std::unique_ptr<Entry>> entries;
  /// Unlabeled metrics index by name; family children by
  /// name + '\x1f' + label value (no valid metric name contains '\x1f').
  std::unordered_map<std::string, std::size_t> index;
  std::unordered_map<std::string, FamilyEntry> families;
};

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Impl& Registry::impl() const {
  // Intentionally immortal (never destroyed): exporters may run from static
  // destructors ordered after this TU's (e.g. a --metrics sink registered
  // before the first metric), and registered references stay valid for the
  // whole process. Still reachable through this pointer, so not a leak.
  static Impl* i = new Impl;
  return *i;
}

template <MetricKind K>
Registry::Entry& Registry::find_or_create(std::string_view name, std::string_view help,
                                          std::string_view label_key,
                                          std::string_view label_value) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::string idx(name);
  if (label_key.empty()) {
    if (im.families.count(idx) != 0) {
      throw std::logic_error("telemetry: metric '" + idx + "' is registered as a labeled family");
    }
  } else {
    idx += '\x1f';
    idx += label_value;
  }
  if (auto it = im.index.find(idx); it != im.index.end()) {
    Entry& e = *im.entries[it->second];
    if (e.kind() != K) {
      throw std::logic_error("telemetry: metric '" + std::string(name) + "' registered as " +
                             to_string(e.kind()) + ", requested as " + to_string(K));
    }
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->label_key = std::string(label_key);
  entry->label_value = std::string(label_value);
  entry->rendered = entry->name + render_selector(label_key, label_value);
  entry->metric.emplace<static_cast<std::size_t>(K)>();
  im.entries.push_back(std::move(entry));
  im.index.emplace(std::move(idx), im.entries.size() - 1);
  return *im.entries.back();
}

template <MetricKind K>
Family<K>& Registry::family(std::string_view name, std::string_view help,
                            std::string_view label_key) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string n(name);
  if (auto it = im.families.find(n); it != im.families.end()) {
    if (it->second.kind != K) {
      throw std::logic_error("telemetry: family '" + n + "' registered as " +
                             to_string(it->second.kind) + ", requested as " + to_string(K));
    }
    auto& fam = *static_cast<Family<K>*>(it->second.family.get());
    if (fam.label_key() != label_key) {
      throw std::logic_error("telemetry: family '" + n + "' registered with label key '" +
                             fam.label_key() + "', requested '" + std::string(label_key) + "'");
    }
    return fam;
  }
  if (im.index.count(n) != 0) {
    throw std::logic_error("telemetry: '" + n + "' already registered as an unlabeled metric");
  }
  auto* fam = new Family<K>(*this, n, std::string(help), std::string(label_key));
  im.families.emplace(
      n, Impl::FamilyEntry{K, {fam, [](void* f) { delete static_cast<Family<K>*>(f); }}});
  return *fam;
}

template <MetricKind K>
MetricOf<K>& Family<K>::with(std::string_view label_value) {
  return std::get<static_cast<std::size_t>(K)>(
      reg_->find_or_create<K>(name_, help_, key_, label_value).metric);
}

template <MetricKind K>
const char* Family<K>::track(std::string_view label_value) {
  return reg_->find_or_create<K>(name_, help_, key_, label_value).rendered.c_str();
}

template class Family<MetricKind::Counter>;
template class Family<MetricKind::Gauge>;
template class Family<MetricKind::Histogram>;
template CounterFamily& Registry::family<MetricKind::Counter>(std::string_view, std::string_view,
                                                              std::string_view);
template GaugeFamily& Registry::family<MetricKind::Gauge>(std::string_view, std::string_view,
                                                          std::string_view);
template HistogramFamily& Registry::family<MetricKind::Histogram>(std::string_view,
                                                                  std::string_view,
                                                                  std::string_view);

Counter& Registry::counter(std::string_view name, std::string_view help) {
  return std::get<Counter>(find_or_create<MetricKind::Counter>(name, help).metric);
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  return std::get<Gauge>(find_or_create<MetricKind::Gauge>(name, help).metric);
}

MaxGauge& Registry::max_gauge(std::string_view name, std::string_view help) {
  return std::get<MaxGauge>(find_or_create<MetricKind::MaxGauge>(name, help).metric);
}

Histogram& Registry::histogram(std::string_view name, std::string_view help) {
  return std::get<Histogram>(find_or_create<MetricKind::Histogram>(name, help).metric);
}

Registry::Snapshot Registry::snapshot() const {
  Impl& im = impl();
  Snapshot out;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    out.metrics.reserve(im.entries.size());
    for (const auto& e : im.entries) {
      MetricSnapshot m;
      m.name = e->name;
      m.help = e->help;
      m.kind = e->kind();
      m.label_key = e->label_key;
      m.label_value = e->label_value;
      switch (m.kind) {
        case MetricKind::Counter: m.counter = std::get<Counter>(e->metric).value(); break;
        case MetricKind::Gauge: m.gauge = std::get<Gauge>(e->metric).value(); break;
        case MetricKind::MaxGauge: m.gauge = std::get<MaxGauge>(e->metric).value(); break;
        case MetricKind::Histogram: m.histogram = std::get<Histogram>(e->metric).snapshot(); break;
      }
      out.metrics.push_back(std::move(m));
    }
  }
  std::sort(out.metrics.begin(), out.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.label_value < b.label_value;
            });
  return out;
}

void Registry::reset_all() noexcept {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (const auto& e : im.entries) {
    std::visit([](auto& m) { m.reset(); }, e->metric);
  }
}

std::size_t Registry::size() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.entries.size();
}

}  // namespace ms::telemetry
