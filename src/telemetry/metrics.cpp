#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

bool env_switch(const char* name) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0) return false;
  if (std::strcmp(v, "1") == 0) return true;
  // Warn once per variable: MS_ANALYZE is read by every Context.
  static std::mutex mu;
  static std::vector<std::string> warned;
  const std::lock_guard<std::mutex> lock(mu);
  if (std::find(warned.begin(), warned.end(), name) == warned.end()) {
    warned.emplace_back(name);
    std::fprintf(stderr, "warning: %s='%s' is not 0 or 1; treating it as 0\n", name, v);
  }
  return false;
}

namespace detail {

bool init_from_env() noexcept {
  const bool on = env_switch("MS_METRICS");
  int expected = -1;
  g_state.compare_exchange_strong(expected, on ? 1 : 0, std::memory_order_relaxed);
  return g_state.load(std::memory_order_relaxed) != 0;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

struct Registry::Entry {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::Counter;
  /// Family children record their label pair; empty key = unlabeled.
  std::string label_key;
  std::string label_value;
  /// Fully rendered series name (`name` or `name{key="value"}`); immutable
  /// after creation and owned by the immortal registry, so its c_str() is a
  /// process-lifetime-stable track name for counter samples and spans.
  std::string rendered;
  // Exactly one is set, matching `kind`; unique_ptr keeps addresses stable
  // as the registry grows (call sites hold references for the process life).
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<MaxGauge> max_gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Registry::Impl {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<Entry>> entries;
  /// Unlabeled metrics index by name; family children by
  /// name + '\x1f' + label value (no valid metric name contains '\x1f').
  std::unordered_map<std::string, std::size_t> index;
  std::unordered_map<std::string, std::unique_ptr<CounterFamily>> counter_families;
  std::unordered_map<std::string, std::unique_ptr<GaugeFamily>> gauge_families;
  std::unordered_map<std::string, std::unique_ptr<HistogramFamily>> histogram_families;
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

namespace {
/// Index key of a family child: family name + unit separator + label value.
std::string child_key(std::string_view name, std::string_view value) {
  std::string k(name);
  k += '\x1f';
  k += value;
  return k;
}
}  // namespace

Registry::Entry& Registry::find_or_create(std::string_view name, std::string_view help,
                                          MetricKind kind) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.counter_families.count(std::string(name)) != 0 ||
      im.gauge_families.count(std::string(name)) != 0 ||
      im.histogram_families.count(std::string(name)) != 0) {
    throw std::logic_error("telemetry: metric '" + std::string(name) +
                           "' is registered as a labeled family");
  }
  if (auto it = im.index.find(std::string(name)); it != im.index.end()) {
    Entry& e = *im.entries[it->second];
    if (e.kind != kind) {
      throw std::logic_error("telemetry: metric '" + std::string(name) + "' registered as " +
                             to_string(e.kind) + ", requested as " + to_string(kind));
    }
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->kind = kind;
  entry->rendered = entry->name;
  switch (kind) {
    case MetricKind::Counter: entry->counter = std::make_unique<Counter>(); break;
    case MetricKind::Gauge: entry->gauge = std::make_unique<Gauge>(); break;
    case MetricKind::MaxGauge: entry->max_gauge = std::make_unique<MaxGauge>(); break;
    case MetricKind::Histogram: entry->histogram = std::make_unique<Histogram>(); break;
  }
  im.entries.push_back(std::move(entry));
  im.index.emplace(im.entries.back()->name, im.entries.size() - 1);
  return *im.entries.back();
}

Registry::Entry& Registry::find_or_create_labeled(const std::string& name, const std::string& help,
                                                  const std::string& key, std::string_view value,
                                                  MetricKind kind) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string idx = child_key(name, value);
  if (auto it = im.index.find(idx); it != im.index.end()) {
    return *im.entries[it->second];
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->kind = kind;
  entry->label_key = key;
  entry->label_value = std::string(value);
  entry->rendered = name + render_selector(key, value);
  switch (kind) {
    case MetricKind::Counter: entry->counter = std::make_unique<Counter>(); break;
    case MetricKind::Gauge: entry->gauge = std::make_unique<Gauge>(); break;
    case MetricKind::MaxGauge: entry->max_gauge = std::make_unique<MaxGauge>(); break;
    case MetricKind::Histogram: entry->histogram = std::make_unique<Histogram>(); break;
  }
  im.entries.push_back(std::move(entry));
  im.index.emplace(idx, im.entries.size() - 1);
  return *im.entries.back();
}

CounterFamily& Registry::counter_family(std::string_view name, std::string_view help,
                                        std::string_view label_key) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string n(name);
  if (auto it = im.counter_families.find(n); it != im.counter_families.end()) {
    if (it->second->label_key() != label_key) {
      throw std::logic_error("telemetry: family '" + n + "' registered with label key '" +
                             it->second->label_key() + "', requested '" + std::string(label_key) +
                             "'");
    }
    return *it->second;
  }
  if (im.histogram_families.count(n) != 0 || im.gauge_families.count(n) != 0) {
    throw std::logic_error("telemetry: family '" + n +
                           "' registered with a different kind, requested as counter");
  }
  if (im.index.count(n) != 0) {
    throw std::logic_error("telemetry: '" + n + "' already registered as an unlabeled metric");
  }
  auto fam = std::unique_ptr<CounterFamily>(
      new CounterFamily(*this, n, std::string(help), std::string(label_key)));
  auto [it, inserted] = im.counter_families.emplace(n, std::move(fam));
  (void)inserted;
  return *it->second;
}

GaugeFamily& Registry::gauge_family(std::string_view name, std::string_view help,
                                    std::string_view label_key) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string n(name);
  if (auto it = im.gauge_families.find(n); it != im.gauge_families.end()) {
    if (it->second->label_key() != label_key) {
      throw std::logic_error("telemetry: family '" + n + "' registered with label key '" +
                             it->second->label_key() + "', requested '" + std::string(label_key) +
                             "'");
    }
    return *it->second;
  }
  if (im.counter_families.count(n) != 0 || im.histogram_families.count(n) != 0) {
    throw std::logic_error("telemetry: family '" + n +
                           "' registered with a different kind, requested as gauge");
  }
  if (im.index.count(n) != 0) {
    throw std::logic_error("telemetry: '" + n + "' already registered as an unlabeled metric");
  }
  auto fam = std::unique_ptr<GaugeFamily>(
      new GaugeFamily(*this, n, std::string(help), std::string(label_key)));
  auto [it, inserted] = im.gauge_families.emplace(n, std::move(fam));
  (void)inserted;
  return *it->second;
}

HistogramFamily& Registry::histogram_family(std::string_view name, std::string_view help,
                                            std::string_view label_key) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string n(name);
  if (auto it = im.histogram_families.find(n); it != im.histogram_families.end()) {
    if (it->second->label_key() != label_key) {
      throw std::logic_error("telemetry: family '" + n + "' registered with label key '" +
                             it->second->label_key() + "', requested '" + std::string(label_key) +
                             "'");
    }
    return *it->second;
  }
  if (im.counter_families.count(n) != 0 || im.gauge_families.count(n) != 0) {
    throw std::logic_error("telemetry: family '" + n +
                           "' registered with a different kind, requested as histogram");
  }
  if (im.index.count(n) != 0) {
    throw std::logic_error("telemetry: '" + n + "' already registered as an unlabeled metric");
  }
  auto fam = std::unique_ptr<HistogramFamily>(
      new HistogramFamily(*this, n, std::string(help), std::string(label_key)));
  auto [it, inserted] = im.histogram_families.emplace(n, std::move(fam));
  (void)inserted;
  return *it->second;
}

Counter& CounterFamily::with(std::string_view label_value) {
  return *reg_->find_or_create_labeled(name_, help_, key_, label_value, MetricKind::Counter)
              .counter;
}

const char* CounterFamily::track(std::string_view label_value) {
  return reg_->find_or_create_labeled(name_, help_, key_, label_value, MetricKind::Counter)
      .rendered.c_str();
}

Gauge& GaugeFamily::with(std::string_view label_value) {
  return *reg_->find_or_create_labeled(name_, help_, key_, label_value, MetricKind::Gauge).gauge;
}

const char* GaugeFamily::track(std::string_view label_value) {
  return reg_->find_or_create_labeled(name_, help_, key_, label_value, MetricKind::Gauge)
      .rendered.c_str();
}

Histogram& HistogramFamily::with(std::string_view label_value) {
  return *reg_->find_or_create_labeled(name_, help_, key_, label_value, MetricKind::Histogram)
              .histogram;
}

const char* HistogramFamily::track(std::string_view label_value) {
  return reg_->find_or_create_labeled(name_, help_, key_, label_value, MetricKind::Histogram)
      .rendered.c_str();
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  return *find_or_create(name, help, MetricKind::Counter).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  return *find_or_create(name, help, MetricKind::Gauge).gauge;
}

MaxGauge& Registry::max_gauge(std::string_view name, std::string_view help) {
  return *find_or_create(name, help, MetricKind::MaxGauge).max_gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help) {
  return *find_or_create(name, help, MetricKind::Histogram).histogram;
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
      m.kind = e->kind;
      m.label_key = e->label_key;
      m.label_value = e->label_value;
      switch (e->kind) {
        case MetricKind::Counter: m.counter = e->counter->value(); break;
        case MetricKind::Gauge: m.gauge = e->gauge->value(); break;
        case MetricKind::MaxGauge: m.gauge = e->max_gauge->value(); break;
        case MetricKind::Histogram: m.histogram = e->histogram->snapshot(); break;
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
    switch (e->kind) {
      case MetricKind::Counter: e->counter->reset(); break;
      case MetricKind::Gauge: e->gauge->reset(); break;
      case MetricKind::MaxGauge: e->max_gauge->reset(); break;
      case MetricKind::Histogram: e->histogram->reset(); break;
    }
  }
}

std::size_t Registry::size() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.entries.size();
}

}  // namespace ms::telemetry
