#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ms::telemetry {

// ---------------------------------------------------------------------------
// Histogram snapshot — pure data (merge and quantile logic is plain
// arithmetic, usable without a live Histogram).
// ---------------------------------------------------------------------------

/// Log-bucketed histogram contents. Bucket b holds observations x with
/// bit_width(x) == b, i.e. bucket 0 is {0} and bucket b >= 1 covers
/// [2^(b-1), 2^b). 65 buckets span the whole uint64 range, so `observe`
/// never clamps and `merge` is exact bucket-wise addition — associative and
/// commutative by construction, which is what makes per-thread histograms
/// mergeable in any order with identical totals.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t sum = 0;
  /// Last exemplar-carrying observation (see Histogram::observe(x, replay)):
  /// the raw value and the replay id it belongs to. replay 0 = no exemplar.
  std::uint64_t exemplar_value = 0;
  std::uint64_t exemplar_replay = 0;

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t x) noexcept {
    return static_cast<std::size_t>(std::bit_width(x));
  }

  /// Inclusive upper bound of bucket b (the value reported for quantiles
  /// that land in it).
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t b) noexcept {
    if (b == 0) return 0;
    if (b >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << b) - 1;
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t b : buckets) n += b;
    return n;
  }

  /// Upper bound of the bucket containing the p-quantile (p in (0, 1]);
  /// 0 when the histogram is empty.
  [[nodiscard]] std::uint64_t quantile(double p) const noexcept;

  /// Bucket-wise accumulate: *this += other. The exemplar with the larger
  /// replay id wins (ids are monotonic, so larger = more recent).
  void merge(const HistogramSnapshot& other) noexcept;
};

/// Rendered Prometheus `{key="value"}` selector ("" when key is empty), with
/// label-value escaping. The one definition shared by the Prometheus encoder
/// and the family track() names, so scrapes and Chrome counter tracks render
/// a labeled series identically.
[[nodiscard]] std::string render_selector(std::string_view key, std::string_view value);

namespace detail {

/// Runtime gate. Constant-initialized, so metric registrations running in
/// other TUs' static initializers see it off.
inline constinit std::atomic<bool> g_enabled{false};

/// Small dense id for the calling thread, assigned on first use; picks the
/// counter shard and labels span records.
[[nodiscard]] inline std::size_t thread_slot() noexcept {
  static constinit std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace detail

/// Is host-side metric/span recording on? Off until set_enabled(true). One
/// relaxed load -- the whole cost of an instrumented call site while
/// recording is off.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// The one recording switch (the CLI's --metrics, --serve-obs and graph
/// subcommand, tests, benchmarks).
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonic counter, sharded across cache-line-padded relaxed atomics so
/// concurrent writers (sweep workers, pool threads) never bounce one line.
class Counter {
public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    shards_[detail::thread_slot() & (kShards - 1)].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (queue depth, parked bytes, ...).
class Gauge {
public:
  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    if (!enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> v_{0};
};

/// High-water mark: observe() keeps the maximum ever seen. The fast path is
/// a relaxed load and a compare, so repeated observations below the current
/// maximum cost no write at all.
class MaxGauge {
public:
  void observe(std::int64_t x) noexcept {
    if (!enabled()) return;
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (x > cur && !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> v_{0};
};

/// Concurrent log-bucketed latency/size histogram (see HistogramSnapshot for
/// the bucket scheme). One relaxed add per observation on the bucket plus one
/// on the running sum; quantiles are computed from a snapshot, never inline.
class Histogram {
public:
  using Snapshot = HistogramSnapshot;
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  void observe(std::uint64_t x) noexcept {
    if (!enabled()) return;
    buckets_[HistogramSnapshot::bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(x, std::memory_order_relaxed);
  }

  /// Observe with an exemplar: in addition to the bucket counts, remember
  /// this (value, replay_id) pair as the histogram's most recent exemplar so
  /// a scrape can be joined back to the replay that produced the sample.
  /// The pair is mutex-guarded — never torn; exemplar-carrying observations
  /// happen at launch cadence (not per event), so the lock is uncontended.
  /// replay_id 0 is treated as "no exemplar" and only updates the buckets.
  void observe(std::uint64_t x, std::uint64_t replay_id) noexcept {
    observe(x);
    if (!enabled() || replay_id == 0) return;
    const std::lock_guard<std::mutex> lock(ex_mu_);
    ex_value_ = x;
    ex_replay_ = replay_id;
  }

  [[nodiscard]] Snapshot snapshot() const noexcept {
    Snapshot s;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(ex_mu_);
      s.exemplar_value = ex_value_;
      s.exemplar_replay = ex_replay_;
    }
    return s;
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(ex_mu_);
    ex_value_ = 0;
    ex_replay_ = 0;
  }

private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  mutable std::mutex ex_mu_;
  std::uint64_t ex_value_ = 0;
  std::uint64_t ex_replay_ = 0;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The metric kinds, in the order of AnyMetric's alternatives.
enum class MetricKind : std::uint8_t { Counter, Gauge, MaxGauge, Histogram };

[[nodiscard]] const char* to_string(MetricKind k) noexcept;

/// Storage of one registered metric; the active alternative's index is its
/// MetricKind.
using AnyMetric = std::variant<Counter, Gauge, MaxGauge, Histogram>;

/// The metric type of kind K (Counter for MetricKind::Counter, ...).
template <MetricKind K>
using MetricOf = std::variant_alternative_t<static_cast<std::size_t>(K), AnyMetric>;

class Registry;

/// A metric of kind K fanned out over the values of one label key, rendered
/// as Prometheus `name{key="value"}`. `with()` registers the child metric on
/// first use and returns a process-lifetime reference, so hot paths resolve
/// their child once (at setup/compile time) and then touch only the plain
/// metric. One family owns its label key; re-registering the same family
/// name with a different key or kind throws, as does colliding with an
/// unlabeled metric of the same name.
template <MetricKind K>
class Family {
public:
  [[nodiscard]] MetricOf<K>& with(std::string_view label_value);

  /// Stable rendered series name `name{key="value"}` for one child, owned by
  /// the registry for the life of the process — usable directly as a
  /// record_counter_sample / span name, so the Chrome counter track and the
  /// Prometheus series carry the identical string.
  [[nodiscard]] const char* track(std::string_view label_value);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& label_key() const noexcept { return key_; }

private:
  friend class Registry;
  Family(Registry& r, std::string name, std::string help, std::string key)
      : reg_(&r), name_(std::move(name)), help_(std::move(help)), key_(std::move(key)) {}
  Registry* reg_;
  std::string name_;
  std::string help_;
  std::string key_;
};

using CounterFamily = Family<MetricKind::Counter>;
using GaugeFamily = Family<MetricKind::Gauge>;
using HistogramFamily = Family<MetricKind::Histogram>;

/// One metric's exported state.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t counter = 0;   ///< Counter value
  std::int64_t gauge = 0;      ///< Gauge / MaxGauge value
  HistogramSnapshot histogram; ///< Histogram contents
  /// Family children carry their label pair; empty key = unlabeled metric.
  std::string label_key;
  std::string label_value;
};

/// Process-wide metric registry. Metrics are registered once (typically from
/// a namespace-scope `Counter& c = registry().counter(...)` in the
/// instrumented TU) and live for the process; registration is mutex-guarded
/// but the returned references are lock-free to use. Re-registering a name
/// returns the existing metric; re-registering with a different kind throws.
class Registry {
public:
  [[nodiscard]] static Registry& instance();

  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  MaxGauge& max_gauge(std::string_view name, std::string_view help);
  Histogram& histogram(std::string_view name, std::string_view help);

  /// Labeled family: one metric name whose children are distinguished by
  /// the value of `label_key` (see Family). Children appear in snapshots
  /// with their label pair filled in and export as `name{label_key="value"}`.
  /// Defined for the Counter, Gauge and Histogram kinds.
  template <MetricKind K>
  Family<K>& family(std::string_view name, std::string_view help, std::string_view label_key);

  CounterFamily& counter_family(std::string_view name, std::string_view help,
                                std::string_view label_key) {
    return family<MetricKind::Counter>(name, help, label_key);
  }
  GaugeFamily& gauge_family(std::string_view name, std::string_view help,
                            std::string_view label_key) {
    return family<MetricKind::Gauge>(name, help, label_key);
  }
  HistogramFamily& histogram_family(std::string_view name, std::string_view help,
                                    std::string_view label_key) {
    return family<MetricKind::Histogram>(name, help, label_key);
  }

  struct Snapshot {
    std::vector<MetricSnapshot> metrics;  ///< sorted by (name, label_value)
  };

  /// Consistent-enough export: each metric is read with relaxed loads, so a
  /// snapshot taken while writers run may split one logical update across
  /// metrics, but every committed value is eventually visible.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every registered metric (CLI between protocol runs, tests).
  void reset_all() noexcept;

  /// Number of registered metrics.
  [[nodiscard]] std::size_t size() const;

private:
  template <MetricKind>
  friend class Family;
  Registry() = default;
  struct Entry;
  /// The metric `name` (label_key empty) or the family child
  /// `name{label_key="label_value"}`, created on first use.
  template <MetricKind K>
  Entry& find_or_create(std::string_view name, std::string_view help,
                        std::string_view label_key = {}, std::string_view label_value = {});

  struct Impl;
  [[nodiscard]] Impl& impl() const;
};

/// Shorthand used by every instrumented call site.
[[nodiscard]] inline Registry& registry() { return Registry::instance(); }

}  // namespace ms::telemetry
