#include "telemetry/span.hpp"

#include <chrono>
#include <memory>
#include <mutex>

namespace ms::telemetry {

namespace {

/// Fixed-capacity overwrite-oldest buffer: a long run keeps the freshest
/// `Capacity` entries instead of growing without bound. push() and collect()
/// may run on different threads; the mutex makes the pair race-free (and is
/// uncontended in steady state, since collection happens at export points).
template <typename T, std::size_t Capacity>
struct Ring {
  std::mutex mu;
  std::size_t head = 0;   ///< next write position
  std::size_t count = 0;  ///< live entries (<= capacity)
  std::vector<T> slots;

  void push(const T& v) noexcept {
    std::lock_guard<std::mutex> lock(mu);
    if (slots.size() < Capacity && count == slots.size()) {
      slots.push_back(v);
      head = slots.size() % Capacity;
      ++count;
      return;
    }
    slots[head] = v;
    head = (head + 1) % Capacity;
    if (count < slots.size()) ++count;
  }

  /// Append every live entry to `out`, oldest-first.
  void collect(std::vector<T>& out) {
    std::lock_guard<std::mutex> lock(mu);
    // Entries live in [head - count, head) modulo size.
    const std::size_t cap = slots.size();
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(slots[(head + cap - count + i) % cap]);
    }
  }

  void clear() noexcept {
    std::lock_guard<std::mutex> lock(mu);
    head = 0;
    count = 0;
  }
};

/// One recording thread's spans; push() is called only by the owning thread.
struct SpanRing : Ring<SpanRecord, kSpanRingCapacity> {
  std::uint32_t thread_id = 0;
};

/// Global sink: keeps every thread's ring alive (shared_ptr) so spans
/// recorded by pool workers survive collection even after a worker exits.
struct SpanSink {
  std::mutex mu;
  std::vector<std::shared_ptr<SpanRing>> rings;

  static SpanSink& instance() {
    // Immortal for the same reason as Registry::impl(): collectors may run
    // from static destructors and from threads outliving main.
    static SpanSink* s = new SpanSink;
    return *s;
  }

  std::shared_ptr<SpanRing> adopt() {
    auto ring = std::make_shared<SpanRing>();
    ring->thread_id = static_cast<std::uint32_t>(detail::thread_slot());
    std::lock_guard<std::mutex> lock(mu);
    rings.push_back(ring);
    return ring;
  }
};

SpanRing& thread_ring() {
  thread_local std::shared_ptr<SpanRing> ring = SpanSink::instance().adopt();
  return *ring;
}

/// Global ring of counter observations. Unlike spans these are recorded at
/// barrier/sync cadence (not per event), so one shared ring is cheaper than
/// per-thread machinery.
using CounterRing = Ring<CounterSample, kCounterSampleCapacity>;

CounterRing& counter_ring() {
  static CounterRing* r = new CounterRing;  // immortal, like SpanSink
  return *r;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
  record_span(name, start_ns, end_ns, 0);
}

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t replay_id) noexcept {
  SpanRecord r;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.replay_id = replay_id;
  SpanRing& ring = thread_ring();
  r.thread = ring.thread_id;
  ring.push(r);
}

std::vector<SpanRecord> collect_spans() {
  SpanSink& sink = SpanSink::instance();
  std::vector<std::shared_ptr<SpanRing>> rings;
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    rings = sink.rings;
  }
  std::vector<SpanRecord> out;
  for (const auto& ring : rings) ring->collect(out);
  return out;
}

void clear_spans() noexcept {
  SpanSink& sink = SpanSink::instance();
  std::vector<std::shared_ptr<SpanRing>> rings;
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    rings = sink.rings;
  }
  for (const auto& ring : rings) ring->clear();
}

void record_counter_sample(const char* name, double value) noexcept {
  CounterSample s;
  s.name = name;
  s.t_ns = now_ns();
  s.value = value;
  counter_ring().push(s);
}

std::vector<CounterSample> collect_counter_samples() {
  std::vector<CounterSample> out;
  counter_ring().collect(out);
  return out;
}

}  // namespace ms::telemetry
