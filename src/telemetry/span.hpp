#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ms::telemetry {

/// One completed wall-clock span. `name` must point at storage that outlives
/// the process slice being observed (string literals in practice) — spans are
/// recorded on hot paths and must not allocate.
struct SpanRecord {
  const char* name = nullptr;
  std::uint32_t thread = 0;    ///< dense telemetry thread id
  std::uint64_t start_ns = 0;  ///< steady-clock nanoseconds
  std::uint64_t end_ns = 0;
  std::uint64_t replay_id = 0;  ///< correlates with a CompiledGraph replay; 0 = none

  [[nodiscard]] std::uint64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

namespace detail {
inline constinit std::atomic<std::uint64_t> g_next_replay{1};
}  // namespace detail

/// Allocate the next replay id. Ids are process-wide, monotonic, and start
/// at 1 (0 means "no replay"). Ids are handed out whether or not recording is
/// on: replay correlation also stamps the simulator trace, which does not
/// depend on the recording switch.
[[nodiscard]] inline std::uint64_t next_replay_id() noexcept {
  return detail::g_next_replay.fetch_add(1, std::memory_order_relaxed);
}

/// One time-stamped counter observation, feeding the Chrome-trace `ph:"C"`
/// counter tracks (parked depot bytes, in-flight link bytes). Like
/// SpanRecord, `name` must point at storage that outlives the process slice
/// being observed (string literals or interned strings).
struct CounterSample {
  const char* name = nullptr;
  std::uint64_t t_ns = 0;  ///< steady-clock nanoseconds
  double value = 0.0;
};

/// Monotonic wall-clock in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Record one counter observation (stamped with now_ns()). Samples live in a
/// fixed-capacity overwrite-oldest ring shared by all threads; recording is
/// expected at barrier/sync cadence, not per event, so one mutex suffices.
void record_counter_sample(const char* name, double value) noexcept;

/// Copy out every buffered counter sample, oldest-first. Does not clear.
[[nodiscard]] std::vector<CounterSample> collect_counter_samples();

/// Global counter-sample ring capacity.
inline constexpr std::size_t kCounterSampleCapacity = 16384;

/// Record a completed span into the calling thread's ring buffer. Rings are
/// fixed-capacity and overwrite their oldest entry, so a long run keeps the
/// freshest window instead of growing without bound. The three-argument form
/// records with replay_id 0; the four-argument form stamps the span with the
/// CompiledGraph replay it belongs to.
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns) noexcept;
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t replay_id) noexcept;

/// Copy out every buffered span (all threads, oldest-first within each
/// thread). Does not clear; safe to call while other threads keep recording.
[[nodiscard]] std::vector<SpanRecord> collect_spans();

/// Drop every buffered span (between CLI protocol runs, tests).
void clear_spans() noexcept;

/// Per-thread ring capacity (spans kept per thread before overwrite).
inline constexpr std::size_t kSpanRingCapacity = 8192;

/// RAII wall-clock span: construction stamps the start, destruction records
/// the span. When recording is off the constructor is one relaxed load and
/// the destructor a null check.
class ScopedSpan {
public:
  explicit ScopedSpan(const char* name) noexcept
      : name_(enabled() ? name : nullptr), start_(name_ != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (name_ != nullptr) record_span(name_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  const char* name_;
  std::uint64_t start_;
};

}  // namespace ms::telemetry
