#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "sim/sim_time.hpp"

namespace ms::trace {

/// What a recorded span was doing. Mirrors the offload stages of the paper
/// (H2D / EXE / D2H) plus runtime bookkeeping.
enum class SpanKind : std::uint8_t { H2D, D2H, Kernel, Sync };

/// Number of SpanKind enumerators; keep in sync with the enum. Glyph and
/// name tables static_assert against this so adding a kind without updating
/// them is a compile error, not an out-of-bounds read.
inline constexpr std::size_t kSpanKindCount = 4;

[[nodiscard]] const char* to_string(SpanKind k) noexcept;

/// Intern `s` into a process-lifetime string table and return a stable view
/// of it. Recording a span per action at paper scale means millions of
/// labels; interning stores each distinct label once and makes Span a
/// flat, allocation-free value type. Thread-safe (parallel sweeps trace
/// into per-Context timelines but share this table).
[[nodiscard]] std::string_view intern_label(std::string_view s);

/// One completed action on the virtual timeline. `label` views interned or
/// static storage — Spans are cheap to copy and never own heap memory.
struct Span {
  SpanKind kind = SpanKind::Kernel;
  int device = 0;
  int stream = 0;
  int partition = 0;
  sim::SimTime start;
  sim::SimTime end;
  std::uint64_t bytes = 0;   ///< transfer payload (0 for kernels)
  std::string_view label;
  /// CompiledGraph replay this span belongs to (0 = not a compiled replay);
  /// joins device actions to the host launch span and histogram exemplar.
  std::uint64_t replay_id = 0;

  [[nodiscard]] sim::SimTime duration() const noexcept { return end - start; }
};

/// Append-only record of everything the scheduler dispatched, in completion
/// order. Benches use it for utilization numbers; tests use it to *prove*
/// pipelining (overlap) happened or was correctly prevented.
///
/// busy()/count()/overlap() and the horizon accessors are served from a
/// cache computed in a single sweep over the spans (all kind pairs at
/// once) and invalidated by record()/clear() — stats and report code query
/// every kind pair, which used to rescan and re-sort the span list per
/// call.
class Timeline {
public:
  void record(Span s) {
    spans_.push_back(s);
    agg_valid_ = false;
  }
  void clear() noexcept {
    spans_.clear();
    agg_valid_ = false;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }

  /// Sum of durations of all spans of `kind`.
  [[nodiscard]] sim::SimTime busy(SpanKind kind) const;

  /// Earliest start / latest end across all spans (zero when empty).
  [[nodiscard]] sim::SimTime first_start() const;
  [[nodiscard]] sim::SimTime last_end() const;

  /// Total virtual time during which at least one span of kind `a` and at
  /// least one span of kind `b` are simultaneously active. This is the
  /// measurable definition of "data transfers overlap kernel execution".
  /// When a == b it becomes "two or more such spans concurrently active".
  [[nodiscard]] sim::SimTime overlap(SpanKind a, SpanKind b) const;

  /// Count spans of a given kind.
  [[nodiscard]] std::size_t count(SpanKind kind) const;

  /// Render a proportional ASCII Gantt chart (one row per stream) for quick
  /// eyeballing in example programs.
  void render_gantt(std::ostream& os, int width = 100) const;

private:
  /// Everything busy()/count()/overlap()/first_start()/last_end() serve,
  /// computed together in one sweep over the span list.
  struct Aggregates {
    std::array<sim::SimTime, kSpanKindCount> busy{};
    std::array<std::size_t, kSpanKindCount> count{};
    std::array<std::array<sim::SimTime, kSpanKindCount>, kSpanKindCount> overlap{};
    sim::SimTime first_start;
    sim::SimTime last_end;
  };

  const Aggregates& aggregates() const;

  std::vector<Span> spans_;
  mutable Aggregates agg_{};
  mutable bool agg_valid_ = false;
};

}  // namespace ms::trace
