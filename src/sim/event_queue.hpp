#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/sim_time.hpp"

namespace ms::sim {

/// Discrete-event engine: a virtual clock plus a time-ordered queue of
/// callbacks. Events scheduled for the same instant fire in FIFO order
/// (stable by insertion sequence), which the multi-stream scheduler relies on
/// for deterministic arbitration of simultaneous resource requests.
///
/// The representation is built for host-side throughput: the binary heap
/// holds only POD {when, seq, slot} items, and the callbacks live in a slot
/// pool recycled through a free list, so a schedule/fire cycle performs no
/// heap allocation once the engine has warmed up (capacity is retained
/// across events). Callbacks are inline up to Callback's capacity — a
/// larger capture is a compile error, never a silent allocation.
class Engine {
public:
  using Callback = InlineFunction<64>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time. Only advances inside run()/run_until_idle().
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `cb` to run at absolute virtual time `when`.
  /// Scheduling in the past, or at a NaN or infinite time, is an error
  /// (throws std::invalid_argument); -0.0 is stored as +0.0.
  void schedule_at(SimTime when, Callback cb);

  /// Emplace overload for raw callables: the functor is constructed directly
  /// inside its slot, skipping every type-erased move a Callback round-trip
  /// would cost. This is the scheduler's hot path.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void schedule_at(SimTime when, F&& f) {
    const SimTime at = checked_time(when);
    Slot* slot = acquire_empty_slot();
    slot->cb.emplace(std::forward<F>(f));
    push_item(Item{at, next_seq_++, slot});
  }

  /// Schedule `cb` to run `delay` after the current time.
  template <typename F>
  void schedule_after(SimTime delay, F&& f) {
    schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Run events until the queue is empty. Returns the final clock value.
  SimTime run_until_idle();

  /// Run events with timestamp <= `deadline`; the clock then rests at
  /// max(now, deadline) if the queue drained, or at the last fired event.
  SimTime run_until(SimTime deadline);

  /// Fire exactly one event. Returns false (and leaves the clock untouched)
  /// when the queue is empty. Lets callers pump until a condition of their
  /// own holds (e.g. "this stream drained").
  bool step();

  [[nodiscard]] bool idle() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size() - (parked_ ? 1 : 0); }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

  /// Deepest the pending queue has ever been (since construction/reset).
  /// Tracked unconditionally — one compare per schedule — and published to
  /// the telemetry registry by the drain loops, so it is visible even for
  /// engines that never reach a synchronize().
  [[nodiscard]] std::size_t depth_high_water() const noexcept { return depth_hw_; }

  /// True while an event callback is executing. Clients use this to detect
  /// "virtual time is advancing" contexts where work that is ready *now* may
  /// be dispatched inline instead of through a same-timestamp event (the
  /// inline call runs at the exact point in the event order where the queued
  /// event would have fired, so the schedule is unchanged and one queue
  /// round-trip is saved).
  [[nodiscard]] bool dispatching() const noexcept { return dispatching_; }

  /// Reset the clock to zero and drop all pending events. Slot and heap
  /// capacity is retained so a reused engine stays allocation-free.
  void reset();

private:
  /// POD heap item; the callback lives in a pool slot so heap sift
  /// operations move 24 bytes instead of a type-erased functor. Slots are
  /// chunk-allocated and never move, so a firing callback is invoked in
  /// place — no per-event functor relocation — even while new events are
  /// being scheduled from inside it.
  struct Slot {
    Callback cb;
  };
  struct Item {
    SimTime when;
    std::uint64_t seq;
    Slot* slot;
  };
  static constexpr std::size_t kSlotChunk = 64;

  /// Heap order: earliest `when` first, ties broken by insertion sequence
  /// (earlier fires first) — the documented FIFO guarantee. `when` is never
  /// NaN (checked_time rejects it), so this is a strict total order.
  [[nodiscard]] static bool earlier(const Item& a, const Item& b) noexcept {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  /// `when` as stored: throws if it is in the past, NaN or infinite, and
  /// maps -0.0 to +0.0.
  [[nodiscard]] SimTime checked_time(SimTime when) const {
    if (!(when >= now_) || when.micros() == std::numeric_limits<double>::infinity()) {
      throw_bad_time(when);
    }
    return when + SimTime::zero();
  }

  /// A callback scheduling its first event while its own item is still
  /// parked at the root replaces that root in one sift (a pop and a push
  /// fused); every other schedule is a plain push.
  void push_item(Item it) {
    if (parked_) {
      parked_ = false;
      replace_root(it);
    } else {
      heap_.push_back(it);
      sift_up(heap_.size() - 1, it);
    }
    if (heap_.size() > depth_hw_) depth_hw_ = heap_.size();
  }

  /// Put `it` in the hole at index `hole` and move it towards the root.
  void sift_up(std::size_t hole, Item it) noexcept {
    Item* h = heap_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!earlier(it, h[parent])) break;
      h[hole] = h[parent];
      hole = parent;
    }
    h[hole] = it;
  }

  /// Overwrite the root with `it`, bottom-up: walk the hole down to a leaf
  /// along the earlier child, then sift `it` up from there. A replacement is
  /// usually later than most pending events, so the climb back is short and
  /// the walk down needs one compare per level instead of two.
  void replace_root(Item it) noexcept {
    Item* h = heap_.data();
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && earlier(h[child + 1], h[child])) ++child;
      h[hole] = h[child];
      hole = child;
    }
    sift_up(hole, it);
  }

  /// Drop the parked root of a fired event that scheduled nothing.
  void pop_parked() noexcept {
    parked_ = false;
    const Item last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) replace_root(last);
  }

  void fire_next();
  void retire(const Item& item);
  [[nodiscard]] Slot* acquire_empty_slot();
  [[noreturn]] void throw_bad_time(SimTime when) const;

  /// Binary min-heap on (when, seq). While a callback runs, its own item
  /// stays at heap_[0] (`parked_`): it is logically gone, and its place is
  /// taken by the first event the callback schedules.
  std::vector<Item> heap_;
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::vector<Slot*> free_slots_;
  bool parked_ = false;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t depth_hw_ = 0;
  bool dispatching_ = false;
};

}  // namespace ms::sim
