#pragma once

#include <algorithm>
#include <cstdint>
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
  /// Scheduling in the past is an error (throws std::invalid_argument).
  void schedule_at(SimTime when, Callback cb);

  /// Emplace overload for raw callables: the functor is constructed directly
  /// inside its slot, skipping every type-erased move a Callback round-trip
  /// would cost. This is the scheduler's hot path.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void schedule_at(SimTime when, F&& f) {
    if (when < now_) throw_past();
    Slot* slot = acquire_empty_slot();
    slot->cb.emplace(std::forward<F>(f));
    push_item(Item{when, next_seq_++, slot});
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

  [[nodiscard]] bool idle() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
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

  /// Min-heap ordering: earliest `when` first, ties broken by insertion
  /// sequence (earlier fires first) — the documented FIFO guarantee.
  /// A functor (not a function pointer) so push_heap/pop_heap inline it.
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Queues this small stay an unsorted array: a linear min-scan over a
  /// couple of cache lines beats O(log n) heap sifts, and a streaming
  /// pipeline holds only one armed event per stream plus in-flight
  /// completions. Crossing the threshold heapifies once and the engine
  /// stays a heap from then on (sticky, so mixed workloads never flip-flop).
  static constexpr std::size_t kHeapThreshold = 16;

  void push_item(Item it) {
    heap_.push_back(it);
    if (heap_.size() > depth_hw_) depth_hw_ = heap_.size();
    if (heapified_) {
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    } else if (heap_.size() > kHeapThreshold) {
      std::make_heap(heap_.begin(), heap_.end(), Later{});
      heapified_ = true;
    }
  }

  /// Index of the earliest pending item (valid only when !heap_.empty()).
  [[nodiscard]] std::size_t earliest_index() const noexcept {
    if (heapified_) return 0;
    std::size_t best = 0;
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      if (Later{}(heap_[best], heap_[i])) best = i;
    }
    return best;
  }

  void fire_next();
  void retire(const Item& item);
  [[nodiscard]] Slot* acquire_empty_slot();
  [[noreturn]] static void throw_past();

  std::vector<Item> heap_;  // unsorted below kHeapThreshold, then a min-heap
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::vector<Slot*> free_slots_;
  bool heapified_ = false;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t depth_hw_ = 0;
  bool dispatching_ = false;
};

}  // namespace ms::sim
