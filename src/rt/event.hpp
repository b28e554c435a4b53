#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/sim_time.hpp"

namespace ms::rt {

class Stream;

namespace detail {

/// Shared completion state of one enqueued action. Instances live in the
/// owning Context's state node pool (control block and all), so
/// steady-state enqueue/complete cycles allocate nothing. Waiters are
/// inline callables — registering a dependency never heap-allocates the
/// closure itself (only the waiter vector's storage).
struct ActionState {
  using Waiter = sim::InlineFunction<48>;

  bool done = false;
  sim::SimTime end = sim::SimTime::zero();
  /// Node id assigned by the hazard analyzer's recorder (0 = not recorded).
  /// Lets a dependency Event be mapped back to the recorded action so the
  /// analyzer sees the same edge the scheduler wires.
  std::uint64_t analyze_id = 0;
  /// While a Context is capturing into a Graph, enqueues return phantom
  /// events whose state carries `1 + node id` here (0 = not a capture
  /// phantom). Such events never complete; they only name graph nodes so
  /// later captured enqueues can depend on them.
  std::uint64_t capture_node = 0;
  /// The Graph a capture phantom belongs to. Node ids are graph-local, so a
  /// phantom handed to a *different* capture must be rejected rather than
  /// silently aliasing that graph's node of the same index.
  const void* capture_owner = nullptr;
  std::vector<Waiter> waiters;
  void complete(sim::SimTime t) {
    done = true;
    end = t;
    if (waiters.empty()) return;  // the overwhelmingly common case
    // Detach first: a waiter may enqueue work that waits on this same state.
    auto fire = std::move(waiters);
    waiters.clear();
    for (auto& w : fire) w();
  }

};

}  // namespace detail

/// Completion handle for an enqueued action, in the spirit of CUDA events /
/// hStreams completion events. Default-constructed events are *null* and
/// count as already complete at time zero — convenient as "no dependency".
class Event {
public:
  Event() = default;

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(state_); }
  [[nodiscard]] bool done() const noexcept { return !state_ || state_->done; }

  /// Virtual completion time; only meaningful once done().
  [[nodiscard]] sim::SimTime time() const noexcept {
    return state_ ? state_->end : sim::SimTime::zero();
  }

private:
  friend class Stream;
  friend class Context;
  friend class CompiledGraph;
  explicit Event(std::shared_ptr<detail::ActionState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::ActionState> state_;
};

}  // namespace ms::rt
