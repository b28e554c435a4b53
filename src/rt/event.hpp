#pragma once

#include <cstdint>
#include <utility>

#include "sim/sim_time.hpp"

namespace ms::rt {

class Stream;

namespace detail {

struct Action;
struct StateStore;

/// One dependency edge: `action`, queued on `stream`, waits for the state
/// whose waiter list holds this node. Plain data drawn from the owning
/// Context's edge pool, so registering a dependency never heap-allocates.
struct WaitEdge {
  WaitEdge* next;
  Stream* stream;
  Action* action;
};

/// Completion state of one enqueued action. Instances live in the owning
/// Context's state pool and are reference-counted intrusively (non-atomic:
/// states, like the rest of a Context, belong to one thread). The action
/// itself holds one reference while in flight, every Event one more; the
/// last release returns the node to its StateStore, which outlives the
/// Context for as long as any state is still referenced.
struct ActionState {
  std::uint32_t refs = 0;
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
  /// Dependents waiting on this state, as a FIFO in registration order: the
  /// completing stream fires them front to back, and same-instant arms take
  /// their engine sequence numbers from that order.
  WaitEdge* waiters_head = nullptr;
  WaitEdge* waiters_tail = nullptr;
  StateStore* store = nullptr;
};

/// Return a state whose last reference was just dropped to its store.
void free_state(ActionState* s) noexcept;

/// Intrusive owning reference to an ActionState.
class StateRef {
public:
  StateRef() noexcept = default;
  explicit StateRef(ActionState* s) noexcept : s_(s) {
    if (s_ != nullptr) ++s_->refs;
  }
  StateRef(const StateRef& o) noexcept : StateRef(o.s_) {}
  StateRef(StateRef&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  StateRef& operator=(StateRef o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~StateRef() {
    if (s_ != nullptr && --s_->refs == 0) free_state(s_);
  }

  [[nodiscard]] ActionState* get() const noexcept { return s_; }
  ActionState* operator->() const noexcept { return s_; }
  explicit operator bool() const noexcept { return s_ != nullptr; }

private:
  ActionState* s_ = nullptr;
};

}  // namespace detail

/// Completion handle for an enqueued action, in the spirit of CUDA events /
/// hStreams completion events. Default-constructed events are *null* and
/// count as already complete at time zero — convenient as "no dependency".
/// Events stay readable after their Context is destroyed, but like the
/// Context they are single-threaded: copy and drop them on its thread.
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
  explicit Event(detail::StateRef s) noexcept : state_(std::move(s)) {}
  detail::StateRef state_;
};

}  // namespace ms::rt
