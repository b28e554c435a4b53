#pragma once

#include <cstdint>
#include <utility>

#include "sim/sim_time.hpp"

namespace ms::rt {
namespace detail {

struct Action;
struct StateStore;

/// One dependency edge: `action` waits for the state whose waiter list holds
/// this node, and its stream re-arms it when that state completes. Plain
/// data drawn from the owning Context's edge pool, so registering a
/// dependency never heap-allocates.
struct WaitEdge {
  WaitEdge* next;
  Action* action;
};

/// Completion state of one enqueued action. Instances live in the owning
/// Context's state pool and are reference-counted intrusively (non-atomic:
/// states, like the rest of a Context, belong to one thread). The action
/// itself holds one reference while in flight, every Event one more; the
/// last release returns the node to its StateStore, which outlives the
/// Context for as long as any state is still referenced.
struct ActionState {
  /// Marks `ident` as a capture phantom's.
  static constexpr std::uint64_t kPhantom = std::uint64_t{1} << 63;

  std::uint32_t refs = 0;
  bool done = false;
  sim::SimTime end = sim::SimTime::zero();
  /// Who this state stands for, in one word. A real state holds the id an
  /// observer numbered its action with (0 = not numbered; see
  /// Observer::on_enqueue), so a dependency Event maps back to the reported
  /// action and the analyzer sees the same edge the scheduler wires. While a Context captures into a
  /// Graph, enqueues return phantom events instead: they never complete and
  /// only name a graph node for later captured enqueues. A phantom's word
  /// has kPhantom set and packs the graph's id with the node id (see
  /// Context::capture_phantom).
  std::uint64_t ident = 0;
  /// Dependents waiting on this state, as a FIFO in registration order: the
  /// completing stream fires them front to back, and same-instant arms take
  /// their engine sequence numbers from that order.
  WaitEdge* waiters_head = nullptr;
  WaitEdge* waiters_tail = nullptr;
  StateStore* store = nullptr;

  /// The observer's id of the action; 0 when not numbered or for a capture
  /// phantom.
  [[nodiscard]] std::uint64_t observer_id() const noexcept {
    return (ident & kPhantom) != 0 ? 0 : ident;
  }
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
