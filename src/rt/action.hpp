#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rt/access.hpp"
#include "rt/buffer.hpp"
#include "rt/event.hpp"
#include "sim/cost_model.hpp"
#include "sim/inline_function.hpp"
#include "sim/sim_time.hpp"

namespace ms::rt {

enum class ActionKind : std::uint8_t { H2D, D2H, Kernel, Barrier };

/// A kernel launch request: the work descriptor feeds the cost model, the
/// functor performs the real computation against device shadow memory when
/// the launch completes in virtual time. The functor may be empty for
/// timing-only studies (hBench does this for its large iteration counts).
struct KernelLaunch {
  std::string label;
  sim::KernelWork work;
  std::function<void()> fn;
  /// Declared per-argument byte ranges this launch touches on its stream's
  /// device. Optional — empty means "touches nothing" to the hazard analyzer
  /// (fine for timing-only studies, required for `ms::analyze` coverage).
  std::vector<BufferAccess> accesses;

  KernelLaunch() = default;
  KernelLaunch(std::string label_, sim::KernelWork work_, std::function<void()> fn_ = {},
               std::vector<BufferAccess> accesses_ = {})
      : label(std::move(label_)),
        work(work_),
        fn(std::move(fn_)),
        accesses(std::move(accesses_)) {}

  KernelLaunch& reads(BufferId b, MemRange r) { return declare({b, AccessMode::Read, r}); }
  KernelLaunch& reads(BufferId b, std::size_t offset, std::size_t len) {
    return reads(b, MemRange::flat(offset, len));
  }
  KernelLaunch& writes(BufferId b, MemRange r) { return declare({b, AccessMode::Write, r}); }
  KernelLaunch& writes(BufferId b, std::size_t offset, std::size_t len) {
    return writes(b, MemRange::flat(offset, len));
  }
  KernelLaunch& reads_writes(BufferId b, MemRange r) {
    return declare({b, AccessMode::ReadWrite, r});
  }
  KernelLaunch& reads_writes(BufferId b, std::size_t offset, std::size_t len) {
    return reads_writes(b, MemRange::flat(offset, len));
  }

private:
  /// Room for the widest app declaration (srad's update kernel: 8), reserved
  /// on the first one so a launch grows its access list at most once.
  static constexpr std::size_t kAccessReserve = 8;

  KernelLaunch& declare(const BufferAccess& acc) {
    if (accesses.capacity() == 0) accesses.reserve(kAccessReserve);
    accesses.push_back(acc);
    return *this;
  }
};

class Stream;

namespace detail {

/// What an action does at completion: the memcpy of a backed transfer or a
/// kernel body. It lives in a node of its own from the Context's payload
/// pool, taken only by actions that carry one; a timing-only action pays a
/// null pointer. 40 bytes hold the widest capture, a direct transfer's
/// (context, buffer, offset, bytes, device), and a KernelLaunch's
/// std::function.
using Payload = sim::InlineFunction<40>;

/// Internal per-action bookkeeping. Placement-constructed in a Context pool
/// node at enqueue and destroyed back into it on completion — the runtime's
/// steady state recycles the node storage instead of allocating per
/// enqueue. Every in-flight action holds one, so only what the scheduler
/// reads is kept here. `label` views static or interned storage, never owns
/// it.
struct Action {
  ActionKind kind = ActionKind::Kernel;
  bool pred_done = false;  ///< predecessor in the stream completed
  bool armed = false;

  // Scheduling state -------------------------------------------------------
  int deps_pending = 0;
  std::string_view label;
  sim::SimTime ready_floor = sim::SimTime::zero();  ///< issue time and dep completions
  /// Completion state, shared with user-held Events. Null for actions issued
  /// by a compiled graph, whose intra-graph dependents are notified through
  /// `graph_run` instead of per-state waiter lists.
  StateRef state;
  Stream* stream = nullptr;  ///< the stream whose FIFO holds this action

  // Compiled-graph hook ----------------------------------------------------
  void* graph_run = nullptr;    ///< CompiledGraph run this action belongs to
  std::uint32_t graph_node = 0; ///< plan node index within that run

  // Work -------------------------------------------------------------------
  sim::SimTime duration = sim::SimTime::zero();  ///< precomputed service time
  std::size_t bytes = 0;                         ///< transfers only
  Payload* payload = nullptr;  ///< run at completion; null when there is none
};

}  // namespace detail
}  // namespace ms::rt
