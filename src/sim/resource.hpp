#pragma once

#include <cstdint>

#include "sim/sim_time.hpp"

namespace ms::sim {

/// A single-server FIFO resource in virtual time (e.g. the PCIe DMA engine,
/// a core partition, the host enqueue thread).
///
/// Requests arrive in event order (which the Engine guarantees is time
/// order); each request is granted the earliest slot after both its ready
/// time and the completion of every previously granted request. This models
/// strict FIFO arbitration with no preemption.
class FifoResource {
public:
  struct Grant {
    SimTime start;  ///< when the resource became available to this request
    SimTime end;    ///< start + duration
    SimTime wait;   ///< start - ready (queueing delay)
  };

  /// Reserve the resource for `duration`, no earlier than `ready`.
  /// Header-inline: this is the scheduler's innermost arbitration step,
  /// called several times per enqueued action.
  Grant reserve(SimTime ready, SimTime duration) {
    if (duration < SimTime::zero()) throw_negative();
    const SimTime start = max(ready, busy_until_);
    const SimTime end = start + duration;
    busy_until_ = end;
    total_busy_ += duration;
    const SimTime wait = start - ready;
    total_wait_ += wait;
    ++grants_;
    return Grant{start, end, wait};
  }

  [[nodiscard]] SimTime busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] SimTime total_busy() const noexcept { return total_busy_; }
  [[nodiscard]] SimTime total_wait() const noexcept { return total_wait_; }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }

  void reset() noexcept;

private:
  [[noreturn]] static void throw_negative();

  SimTime busy_until_ = SimTime::zero();
  SimTime total_busy_ = SimTime::zero();
  SimTime total_wait_ = SimTime::zero();
  std::uint64_t grants_ = 0;
};

}  // namespace ms::sim
