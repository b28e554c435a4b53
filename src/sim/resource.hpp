#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_time.hpp"

namespace ms::sim {

/// A single-server FIFO resource in virtual time (e.g. the PCIe DMA engine,
/// a core partition, the device-side allocator lock).
///
/// Requests arrive in event order (which the Engine guarantees is time
/// order); each request is granted the earliest slot after both its ready
/// time and the completion of every previously granted request. This models
/// strict FIFO arbitration with no preemption.
class FifoResource {
public:
  explicit FifoResource(std::string name = "resource") : name_(std::move(name)) {}

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
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Utilization over [0, horizon]: fraction of time the server was busy.
  [[nodiscard]] double utilization(SimTime horizon) const noexcept;

  void reset() noexcept;

private:
  [[noreturn]] static void throw_negative();

  std::string name_;
  SimTime busy_until_ = SimTime::zero();
  SimTime total_busy_ = SimTime::zero();
  SimTime total_wait_ = SimTime::zero();
  std::uint64_t grants_ = 0;
};

/// A pool of `k` identical FIFO servers; each request takes the server that
/// frees up first (earliest-available assignment). Models multi-channel
/// resources such as a hypothetical full-duplex link or a multi-queue
/// allocator, and is used by the ablation configurations.
class MultiSlotResource {
public:
  MultiSlotResource(std::string name, std::size_t slots);

  FifoResource::Grant reserve(SimTime ready, SimTime duration);

  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }
  [[nodiscard]] SimTime busy_until() const noexcept;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void reset() noexcept;

private:
  std::string name_;
  std::vector<SimTime> slots_;  // per-server busy-until
  std::uint64_t grants_ = 0;
};

}  // namespace ms::sim
