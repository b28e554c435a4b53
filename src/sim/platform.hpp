#pragma once

#include <memory>
#include <vector>

#include "sim/coprocessor.hpp"
#include "sim/cost_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_config.hpp"

namespace ms::sim {

/// The whole simulated machine: a host, N coprocessor cards each behind its
/// own PCIe link, a shared virtual clock, and the cost model. This is the
/// substrate the `ms::rt` runtime schedules onto.
class Platform {
public:
  explicit Platform(const SimConfig& cfg);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] int device_count() const noexcept { return static_cast<int>(devices_.size()); }
  [[nodiscard]] Coprocessor& device(int i) { return *devices_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const Coprocessor& device(int i) const {
    return *devices_.at(static_cast<std::size_t>(i));
  }

  /// The host application thread: every enqueue operation serializes here,
  /// which is how very fine task granularities pay a real cost (Fig. 10).
  [[nodiscard]] FifoResource& host_thread() noexcept { return host_thread_; }

  [[nodiscard]] SimTime now() const noexcept { return engine_.now(); }

private:
  SimConfig cfg_;
  Engine engine_;
  CostModel cost_;
  FifoResource host_thread_;
  std::vector<std::unique_ptr<Coprocessor>> devices_;
};

}  // namespace ms::sim
