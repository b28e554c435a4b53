#pragma once

#include <memory>
#include <vector>

#include "sim/device_memory.hpp"
#include "sim/partition.hpp"
#include "sim/pcie_link.hpp"
#include "sim/resource.hpp"
#include "sim/sim_config.hpp"

namespace ms::sim {

/// One simulated Xeon Phi card: its hardware spec, its shadow memory, its
/// private PCIe link to the host, and the current partition layout with one
/// FIFO compute resource per partition.
class Coprocessor {
public:
  Coprocessor(const SimConfig& cfg, int device_id);

  Coprocessor(const Coprocessor&) = delete;
  Coprocessor& operator=(const Coprocessor&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const CoprocessorSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] DeviceMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const DeviceMemory& memory() const noexcept { return memory_; }
  [[nodiscard]] PcieLink& link() noexcept { return link_; }
  [[nodiscard]] const PcieLink& link() const noexcept { return link_; }

  /// (Re)partition the card into `partitions` places. Invalidates previous
  /// partition indices; streams must be re-created afterwards (mirrors
  /// hStreams, where partitioning is fixed at context setup).
  void set_partitions(int partitions);

  [[nodiscard]] int partitions() const noexcept { return table_->partitions(); }
  [[nodiscard]] const PartitionTable& partition_table() const noexcept { return *table_; }
  [[nodiscard]] const PartitionView& partition(int i) const { return table_->view(i); }

  /// The FIFO compute resource backing partition `i`; kernels launched by
  /// streams bound to that partition serialize on it.
  [[nodiscard]] FifoResource& partition_resource(int i) {
    return partition_res_.at(static_cast<std::size_t>(i));
  }

private:
  int id_;
  CoprocessorSpec spec_;
  DeviceMemory memory_;
  PcieLink link_;
  std::unique_ptr<PartitionTable> table_;
  std::vector<FifoResource> partition_res_;
};

}  // namespace ms::sim
