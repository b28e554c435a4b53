#include "sim/coprocessor.hpp"

namespace ms::sim {

Coprocessor::Coprocessor(const SimConfig& cfg, int device_id)
    : id_(device_id),
      spec_(cfg.device),
      memory_(cfg.device.memory_bytes),
      link_(cfg.link) {
  set_partitions(1);
}

void Coprocessor::set_partitions(int partitions) {
  table_ = std::make_unique<PartitionTable>(spec_, partitions);
  partition_res_.assign(static_cast<std::size_t>(partitions), FifoResource{});
}

}  // namespace ms::sim
