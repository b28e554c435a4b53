#include "sim/platform.hpp"

namespace ms::sim {

Platform::Platform(const SimConfig& cfg) : cfg_(cfg), cost_(cfg) {
  cfg_.validate();
  devices_.reserve(static_cast<std::size_t>(cfg_.num_devices));
  for (int i = 0; i < cfg_.num_devices; ++i) {
    devices_.push_back(std::make_unique<Coprocessor>(cfg_, i));
  }
}

}  // namespace ms::sim
