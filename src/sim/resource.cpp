#include "sim/resource.hpp"

#include <stdexcept>

namespace ms::sim {

void FifoResource::throw_negative() {
  throw std::invalid_argument("FifoResource::reserve: negative duration");
}

void FifoResource::reset() noexcept {
  busy_until_ = SimTime::zero();
  total_busy_ = SimTime::zero();
  total_wait_ = SimTime::zero();
  grants_ = 0;
}

}  // namespace ms::sim
