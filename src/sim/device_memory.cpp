#include "sim/device_memory.hpp"

#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "sim/chunk_depot.hpp"

namespace ms::sim {

DeviceMemory::~DeviceMemory() {
  for (auto& [h, b] : blocks_) detail::ChunkDepot::release(std::move(b.bytes), b.size);
}

DeviceMemory::Handle DeviceMemory::allocate(std::size_t bytes) {
  if (bytes > capacity_ - in_use_) {
    throw std::bad_alloc{};
  }
  Block b{detail::ChunkDepot::acquire(bytes), bytes};
  std::memset(b.bytes.get(), 0, bytes);
  const Handle h = next_handle_++;
  blocks_.emplace(h, std::move(b));
  in_use_ += bytes;
  return h;
}

void DeviceMemory::free(Handle h) {
  auto it = blocks_.find(h);
  if (it == blocks_.end()) {
    throw std::invalid_argument("DeviceMemory::free: unknown handle (double free?)");
  }
  in_use_ -= it->second.size;
  detail::ChunkDepot::release(std::move(it->second.bytes), it->second.size);
  blocks_.erase(it);
}

std::byte* DeviceMemory::data(Handle h) {
  auto it = blocks_.find(h);
  if (it == blocks_.end()) {
    throw std::invalid_argument("DeviceMemory::data: unknown handle");
  }
  return it->second.bytes.get();
}

const std::byte* DeviceMemory::data(Handle h) const {
  auto it = blocks_.find(h);
  if (it == blocks_.end()) {
    throw std::invalid_argument("DeviceMemory::data: unknown handle");
  }
  return it->second.bytes.get();
}

std::size_t DeviceMemory::size(Handle h) const {
  auto it = blocks_.find(h);
  if (it == blocks_.end()) {
    throw std::invalid_argument("DeviceMemory::size: unknown handle");
  }
  return it->second.size;
}

bool DeviceMemory::valid(Handle h) const noexcept { return blocks_.contains(h); }

}  // namespace ms::sim
