#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace ms::sim {

/// Host-side shadow of a coprocessor's GDDR memory.
///
/// Device allocations hand out opaque handles; H2D transfers copy host bytes
/// into the shadow storage, kernels operate on shadow pointers, and D2H
/// copies back out. Because the shadow is *distinct* storage, forgetting a
/// transfer in an application port produces genuinely wrong results — the
/// functional tests catch real data-movement bugs, not just timing ones.
///
/// Blocks come from and go back to the process-wide ChunkDepot, so the next
/// context of a sweep reuses the shadows the last one freed instead of
/// faulting fresh pages in; every block is zeroed when it is handed out.
class DeviceMemory {
public:
  using Handle = std::uint64_t;
  static constexpr Handle null_handle = 0;

  explicit DeviceMemory(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}
  ~DeviceMemory();

  DeviceMemory(const DeviceMemory&) = delete;
  DeviceMemory& operator=(const DeviceMemory&) = delete;

  /// Allocate `bytes` (zero-initialized, matching MPSS behaviour).
  /// Throws std::bad_alloc when the card is out of memory.
  Handle allocate(std::size_t bytes);

  /// Free an allocation. Throws std::invalid_argument on unknown handles
  /// (double free or stray pointer).
  void free(Handle h);

  [[nodiscard]] std::byte* data(Handle h);
  [[nodiscard]] const std::byte* data(Handle h) const;
  [[nodiscard]] std::size_t size(Handle h) const;
  [[nodiscard]] bool valid(Handle h) const noexcept;

  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t live_allocations() const noexcept { return blocks_.size(); }
  [[nodiscard]] std::uint64_t total_allocations() const noexcept { return next_handle_ - 1; }

private:
  struct Block {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t size = 0;
  };

  std::size_t capacity_;
  std::size_t in_use_ = 0;
  Handle next_handle_ = 1;
  std::unordered_map<Handle, Block> blocks_;
};

}  // namespace ms::sim
