#pragma once

#include <cstddef>
#include <memory>

namespace ms::sim::detail {

/// Process-wide recycler for pool chunk storage and device shadow blocks.
/// A destroyed pool parks its chunk arrays here, a freed DeviceMemory block
/// parks its bytes, and the next pool of the same chunk size or the next
/// shadow of the same size adopts them, instead of round-tripping through
/// the heap. The round trip is not just allocator overhead: multi-chunk pools
/// and shadows freed en masse sit at the top of the heap, glibc trims them
/// back to the OS, and the next simulation context pays a minor page fault
/// per 4 KiB re-touching memory it held a microsecond earlier. Parked blocks
/// keep their pages committed (and keep the heap top from being trimmed),
/// which is what makes a create-run-destroy context loop — the shape of every
/// sweep and benchmark — scale flat.
///
/// One depot serves every thread, behind a mutex: blocks parked by one sweep
/// worker serve the next context on any other, so an idle thread holds no
/// memory of its own. Traffic is a few dozen acquisitions per context, far
/// too little for the lock to matter. Total parked bytes are capped
/// process-wide, so a one-off giant run cannot pin memory forever.
class ChunkDepot {
public:
  /// Return a chunk of exactly `bytes` (recycled if one is parked, freshly
  /// allocated otherwise). Contents are indeterminate.
  [[nodiscard]] static std::unique_ptr<std::byte[]> acquire(std::size_t bytes);

  /// Park `chunk` (which must be exactly `bytes` long) for reuse; frees it
  /// instead when the depot is at capacity or `bytes` is 0.
  static void release(std::unique_ptr<std::byte[]> chunk, std::size_t bytes) noexcept;

  /// Bytes currently parked in the process (observability / tests).
  [[nodiscard]] static std::size_t parked_bytes() noexcept;

  /// Free everything parked in the process (tests and memory-pressure use).
  static void trim() noexcept;

private:
  static constexpr std::size_t kMaxParkedBytes = 16u << 20;
};

}  // namespace ms::sim::detail
