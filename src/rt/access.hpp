#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "rt/buffer.hpp"

namespace ms::rt {

/// How a kernel argument touches a buffer range.
enum class AccessMode : std::uint8_t { Read, Write, ReadWrite };

[[nodiscard]] constexpr bool access_reads(AccessMode m) noexcept {
  return m != AccessMode::Write;
}
[[nodiscard]] constexpr bool access_writes(AccessMode m) noexcept {
  return m != AccessMode::Read;
}

/// A (possibly strided) byte region of one buffer: `rows` runs of `len`
/// contiguous bytes whose starts are `stride` bytes apart. `rows == 1`
/// describes a flat interval [offset, offset + len). This is exactly the
/// shape a 2D tile of a row-major plane occupies, which is what the paper's
/// tiled apps declare.
struct MemRange {
  std::size_t offset = 0;
  std::size_t len = 0;
  std::size_t rows = 1;
  std::size_t stride = 0;

  [[nodiscard]] static constexpr MemRange flat(std::size_t offset, std::size_t len) noexcept {
    return MemRange{offset, len, 1, 0};
  }

  [[nodiscard]] static constexpr MemRange strided(std::size_t offset, std::size_t len,
                                                  std::size_t rows, std::size_t stride) noexcept {
    return rows <= 1 ? flat(offset, len) : MemRange{offset, len, rows, stride};
  }

  /// Rows [row_begin, row_end) x columns [col_begin, col_end) of a row-major
  /// matrix with `row_stride_elems` elements per row, `elem_size` bytes each.
  [[nodiscard]] static constexpr MemRange tile(std::size_t row_begin, std::size_t row_end,
                                               std::size_t col_begin, std::size_t col_end,
                                               std::size_t row_stride_elems,
                                               std::size_t elem_size) noexcept {
    return strided((row_begin * row_stride_elems + col_begin) * elem_size,
                   (col_end - col_begin) * elem_size, row_end - row_begin,
                   row_stride_elems * elem_size);
  }

  [[nodiscard]] constexpr bool empty() const noexcept { return len == 0 || rows == 0; }

  /// Start of the bounding byte interval.
  [[nodiscard]] constexpr std::size_t span_begin() const noexcept { return offset; }
  /// End of the bounding byte interval.
  [[nodiscard]] constexpr std::size_t span_end() const noexcept {
    return rows <= 1 ? offset + len : offset + (rows - 1) * stride + len;
  }

  /// Exact byte-level overlap test. Fast paths: disjoint bounding intervals,
  /// flat x flat. The general case walks both row-interval sequences with a
  /// two-pointer sweep, O(rows_a + rows_b).
  [[nodiscard]] bool overlaps(const MemRange& o) const noexcept {
    if (empty() || o.empty()) return false;
    if (span_end() <= o.span_begin() || o.span_end() <= span_begin()) return false;
    const MemRange a = normalized();
    const MemRange b = o.normalized();
    if (a.rows == 1 && b.rows == 1) return true;  // bounding intervals == ranges
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.rows && j < b.rows) {
      const std::size_t a0 = a.offset + i * a.stride;
      const std::size_t b0 = b.offset + j * b.stride;
      if (a0 + a.len <= b0) {
        ++i;
      } else if (b0 + b.len <= a0) {
        ++j;
      } else {
        return true;
      }
    }
    return false;
  }

  bool operator==(const MemRange&) const = default;

private:
  /// Collapse contiguous rows (len == stride) into a flat interval so the
  /// overlap walk sees the minimal representation.
  [[nodiscard]] constexpr MemRange normalized() const noexcept {
    if (rows > 1 && len == stride) return flat(offset, (rows - 1) * stride + len);
    return *this;
  }
};

/// One declared kernel-argument access: which buffer, how, and which bytes.
/// The address space (host vs a specific device's instantiation) is implied
/// by the action that carries the access — kernels touch their stream's
/// device copy.
struct BufferAccess {
  BufferId buffer;
  AccessMode mode = AccessMode::Read;
  MemRange range;

  bool operator==(const BufferAccess&) const = default;
};

}  // namespace ms::rt
