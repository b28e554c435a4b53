#pragma once

#include <cstddef>
#include <cstdint>

namespace ms::kern {

/// Kmeans kernels matching the Rodinia/MineBench port the paper uses:
/// point->nearest-centroid assignment followed by a centroid update, iterated
/// to convergence. Layout: `points` is n x dims row-major, `centroids` is
/// k x dims row-major.

/// Assign each point to its nearest centroid (squared Euclidean distance).
/// Writes `membership[i] in [0, k)`. Ties resolve to the lowest index.
/// Chunk-parallel on the kernel execution engine (fixed kChunk point
/// chunks); each point owns its membership slot and its distance sums keep
/// a fixed order, so results are bit-identical across thread counts.
void kmeans_assign(const float* points, const float* centroids, std::int32_t* membership,
                   std::size_t n, std::size_t dims, std::size_t k);

/// Accumulate per-cluster feature sums and counts for the points in
/// [0, n). `sums` is k x dims (zeroed by the caller), `counts` length k.
void kmeans_accumulate(const float* points, const std::int32_t* membership, float* sums,
                       std::int32_t* counts, std::size_t n, std::size_t dims, std::size_t k);

/// Finalize centroids from sums/counts; empty clusters keep their previous
/// centroid (passed in `centroids`).
void kmeans_update(const float* sums, const std::int32_t* counts, float* centroids, std::size_t k,
                   std::size_t dims);

/// Flops of one assignment pass (3 ops per point/centroid/feature triple).
[[nodiscard]] constexpr double kmeans_assign_flops(std::size_t n, std::size_t dims,
                                                   std::size_t k) noexcept {
  return 3.0 * static_cast<double>(n) * static_cast<double>(dims) * static_cast<double>(k);
}

}  // namespace ms::kern
