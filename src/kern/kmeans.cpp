#include "kern/kmeans.hpp"

#include <limits>

#include "kern/isa.hpp"
#include "kern/lanes.hpp"
#include "kern/par.hpp"

namespace ms::kern {

using detail::Isa;

namespace {

/// Features per block of a lane group's transposed points, held in a
/// stack buffer of kDimBlock * L floats.
constexpr std::size_t kDimBlock = 64;

/// Nearest centroid of one point: per centroid, diff = p[d] - c[d];
/// dist += diff * diff with d ascending, then a strict-< argmin over the
/// centroids in ascending order (ties go to the lowest index).
[[gnu::always_inline]] inline std::int32_t assign1(const float* p, const float* centroids,
                                                   std::size_t dims, std::size_t k) {
  float best = std::numeric_limits<float>::max();
  std::int32_t best_c = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const float* cc = centroids + c * dims;
    float dist = 0.0f;
    for (std::size_t d = 0; d < dims; ++d) {
      const float diff = p[d] - cc[d];
      dist += diff * diff;
    }
    if (dist < best) {
      best = dist;
      best_c = static_cast<std::int32_t>(c);
    }
  }
  return best_c;
}

/// acc[c] = the squared distance from each of the L points at `p` (one per
/// lane) to centroid c of the C at `cc`, features in ascending order, as
/// assign1 sums them. The points go to lane order kDimBlock features at a
/// time in `lanes` while the accumulators carry across blocks; `held` is
/// the first feature `lanes` holds (dims: none), so when dims <= kDimBlock
/// the points are transposed once for all centroids.
template <std::size_t L, std::size_t C>
[[gnu::always_inline]] inline void distances(const float* p, const float* cc, std::size_t dims,
                                             float* lanes, std::size_t& held,
                                             typename detail::Lanes<float, L>::type (&acc)[C]) {
  using vf = typename detail::Lanes<float, L>::type;
#pragma GCC unroll 4
  for (std::size_t c = 0; c < C; ++c) acc[c] = vf{};
  for (std::size_t d0 = 0; d0 < dims; d0 += kDimBlock) {
    const std::size_t d1 = dims - d0 < kDimBlock ? dims : d0 + kDimBlock;
    if (held != d0) {
      for (std::size_t d = d0; d < d1; ++d) {
        for (std::size_t l = 0; l < L; ++l) lanes[(d - d0) * L + l] = p[l * dims + d];
      }
      held = d0;
    }
    const float* x_at = lanes;
    for (std::size_t d = d0; d < d1; ++d, x_at += L) {
      vf x;
      detail::load(x, x_at);
#pragma GCC unroll 4
      for (std::size_t c = 0; c < C; ++c) {
        const vf diff = x - cc[c * dims + d];
        acc[c] += diff * diff;
      }
    }
  }
}

/// assign1 for the L consecutive points at `p`, one SIMD lane per point.
/// Every lane runs assign1's exact operation sequence, so each membership
/// is bit-identical to the scalar path; four centroids are in flight at
/// once to hide the add latency of the serial per-lane chains.
template <std::size_t L>
[[gnu::always_inline]] inline void assign_lanes(const float* p, const float* centroids,
                                                std::int32_t* membership, std::size_t dims,
                                                std::size_t k) {
  using vf = typename detail::Lanes<float, L>::type;
  using vi = typename detail::Lanes<std::int32_t, L>::type;
  float lanes[kDimBlock * L];
  std::size_t held = dims;
  vf best = vf{} + std::numeric_limits<float>::max();
  vi best_c = vi{};
  const auto take = [&](const vf& dist, std::size_t c) {
    const vi closer = dist < best;
    best = closer ? dist : best;
    best_c = closer ? vi{} + static_cast<std::int32_t>(c) : best_c;
  };
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    vf acc[4];
    distances<L, 4>(p, centroids + c * dims, dims, lanes, held, acc);
    take(acc[0], c);
    take(acc[1], c + 1);
    take(acc[2], c + 2);
    take(acc[3], c + 3);
  }
  for (; c < k; ++c) {
    vf acc[1];
    distances<L, 1>(p, centroids + c * dims, dims, lanes, held, acc);
    take(acc[0], c);
  }
  for (std::size_t l = 0; l < L; ++l) membership[l] = best_c[l];
}

/// Points [i0, i1) of one chunk: L at a time through the lane path, the
/// last (< L) through the scalar loop, which computes the same sequence, so
/// which path handles a point never changes its membership. The baseline
/// variant runs 4 lanes (one SSE register), the AVX2 variant 8.
template <std::size_t L>
[[gnu::always_inline]] inline void assign_chunk(const float* points, const float* centroids,
                                                std::int32_t* membership, std::size_t i0,
                                                std::size_t i1, std::size_t dims,
                                                std::size_t k) {
  std::size_t i = i0;
  for (; i + L <= i1; i += L) {
    assign_lanes<L>(points + i * dims, centroids, membership + i, dims, k);
  }
  for (; i < i1; ++i) {
    membership[i] = assign1(points + i * dims, centroids, dims, k);
  }
}

}  // namespace

void detail::kmeans_assign(Isa isa, const float* points, const float* centroids,
                           std::int32_t* membership, std::size_t n, std::size_t dims,
                           std::size_t k) {
  // Per-point scans are independent and each point owns its membership slot,
  // so fixed kChunk chunks parallelize with bit-identical results: the
  // distance accumulation order per (point, centroid) never changes.
  const auto assign = detail::pick_lanes<assign_chunk<4>, assign_chunk<8>>(isa);
  par::for_blocked(0, n, par::kChunk, [&](std::size_t i0, std::size_t i1) {
    assign(points, centroids, membership, i0, i1, dims, k);
  });
}

void kmeans_assign(const float* points, const float* centroids, std::int32_t* membership,
                   std::size_t n, std::size_t dims, std::size_t k) {
  detail::kmeans_assign(detail::host_isa(), points, centroids, membership, n, dims, k);
}

void kmeans_accumulate(const float* points, const std::int32_t* membership, float* sums,
                       std::int32_t* counts, std::size_t n, std::size_t dims, std::size_t k) {
  (void)k;
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(membership[i]);
    const float* p = points + i * dims;
    float* s = sums + c * dims;
    for (std::size_t d = 0; d < dims; ++d) {
      s[d] += p[d];
    }
    ++counts[c];
  }
}

void kmeans_update(const float* sums, const std::int32_t* counts, float* centroids, std::size_t k,
                   std::size_t dims) {
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] <= 0) continue;  // empty cluster: keep previous centroid
    const float inv = 1.0f / static_cast<float>(counts[c]);
    float* cc = centroids + c * dims;
    const float* s = sums + c * dims;
    for (std::size_t d = 0; d < dims; ++d) {
      cc[d] = s[d] * inv;
    }
  }
}

}  // namespace ms::kern
