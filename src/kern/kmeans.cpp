#include "kern/kmeans.hpp"

#include <cstring>
#include <limits>
#include <vector>

#include "kern/isa.hpp"
#include "kern/par.hpp"

namespace ms::kern {

using detail::Isa;
using detail::Variants;

namespace {

/// L float / int lanes, one point per lane. Spelled as typedefs: GCC drops
/// a template-dependent vector_size from an alias-declaration.
template <std::size_t L>
struct Lanes {
  typedef float f __attribute__((vector_size(4 * L)));
  typedef std::int32_t i __attribute__((vector_size(4 * L)));
};

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

/// assign1 for the L consecutive points at `p`, one SIMD lane per point.
/// Every lane runs assign1's exact operation sequence, so each membership
/// is bit-identical to the scalar path; four centroids are in flight at
/// once to hide the add latency of the serial per-lane chains. `lanes`
/// (dims * L floats) receives the points transposed to lane order, and is
/// read with memcpy: outside an AVX function GCC aligns an 8-lane vector
/// type to 16 bytes only, so an array of them could be allocated 16-byte
/// aligned and then loaded with the AVX2 variant's 32-byte aligned moves.
template <std::size_t L>
[[gnu::always_inline]] inline void assign_lanes(const float* p, const float* centroids,
                                                std::int32_t* membership, std::size_t dims,
                                                std::size_t k, float* lanes) {
  using vf = typename Lanes<L>::f;
  using vi = typename Lanes<L>::i;
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t l = 0; l < L; ++l) lanes[d * L + l] = p[l * dims + d];
  }
  vf best = vf{} + std::numeric_limits<float>::max();
  vi best_c = vi{};
  const auto take = [&](const vf& dist, std::size_t c) {
    const vi closer = dist < best;
    best = closer ? dist : best;
    best_c = closer ? vi{} + static_cast<std::int32_t>(c) : best_c;
  };
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const float* c0 = centroids + c * dims;
    const float* c1 = c0 + dims;
    const float* c2 = c1 + dims;
    const float* c3 = c2 + dims;
    vf a0{}, a1{}, a2{}, a3{};
    for (std::size_t d = 0; d < dims; ++d) {
      vf x;
      std::memcpy(&x, lanes + d * L, sizeof x);
      const vf d0 = x - c0[d];
      const vf d1 = x - c1[d];
      const vf d2 = x - c2[d];
      const vf d3 = x - c3[d];
      a0 += d0 * d0;
      a1 += d1 * d1;
      a2 += d2 * d2;
      a3 += d3 * d3;
    }
    take(a0, c);
    take(a1, c + 1);
    take(a2, c + 2);
    take(a3, c + 3);
  }
  for (; c < k; ++c) {
    const float* cc = centroids + c * dims;
    vf a{};
    for (std::size_t d = 0; d < dims; ++d) {
      vf x;
      std::memcpy(&x, lanes + d * L, sizeof x);
      const vf diff = x - cc[d];
      a += diff * diff;
    }
    take(a, c);
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
  std::vector<float> lanes(dims * L);
  std::size_t i = i0;
  for (; i + L <= i1; i += L) {
    assign_lanes<L>(points + i * dims, centroids, membership + i, dims, k, lanes.data());
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
  const auto assign = isa == Isa::Avx2 ? &Variants<assign_chunk<8>>::avx2
                                        : &Variants<assign_chunk<4>>::baseline;
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
