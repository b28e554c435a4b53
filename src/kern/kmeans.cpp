#include "kern/kmeans.hpp"

#include <limits>
#include <vector>

#include "kern/par.hpp"

namespace ms::kern {

namespace {

using v4f = float __attribute__((vector_size(16)));
using v4i = std::int32_t __attribute__((vector_size(16)));

/// Nearest centroid of one point: per centroid, diff = p[d] - c[d];
/// dist += diff * diff with d ascending, then a strict-< argmin over the
/// centroids in ascending order (ties go to the lowest index).
std::int32_t assign1(const float* p, const float* centroids, std::size_t dims, std::size_t k) {
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

/// assign1 for the four consecutive points at `p`, one SIMD lane per point.
/// Every lane runs assign1's exact operation sequence, so each membership
/// is bit-identical to the scalar path; four centroids are in flight at
/// once to hide the add latency of the serial per-lane chains. `lanes`
/// (dims entries) receives the points transposed to lane order.
void assign4(const float* p, const float* centroids, std::int32_t* membership, std::size_t dims,
             std::size_t k, v4f* lanes) {
  for (std::size_t d = 0; d < dims; ++d) {
    lanes[d] = v4f{p[d], p[dims + d], p[2 * dims + d], p[3 * dims + d]};
  }
  v4f best = v4f{} + std::numeric_limits<float>::max();
  v4i best_c = v4i{};
  const auto take = [&](const v4f& dist, std::size_t c) {
    const v4i closer = dist < best;
    best = closer ? dist : best;
    best_c = closer ? v4i{} + static_cast<std::int32_t>(c) : best_c;
  };
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const float* c0 = centroids + c * dims;
    const float* c1 = c0 + dims;
    const float* c2 = c1 + dims;
    const float* c3 = c2 + dims;
    v4f a0{}, a1{}, a2{}, a3{};
    for (std::size_t d = 0; d < dims; ++d) {
      const v4f x = lanes[d];
      const v4f d0 = x - c0[d];
      const v4f d1 = x - c1[d];
      const v4f d2 = x - c2[d];
      const v4f d3 = x - c3[d];
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
    v4f a{};
    for (std::size_t d = 0; d < dims; ++d) {
      const v4f diff = lanes[d] - cc[d];
      a += diff * diff;
    }
    take(a, c);
  }
  for (int l = 0; l < 4; ++l) membership[l] = best_c[l];
}

}  // namespace

void kmeans_assign(const float* points, const float* centroids, std::int32_t* membership,
                   std::size_t n, std::size_t dims, std::size_t k) {
  // Per-point scans are independent and each point owns its membership slot,
  // so fixed kChunk chunks parallelize with bit-identical results: the
  // distance accumulation order per (point, centroid) never changes. Points
  // go four at a time through the lane path; the last (< 4) points of a
  // chunk take the scalar loop, which computes the same sequence, so which
  // path handles a point never changes its membership.
  par::for_blocked(0, n, par::kChunk, [=](std::size_t i0, std::size_t i1) {
    std::vector<v4f> lanes(dims);
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      assign4(points + i * dims, centroids, membership + i, dims, k, lanes.data());
    }
    for (; i < i1; ++i) {
      membership[i] = assign1(points + i * dims, centroids, dims, k);
    }
  });
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
