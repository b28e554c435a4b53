#include "kern/gemm.hpp"

#include "kern/isa.hpp"
#include "kern/lanes.hpp"
#include "kern/par.hpp"

namespace ms::kern {

using detail::Isa;
using detail::Variants;

namespace {

/// Four strided partial sums per (i, j): lane l sums a[i][p] * b[j][p] for
/// p = l (mod 4) below k - k % 4, in ascending p. The split point is a
/// function of k alone.
constexpr std::size_t kLanes = 4;
using v4d = detail::Lanes<double, kLanes>::type;

/// C[i][j] += A[i] . B[j] for the R x J micro-tile at (a, b, c): R rows of
/// A, J rows of B^T, one 4-lane accumulator per (i, j), every A and B^T
/// load shared by the J or R products it feeds. Then per (i, j) the fixed
/// pair tree (l0 + l1) + (l2 + l3), the k % 4 tail serially, and c += s.
template <std::size_t R, std::size_t J>
[[gnu::always_inline]] inline void nt_micro(const double* a, const double* b, double* c,
                                            std::size_t k, std::size_t lda, std::size_t ldb,
                                            std::size_t ldc) {
  const std::size_t kv = k - k % kLanes;
  v4d acc[R][J] = {};
  for (std::size_t p = 0; p < kv; p += kLanes) {
    v4d ar[R], bj[J];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) detail::load(ar[r], a + r * lda + p);
#pragma GCC unroll 4
    for (std::size_t j = 0; j < J; ++j) detail::load(bj[j], b + j * ldb + p);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t j = 0; j < J; ++j) acc[r][j] += ar[r] * bj[j];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t j = 0; j < J; ++j) {
      double s = (acc[r][j][0] + acc[r][j][1]) + (acc[r][j][2] + acc[r][j][3]);
      for (std::size_t p = kv; p < k; ++p) s += a[r * lda + p] * b[j * ldb + p];
      c[r * ldc + j] += s;
    }
  }
}

/// Columns [j, j + J) of rows [i0, i1): row pairs, then the odd last row.
template <std::size_t J>
[[gnu::always_inline]] inline void nt_group(const double* a, const double* b, double* c,
                                            std::size_t i0, std::size_t i1, std::size_t j,
                                            std::size_t k, std::size_t lda, std::size_t ldb,
                                            std::size_t ldc) {
  std::size_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    nt_micro<2, J>(a + i * lda, b + j * ldb, c + i * ldc + j, k, lda, ldb, ldc);
  }
  if (i < i1) nt_micro<1, J>(a + i * lda, b + j * ldb, c + i * ldc + j, k, lda, ldb, ldc);
}

/// Rows [i0, i1) of gemm_nt_acc: 4-column groups, then the n % 4 columns
/// one at a time. Column groups outside and rows inside, so a group's B^T
/// rows stay in cache across the band; each C element is computed whole by
/// one micro-tile either way. Compiled once per ISA variant (Variants).
[[gnu::always_inline]] inline void gemm_nt_rows(const double* a, const double* b, double* c,
                                                std::size_t i0, std::size_t i1, std::size_t n,
                                                std::size_t k, std::size_t lda,
                                                std::size_t ldb, std::size_t ldc) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) nt_group<4>(a, b, c, i0, i1, j, k, lda, ldb, ldc);
  for (; j < n; ++j) nt_group<1>(a, b, c, i0, i1, j, k, lda, ldb, ldc);
}

}  // namespace

void detail::gemm_nt_acc(Isa isa, const double* a, const double* b, double* c, std::size_t m,
                         std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb,
                         std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  const auto band = Variants<gemm_nt_rows>::pick(isa);
  par::for_blocked(0, m, par::kRowBand, [&](std::size_t i0, std::size_t i1) {
    band(a, b, c, i0, i1, n, k, lda, ldb, ldc);
  });
}

void gemm_nt_acc(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                 std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc) {
  detail::gemm_nt_acc(detail::host_isa(), a, b, c, m, n, k, lda, ldb, ldc);
}

}  // namespace ms::kern
