#include "kern/lu.hpp"

#include <cmath>

#include "kern/isa.hpp"
#include "kern/lanes.hpp"
#include "kern/par.hpp"

namespace ms::kern {

using detail::Isa;

bool getrf_tile(double* a, std::size_t n, std::size_t lda) {
  for (std::size_t k = 0; k < n; ++k) {
    const double pivot = a[k * lda + k];
    if (std::abs(pivot) < 1e-12 || !std::isfinite(pivot)) {
      return false;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      a[i * lda + k] /= pivot;
      const double lik = a[i * lda + k];
      for (std::size_t j = k + 1; j < n; ++j) {
        a[i * lda + j] -= lik * a[k * lda + j];
      }
    }
  }
  return true;
}

namespace {

// gemm_nn_sub runs L = 2W columns at a time: two vectors of W doubles per
// C row, W = 2 in the baseline variant (SSE2) and 4 in the AVX2 one.
// kMicroRows rows share each B row load.
constexpr std::size_t kRowVectors = 2;
constexpr std::size_t kMicroRows = 4;

/// c[r][0..L) -= a[r][p] * b[p][0..L) for p in [0, k), R rows at once: C
/// stays in registers across p, and every lane rounds into its element at
/// each p in ascending order, as the scalar loop does. The small loops are
/// unrolled so the accumulators stay in registers.
template <std::size_t R, std::size_t W>
[[gnu::always_inline]] inline void nn_micro(const double* a, const double* b, double* c,
                                            std::size_t k, std::size_t lda, std::size_t ldb,
                                            std::size_t ldc) {
  using vd = typename detail::Lanes<double, W>::type;
  vd s[R][kRowVectors];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kRowVectors; ++v) detail::load(s[r][v], c + r * ldc + v * W);
  }
  for (std::size_t p = 0; p < k; ++p) {
    vd bp[kRowVectors];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kRowVectors; ++v) detail::load(bp[v], b + p * ldb + v * W);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const double ar = a[r * lda + p];
#pragma GCC unroll 2
      for (std::size_t v = 0; v < kRowVectors; ++v) s[r][v] -= ar * bp[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kRowVectors; ++v) detail::store(c + r * ldc + v * W, s[r][v]);
  }
}

/// C[r][j] -= sum over p of a[r][p] * b[p][j], one element at a time: the
/// n % L fringe columns, with the same per-element sequence.
[[gnu::always_inline]] inline void nn_element(const double* a, const double* b, double* c,
                                              std::size_t k, std::size_t ldb) {
  double s = *c;
  for (std::size_t p = 0; p < k; ++p) s -= a[p] * b[p * ldb];
  *c = s;
}

/// Rows [i0, i1) of gemm_nn_sub. L-column groups outside, row quads
/// inside, so the group's B column panel stays in cache across the band;
/// then the n % L columns. Compiled once per ISA variant.
template <std::size_t W>
[[gnu::always_inline]] inline void gemm_nn_rows(const double* a, const double* b, double* c,
                                                std::size_t i0, std::size_t i1, std::size_t n,
                                                std::size_t k, std::size_t lda,
                                                std::size_t ldb, std::size_t ldc) {
  constexpr std::size_t L = kRowVectors * W;
  std::size_t j = 0;
  for (; j + L <= n; j += L) {
    std::size_t i = i0;
    for (; i + kMicroRows <= i1; i += kMicroRows) {
      nn_micro<kMicroRows, W>(a + i * lda, b + j, c + i * ldc + j, k, lda, ldb, ldc);
    }
    for (; i < i1; ++i) nn_micro<1, W>(a + i * lda, b + j, c + i * ldc + j, k, lda, ldb, ldc);
  }
  for (; j < n; ++j) {
    for (std::size_t i = i0; i < i1; ++i) nn_element(a + i * lda, b + j, c + i * ldc + j, k, ldb);
  }
}

}  // namespace

void trsm_lower_left(const double* l, double* b, std::size_t n, std::size_t m, std::size_t lda,
                     std::size_t ldb) {
  // Forward substitution per column block: row i of B depends on rows < i,
  // and columns are independent.
  par::for_blocked(0, m, par::kRowBand, [&](std::size_t j0, std::size_t j1) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = 0; p < i; ++p) {
        const double lip = l[i * lda + p];
        for (std::size_t j = j0; j < j1; ++j) {
          b[i * ldb + j] -= lip * b[p * ldb + j];
        }
      }
      // Unit diagonal: no scaling.
    }
  });
}

void trsm_upper_right(const double* u, double* b, std::size_t m, std::size_t n, std::size_t lda,
                      std::size_t ldb) {
  // Solve X U = B row by row; column j of X depends on columns < j, and
  // rows are independent.
  par::for_blocked(0, m, par::kRowBand, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* bi = b + i * ldb;
      for (std::size_t j = 0; j < n; ++j) {
        double s = bi[j];
        for (std::size_t p = 0; p < j; ++p) {
          s -= bi[p] * u[p * lda + j];
        }
        bi[j] = s / u[j * lda + j];
      }
    }
  });
}

void detail::gemm_nn_sub(Isa isa, const double* a, const double* b, double* c, std::size_t m,
                         std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb,
                         std::size_t ldc) {
  const auto rows = detail::pick_lanes<gemm_nn_rows<2>, gemm_nn_rows<4>>(isa);
  par::for_blocked(0, m, par::kRowBand, [&](std::size_t i0, std::size_t i1) {
    rows(a, b, c, i0, i1, n, k, lda, ldb, ldc);
  });
}

void gemm_nn_sub(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                 std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc) {
  detail::gemm_nn_sub(detail::host_isa(), a, b, c, m, n, k, lda, ldb, ldc);
}

bool lu_reference(double* a, std::size_t n, std::size_t lda) { return getrf_tile(a, n, lda); }

void lu_solve(const double* lu, double* b, std::size_t n, std::size_t lda) {
  // L y = b (unit lower, forward).
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t p = 0; p < i; ++p) s -= lu[i * lda + p] * b[p];
    b[i] = s;
  }
  // U x = y (backward).
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t p = ii + 1; p < n; ++p) s -= lu[ii * lda + p] * b[p];
    b[ii] = s / lu[ii * lda + ii];
  }
}

}  // namespace ms::kern
