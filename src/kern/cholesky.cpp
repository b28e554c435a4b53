#include "kern/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "kern/isa.hpp"
#include "kern/lanes.hpp"
#include "kern/par.hpp"

namespace ms::kern {

using detail::Isa;

bool potrf_tile(double* a, std::size_t n, std::size_t lda) {
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * lda + j];
    for (std::size_t p = 0; p < j; ++p) {
      d -= a[j * lda + p] * a[j * lda + p];
    }
    if (d <= 0.0 || !std::isfinite(d)) {
      return false;
    }
    const double djj = std::sqrt(d);
    a[j * lda + j] = djj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * lda + j];
      for (std::size_t p = 0; p < j; ++p) {
        s -= a[i * lda + p] * a[j * lda + p];
      }
      a[i * lda + j] = s / djj;
    }
  }
  return true;
}

namespace {

// The cf tile updates run L = 2W columns at a time: two vectors of W
// doubles per C row, W = 2 in the baseline variant (SSE2) and 4 in the
// AVX2 one. kMicroRows rows share each panel load; kPanel is the depth of
// the stack B^T panel.
constexpr std::size_t kRowVectors = 2;
constexpr std::size_t kMicroRows = 4;
constexpr std::size_t kPanel = 128;

/// s[r][l] += a[r][p] * panel[p][l] for p in [0, kp), R rows at once: every
/// panel load feeds R rows, and each lane adds its products in ascending p.
/// The small loops are unrolled so the accumulators stay in registers.
template <std::size_t R, std::size_t W>
[[gnu::always_inline]] inline void sub_nt_micro(const double* a, const double* panel,
                                                double* sums, std::size_t kp,
                                                std::size_t lda) {
  using vd = typename detail::Lanes<double, W>::type;
  constexpr std::size_t L = kRowVectors * W;
  vd s[R][kRowVectors];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kRowVectors; ++v) detail::load(s[r][v], sums + r * L + v * W);
  }
  for (std::size_t p = 0; p < kp; ++p) {
    vd bp[kRowVectors];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kRowVectors; ++v) detail::load(bp[v], panel + p * L + v * W);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const double ar = a[r * lda + p];
#pragma GCC unroll 2
      for (std::size_t v = 0; v < kRowVectors; ++v) s[r][v] += ar * bp[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kRowVectors; ++v) detail::store(sums + r * L + v * W, s[r][v]);
  }
}

/// Rows [i0, i1) (at most kRowBand) of C -= A * B^T, or with `Lower` of
/// its lower triangle (j <= i) only. One lane per column j: columns go L
/// at a time, and their B^T rows are packed kPanel deep into a stack panel
/// (zero past column n). Per element the sum starts at 0.0 and adds
/// a[i][p] * b[j][p] in ascending p, carried across panels in a stack row
/// of the band, then c -= s: the scalar loop's exact sequence.
template <std::size_t W, bool Lower>
[[gnu::always_inline]] inline void sub_nt_rows(const double* a, const double* b, double* c,
                                               std::size_t i0, std::size_t i1, std::size_t n,
                                               std::size_t k, std::size_t lda, std::size_t ldb,
                                               std::size_t ldc) {
  constexpr std::size_t L = kRowVectors * W;
  double panel[kPanel * L];
  double sums[par::kRowBand * L];
  for (std::size_t j0 = 0; j0 < n; j0 += L) {
    const std::size_t w = n - j0 < L ? n - j0 : L;
    const std::size_t r0 = Lower && j0 > i0 ? j0 : i0;  // rows above j0 own no lane here
    if (r0 >= i1) break;
    const std::size_t rows = i1 - r0;
    std::fill(sums, sums + rows * L, 0.0);
    for (std::size_t p0 = 0; p0 < k; p0 += kPanel) {
      const std::size_t kp = k - p0 < kPanel ? k - p0 : kPanel;
      for (std::size_t l = 0; l < w; ++l) {
        const double* bj = b + (j0 + l) * ldb + p0;
        for (std::size_t p = 0; p < kp; ++p) panel[p * L + l] = bj[p];
      }
      for (std::size_t l = w; l < L; ++l) {
        for (std::size_t p = 0; p < kp; ++p) panel[p * L + l] = 0.0;
      }
      const double* ar = a + r0 * lda + p0;
      std::size_t r = 0;
      for (; r + kMicroRows <= rows; r += kMicroRows) {
        sub_nt_micro<kMicroRows, W>(ar + r * lda, panel, sums + r * L, kp, lda);
      }
      for (; r < rows; ++r) sub_nt_micro<1, W>(ar + r * lda, panel, sums + r * L, kp, lda);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = r0 + r;
      const std::size_t jn = Lower && i - j0 + 1 < w ? i - j0 + 1 : w;
      for (std::size_t l = 0; l < jn; ++l) c[i * ldc + j0 + l] -= sums[r * L + l];
    }
  }
}

template <std::size_t W>
[[gnu::always_inline]] inline void gemm_nt_tile_rows(const double* a, const double* b,
                                                     double* c, std::size_t i0, std::size_t i1,
                                                     std::size_t n, std::size_t k,
                                                     std::size_t lda, std::size_t ldb,
                                                     std::size_t ldc) {
  sub_nt_rows<W, false>(a, b, c, i0, i1, n, k, lda, ldb, ldc);
}

template <std::size_t W>
[[gnu::always_inline]] inline void syrk_rows(const double* a, double* c, std::size_t i0,
                                             std::size_t i1, std::size_t n, std::size_t k,
                                             std::size_t lda, std::size_t ldc) {
  sub_nt_rows<W, true>(a, a, c, i0, i1, n, k, lda, lda, ldc);
}

}  // namespace

void trsm_tile(const double* l, double* b, std::size_t m, std::size_t n, std::size_t lda,
               std::size_t ldb) {
  // Solve X * L^T = B row by row: for each row of B, forward-substitute
  // against L (column j of X depends on columns < j). Rows are independent.
  par::for_blocked(0, m, par::kRowBand, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* bi = b + i * ldb;
      for (std::size_t j = 0; j < n; ++j) {
        double s = bi[j];
        for (std::size_t p = 0; p < j; ++p) {
          s -= bi[p] * l[j * lda + p];
        }
        bi[j] = s / l[j * lda + j];
      }
    }
  });
}

void detail::syrk_tile(Isa isa, const double* a, double* c, std::size_t n, std::size_t k,
                       std::size_t lda, std::size_t ldc) {
  const auto rows = detail::pick_lanes<syrk_rows<2>, syrk_rows<4>>(isa);
  par::for_blocked(0, n, par::kRowBand, [&](std::size_t i0, std::size_t i1) {
    rows(a, c, i0, i1, n, k, lda, ldc);
  });
}

void syrk_tile(const double* a, double* c, std::size_t n, std::size_t k, std::size_t lda,
               std::size_t ldc) {
  detail::syrk_tile(detail::host_isa(), a, c, n, k, lda, ldc);
}

void detail::gemm_nt_tile(Isa isa, const double* a, const double* b, double* c, std::size_t m,
                          std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb,
                          std::size_t ldc) {
  const auto rows = detail::pick_lanes<gemm_nt_tile_rows<2>, gemm_nt_tile_rows<4>>(isa);
  par::for_blocked(0, m, par::kRowBand, [&](std::size_t i0, std::size_t i1) {
    rows(a, b, c, i0, i1, n, k, lda, ldb, ldc);
  });
}

void gemm_nt_tile(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                  std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc) {
  detail::gemm_nt_tile(detail::host_isa(), a, b, c, m, n, k, lda, ldb, ldc);
}

bool cholesky_reference(double* a, std::size_t n, std::size_t lda) {
  return potrf_tile(a, n, lda);
}

}  // namespace ms::kern
