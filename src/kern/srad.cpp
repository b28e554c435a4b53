#include "kern/srad.hpp"

#include <cmath>

#include "kern/isa.hpp"
#include "kern/par.hpp"

namespace ms::kern {

using detail::Isa;
using detail::Variants;

namespace {

/// std::clamp(v, 0.0, 1.0) as two compare-and-selects that both always
/// run, with the same results: a NaN and -0.0 pass through, v < 0 gives
/// +0.0 and v > 1 gives 1.0. std::clamp runs its second compare only when
/// the first fails, and under the default -ftrapping-math GCC cannot
/// if-convert (so cannot vectorize) a compare that might not run.
inline double clamp_unit(double v) {
  const double lo = v < 0.0 ? 0.0 : v;
  return lo > 1.0 ? 1.0 : lo;
}

/// Gradients and clamped diffusion coefficient of one cell.
struct CoeffCell {
  float n, s, w, e;
  double cv;
};

/// The per-cell coefficient expression from the centre value and its four
/// (already clamped) neighbours. One expression shared by the edge and
/// interior paths, so a cell computes bit-identically whichever loop
/// handled it and however the image was tiled.
inline CoeffCell coeff_cell(float jc, float jn, float js, float jw, float je, double q0sqr) {
  const float n = jn - jc;
  const float s = js - jc;
  const float w = jw - jc;
  const float e = je - jc;
  const double g2 = (static_cast<double>(n) * n + static_cast<double>(s) * s +
                     static_cast<double>(w) * w + static_cast<double>(e) * e) /
                    (static_cast<double>(jc) * jc);
  const double l = (static_cast<double>(n) + s + w + e) / jc;
  const double num = 0.5 * g2 - (1.0 / 16.0) * l * l;
  const double den_l = 1.0 + 0.25 * l;
  const double qsqr = num / (den_l * den_l);
  const double den = (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr));
  return {n, s, w, e, clamp_unit(1.0 / (1.0 + den))};
}

/// Columns of a srad_coeff row per coeff_row call: the clamped coefficients
/// wait in a stack chunk of this many doubles for their float conversion.
constexpr std::size_t kCoeffChunk = 512;

/// Columns [c0, c1) of one srad_coeff row, c1 - c0 <= kCoeffChunk. `north`,
/// `row`, `south` and the five output pointers are row bases (indexed by
/// global column); `cv` is the chunk. As in hotspot, column clamping only
/// fires at the global edge columns 0 and cols-1, so those run as scalar
/// prologue/epilogue and every other column takes the branch-free interior
/// loop. The float conversion of the coefficient is a second loop: inside
/// the first, GCC sinks it into the clamp's pass-through branch, where it
/// might not run, and the loop no longer vectorizes. Compiled through
/// Variants, out of line with `__restrict` pointers and q0sqr by value:
/// that is what lets GCC vectorize the loops without runtime alias checks.
[[gnu::always_inline]] inline void coeff_row(const float* __restrict north,
                                             const float* __restrict row,
                                             const float* __restrict south,
                                             float* __restrict c, float* __restrict dn,
                                             float* __restrict ds, float* __restrict dw,
                                             float* __restrict de, double* __restrict cv,
                                             std::size_t cols, std::size_t c0, std::size_t c1,
                                             double q0sqr) {
  const auto store = [&](std::size_t col, const CoeffCell& x) {
    dn[col] = x.n;
    ds[col] = x.s;
    dw[col] = x.w;
    de[col] = x.e;
    cv[col - c0] = x.cv;
  };
  std::size_t col = c0;
  if (col == 0) {  // global west edge: west neighbour clamps to the cell
    const std::size_t ce = cols > 1 ? 1 : 0;
    store(0, coeff_cell(row[0], north[0], south[0], row[0], row[ce], q0sqr));
    ++col;
  }
  const std::size_t interior_end = c1 < cols ? c1 : cols - 1;
  for (; col < interior_end; ++col) {  // 1 <= col <= cols-2: no clamp possible
    store(col, coeff_cell(row[col], north[col], south[col], row[col - 1], row[col + 1], q0sqr));
  }
  if (col < c1) {  // col == cols-1 > 0: global east edge clamps
    store(col, coeff_cell(row[col], north[col], south[col], row[col - 1], row[col], q0sqr));
  }
  for (std::size_t i = 0; i < c1 - c0; ++i) c[c0 + i] = static_cast<float>(cv[i]);
}

/// The per-cell divergence update from the cell's own, south and east
/// coefficients; shared by the edge and interior paths like coeff_cell.
inline float update_cell(float jv, float cc, float cs, float ce, float n, float s, float w,
                         float e, double lambda) {
  const double div = static_cast<double>(cs) * s + static_cast<double>(cc) * n +
                     static_cast<double>(ce) * e + static_cast<double>(cc) * w;
  return static_cast<float>(jv + 0.25 * lambda * div);
}

/// Columns [c0, c1) of one srad_update row (row bases and variants as in
/// coeff_row). Only the east neighbour is read, so only global column
/// cols-1 clamps.
[[gnu::always_inline]] inline void update_row(float* __restrict j, const float* __restrict c,
                                              const float* __restrict c_south,
                                              const float* __restrict dn,
                                              const float* __restrict ds,
                                              const float* __restrict dw,
                                              const float* __restrict de, std::size_t cols,
                                              std::size_t c0, std::size_t c1, double lambda) {
  std::size_t col = c0;
  const std::size_t interior_end = c1 < cols ? c1 : cols - 1;
  for (; col < interior_end; ++col) {  // col <= cols-2: east neighbour exists
    j[col] = update_cell(j[col], c[col], c_south[col], c[col + 1], dn[col], ds[col], dw[col],
                         de[col], lambda);
  }
  if (col < c1) {  // col == cols-1: global east edge clamps
    j[col] = update_cell(j[col], c[col], c_south[col], c[col], dn[col], ds[col], dw[col],
                         de[col], lambda);
  }
}

}  // namespace

void srad_extract(const float* image, float* j, std::size_t begin, std::size_t end) {
  par::for_blocked(begin, end, par::kChunk, [=](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      j[i] = std::exp(image[i] / 255.0f);
    }
  });
}

void srad_statistics(const float* j, std::size_t begin, std::size_t end, double* sum,
                     double* sum2) {
  // Deterministic blocked reduction: fixed kChunk blocks, each summed
  // serially, partials merged by the engine's fixed tree. Bit-identical for
  // any thread count; ranges under one chunk (every oracle test) reduce to
  // the plain serial loop.
  struct Sums {
    double s = 0.0;
    double s2 = 0.0;
  };
  const Sums total = par::blocked_reduce(
      begin, end, par::kChunk, Sums{},
      [=](std::size_t i0, std::size_t i1) {
        Sums p;
        for (std::size_t i = i0; i < i1; ++i) {
          const double v = j[i];
          p.s += v;
          p.s2 += v * v;
        }
        return p;
      },
      [](const Sums& a, const Sums& b) { return Sums{a.s + b.s, a.s2 + b.s2}; });
  *sum = total.s;
  *sum2 = total.s2;
}

double srad_q0sqr(double sum, double sum2, std::size_t count) noexcept {
  const double n = static_cast<double>(count);
  const double mean = sum / n;
  const double var = (sum2 / n) - mean * mean;
  return var / (mean * mean);
}

void detail::srad_coeff(Isa isa, const float* j, float* c, float* dn, float* ds, float* dw,
                        float* de, std::size_t rows, std::size_t cols, std::size_t row_begin,
                        std::size_t row_end, std::size_t col_begin, std::size_t col_end,
                        double q0sqr) {
  if (row_end <= row_begin || col_end <= col_begin) return;
  const auto coeff = Variants<coeff_row>::pick(isa);
  // Band-parallel over rows (fixed kRowBand); each cell's expression is
  // self-contained, so any banding gives bit-identical tiles.
  par::for_blocked(row_begin, row_end, par::kRowBand, [&](std::size_t r0, std::size_t r1) {
    double cv[kCoeffChunk];
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t rn = r > 0 ? r - 1 : 0;
      const std::size_t rs = r + 1 < rows ? r + 1 : rows - 1;
      const std::size_t row = r * cols;
      for (std::size_t c0 = col_begin; c0 < col_end; c0 += kCoeffChunk) {
        const std::size_t c1 = col_end - c0 < kCoeffChunk ? col_end : c0 + kCoeffChunk;
        coeff(j + rn * cols, j + row, j + rs * cols, c + row, dn + row, ds + row, dw + row,
              de + row, cv, cols, c0, c1, q0sqr);
      }
    }
  });
}

void srad_coeff(const float* j, float* c, float* dn, float* ds, float* dw, float* de,
                std::size_t rows, std::size_t cols, std::size_t row_begin, std::size_t row_end,
                std::size_t col_begin, std::size_t col_end, double q0sqr) {
  detail::srad_coeff(detail::host_isa(), j, c, dn, ds, dw, de, rows, cols, row_begin, row_end,
                     col_begin, col_end, q0sqr);
}

void detail::srad_update(Isa isa, float* j, const float* c, const float* dn, const float* ds,
                         const float* dw, const float* de, std::size_t rows, std::size_t cols,
                         std::size_t row_begin, std::size_t row_end, std::size_t col_begin,
                         std::size_t col_end, double lambda) {
  if (row_end <= row_begin || col_end <= col_begin) return;
  const auto update = Variants<update_row>::pick(isa);
  par::for_blocked(row_begin, row_end, par::kRowBand, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t rs = r + 1 < rows ? r + 1 : rows - 1;
      const std::size_t row = r * cols;
      update(j + row, c + row, c + rs * cols, dn + row, ds + row, dw + row, de + row, cols,
             col_begin, col_end, lambda);
    }
  });
}

void srad_update(float* j, const float* c, const float* dn, const float* ds, const float* dw,
                 const float* de, std::size_t rows, std::size_t cols, std::size_t row_begin,
                 std::size_t row_end, std::size_t col_begin, std::size_t col_end, double lambda) {
  detail::srad_update(detail::host_isa(), j, c, dn, ds, dw, de, rows, cols, row_begin, row_end,
                      col_begin, col_end, lambda);
}

void srad_compress(const float* j, float* image, std::size_t begin, std::size_t end) {
  par::for_blocked(begin, end, par::kChunk, [=](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      image[i] = 255.0f * std::log(j[i]);
    }
  });
}

void srad_extract_2d(const float* image, float* j, std::size_t cols, std::size_t row_begin,
                     std::size_t row_end, std::size_t col_begin, std::size_t col_end) {
  par::for_blocked(row_begin, row_end, par::kRowBand, [=](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t i = r * cols + col_begin; i < r * cols + col_end; ++i) {
        j[i] = std::exp(image[i] / 255.0f);
      }
    }
  });
}

void srad_statistics_2d(const float* j, std::size_t cols, std::size_t row_begin,
                        std::size_t row_end, std::size_t col_begin, std::size_t col_end,
                        double* sum, double* sum2) {
  struct Sums {
    double s = 0.0;
    double s2 = 0.0;
  };
  const Sums total = par::blocked_reduce(
      row_begin, row_end, par::kRowBand, Sums{},
      [=](std::size_t r0, std::size_t r1) {
        Sums p;
        for (std::size_t r = r0; r < r1; ++r) {
          for (std::size_t i = r * cols + col_begin; i < r * cols + col_end; ++i) {
            const double v = j[i];
            p.s += v;
            p.s2 += v * v;
          }
        }
        return p;
      },
      [](const Sums& a, const Sums& b) { return Sums{a.s + b.s, a.s2 + b.s2}; });
  *sum = total.s;
  *sum2 = total.s2;
}

void srad_compress_2d(const float* j, float* image, std::size_t cols, std::size_t row_begin,
                      std::size_t row_end, std::size_t col_begin, std::size_t col_end) {
  par::for_blocked(row_begin, row_end, par::kRowBand, [=](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t i = r * cols + col_begin; i < r * cols + col_end; ++i) {
        image[i] = 255.0f * std::log(j[i]);
      }
    }
  });
}

}  // namespace ms::kern
