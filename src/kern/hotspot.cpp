#include "kern/hotspot.hpp"

#include "kern/isa.hpp"
#include "kern/par.hpp"

namespace ms::kern {

using detail::Isa;
using detail::Variants;

namespace {

/// The per-cell update. One expression shared by the boundary and interior
/// paths, so a given cell computes bit-identically no matter which loop
/// handled it or how the grid was banded.
inline double update(double t, double pw, double north, double south, double east, double west,
                     const HotspotParams& p) {
  return t + p.dt_over_cap * (pw + (south + north - 2.0 * t) * p.ry_inv +
                              (east + west - 2.0 * t) * p.rx_inv + (p.t_ambient - t) * p.rz_inv);
}

/// Rows [r0, r1) of one step. Column clamping only ever fires at the global
/// edge columns 0 and cols-1 — a property of the grid, not of the tile — so
/// the columns are split by global position: clamped prologue/epilogue
/// iterations for the edges, and a branch-free interior loop (the hot path)
/// the compiler can vectorize. Compiled once per ISA variant (Variants).
[[gnu::always_inline]] inline void hotspot_rows(const double* t_in, const double* power,
                                                double* t_out, std::size_t rows,
                                                std::size_t cols, std::size_t r0, std::size_t r1,
                                                std::size_t col_begin, std::size_t col_end,
                                                const HotspotParams& p) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t rn = r > 0 ? r - 1 : r;         // clamped north
    const std::size_t rs = r + 1 < rows ? r + 1 : r;  // clamped south
    const double* row = t_in + r * cols;
    const double* north = t_in + rn * cols;
    const double* south = t_in + rs * cols;
    const double* pw = power + r * cols;
    double* out = t_out + r * cols;

    std::size_t c = col_begin;
    if (c == 0) {  // global west edge: west neighbour clamps to the cell
      const std::size_t ce = cols > 1 ? 1 : 0;
      out[0] = update(row[0], pw[0], north[0], south[0], row[ce], row[0], p);
      ++c;
    }
    const std::size_t interior_end = col_end < cols ? col_end : cols - 1;
    for (; c < interior_end; ++c) {  // 1 <= c <= cols-2: no clamp possible
      out[c] = update(row[c], pw[c], north[c], south[c], row[c + 1], row[c - 1], p);
    }
    if (c < col_end) {  // c == cols-1 > 0: global east edge clamps
      out[c] = update(row[c], pw[c], north[c], south[c], row[c], row[c - 1], p);
    }
  }
}

}  // namespace

void detail::hotspot_step(Isa isa, const double* t_in, const double* power, double* t_out,
                          std::size_t rows, std::size_t cols, std::size_t row_begin,
                          std::size_t row_end, std::size_t col_begin, std::size_t col_end,
                          const HotspotParams& p) {
  if (row_end <= row_begin || col_end <= col_begin) return;
  const auto step = Variants<hotspot_rows>::pick(isa);
  par::for_blocked(row_begin, row_end, par::kRowBand, [&](std::size_t b0, std::size_t b1) {
    step(t_in, power, t_out, rows, cols, b0, b1, col_begin, col_end, p);
  });
}

void hotspot_step(const double* t_in, const double* power, double* t_out, std::size_t rows,
                  std::size_t cols, std::size_t row_begin, std::size_t row_end,
                  std::size_t col_begin, std::size_t col_end, const HotspotParams& p) {
  detail::hotspot_step(detail::host_isa(), t_in, power, t_out, rows, cols, row_begin, row_end,
                       col_begin, col_end, p);
}

}  // namespace ms::kern
