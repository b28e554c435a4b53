#pragma once

#include <cstddef>

namespace ms::kern {

/// Rodinia SRAD (speckle-reducing anisotropic diffusion) on a rows x cols
/// ultrasound image. The iteration pipeline (Fig. 4(f)) is:
///   extract:  J = exp(I/255)
///   loop:     statistics over the ROI -> q0^2
///             srad1: diffusion coefficient c from local gradients
///             srad2: divergence update J += (lambda/4) * div
///   compress: I = 255 * log(J)
/// Multiple kernels with an explicit sync between them: the paper classifies
/// SRAD as non-overlappable (spatial sharing only).

/// J[i] = exp(I[i] / 255) over [begin, end).
void srad_extract(const float* image, float* j, std::size_t begin, std::size_t end);

/// Partial sums for the ROI statistics over the band [begin, end):
/// returns sum and sum-of-squares via out parameters. A deterministic
/// blocked reduction on the kernel execution engine — fixed kChunk blocks
/// merged by a fixed tree — so the sums are bit-identical across thread
/// counts (ranges under one chunk degenerate to the plain serial loop).
void srad_statistics(const float* j, std::size_t begin, std::size_t end, double* sum,
                     double* sum2);

/// From full-ROI sum/sum2 over `count` pixels, the normalized variance q0^2.
[[nodiscard]] double srad_q0sqr(double sum, double sum2, std::size_t count) noexcept;

/// Diffusion-coefficient kernel over the 2-D tile [row_begin, row_end) x
/// [col_begin, col_end): reads J (clamped 4-neighbour stencil), writes the
/// c, dn, ds, dw, de tiles. The five output planes must not overlap J or
/// each other.
void srad_coeff(const float* j, float* c, float* dn, float* ds, float* dw, float* de,
                std::size_t rows, std::size_t cols, std::size_t row_begin, std::size_t row_end,
                std::size_t col_begin, std::size_t col_end, double q0sqr);

/// Divergence update kernel over the 2-D tile: J += lambda/4 * div, using
/// the coefficient c of self/south/east neighbours (clamped). J must not
/// overlap the five input planes.
void srad_update(float* j, const float* c, const float* dn, const float* ds, const float* dw,
                 const float* de, std::size_t rows, std::size_t cols, std::size_t row_begin,
                 std::size_t row_end, std::size_t col_begin, std::size_t col_end, double lambda);

/// I[i] = 255 * log(J[i]) over [begin, end).
void srad_compress(const float* j, float* image, std::size_t begin, std::size_t end);

/// 2-D tile forms of extract / statistics / compress over
/// [row_begin, row_end) x [col_begin, col_end) of a row-major image with
/// `cols` columns. Band-parallel on the kernel execution engine (fixed
/// kRowBand row bands); statistics sums each band serially in row order and
/// merges band partials with the fixed tree, so all three are bit-identical
/// across thread counts. These are what the SRAD application launches per
/// tile — a tile is one call, not a loop of per-row calls.
void srad_extract_2d(const float* image, float* j, std::size_t cols, std::size_t row_begin,
                     std::size_t row_end, std::size_t col_begin, std::size_t col_end);
void srad_statistics_2d(const float* j, std::size_t cols, std::size_t row_begin,
                        std::size_t row_end, std::size_t col_begin, std::size_t col_end,
                        double* sum, double* sum2);
void srad_compress_2d(const float* j, float* image, std::size_t cols, std::size_t row_begin,
                      std::size_t row_end, std::size_t col_begin, std::size_t col_end);

[[nodiscard]] constexpr double srad_coeff_flops(std::size_t band_rows, std::size_t cols) noexcept {
  return 22.0 * static_cast<double>(band_rows) * static_cast<double>(cols);
}
[[nodiscard]] constexpr double srad_update_flops(std::size_t band_rows, std::size_t cols) noexcept {
  return 8.0 * static_cast<double>(band_rows) * static_cast<double>(cols);
}
[[nodiscard]] constexpr double srad_elems(std::size_t band_rows, std::size_t cols) noexcept {
  return 6.0 * static_cast<double>(band_rows) * static_cast<double>(cols);
}

}  // namespace ms::kern
