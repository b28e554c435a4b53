#pragma once

#include <cstddef>

namespace ms::kern {

/// C += A * B^T on row-major tiles: A is m x k (lda), B is n x k (ldb), C is
/// m x n (ldc). The tiled MM application stores B transposed so that a
/// column band of B is a contiguous row band of B^T and can be moved by one
/// DMA transfer. Parallel over fixed kRowBand row bands, with 2-row x
/// 4-column register micro-tiles; each C element sums 4 strided partials
/// (lane l over p = l mod 4), combined by a fixed pair tree, with the k % 4
/// tail folded in serially. That sequence is a function of k alone, so
/// results are bit-identical across thread counts and ISA variants.
void gemm_nt_acc(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                 std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc);

/// Floating-point operations in one C += A*B tile update.
[[nodiscard]] constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
}

}  // namespace ms::kern
