#pragma once

#include <cstddef>

namespace ms::kern {

/// C += A * B^T on row-major tiles: A is m x k (lda), B is n x k (ldb), C is
/// m x n (ldc). The tiled MM application stores B transposed so that a
/// column band of B is a contiguous row band of B^T and can be moved by one
/// DMA transfer. Band-parallel with a 4-lane / 4-column dot-product kernel;
/// the lane split and pair-tree combine are functions of k alone, so results
/// are bit-identical across thread counts.
void gemm_nt_acc(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                 std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc);

/// C += A * B (B is k x n, ldb): the naive triple loop, gemm_nt_acc's test
/// oracle.
void gemm_reference(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                    std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc);

/// Floating-point operations in one C += A*B tile update.
[[nodiscard]] constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
}

}  // namespace ms::kern
