#include "kern/gemm.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace ms::kern {
namespace {

void fill(std::vector<double>& v, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (double& x : v) x = d(rng);
}

/// C += A * B (B is k x n, ldb): the naive triple loop, gemm_nt_acc's
/// tolerance oracle (its sums run in another order).
void gemm_reference(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                    std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c[i * ldc + j];
      for (std::size_t p = 0; p < k; ++p) {
        acc += a[i * lda + p] * b[p * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

/// The k x n matrix B (leading dimension ldb) of a B^T stored n x k with
/// leading dimension ldbt: the operand gemm_reference takes for gemm_nt_acc's.
std::vector<double> untransposed(const std::vector<double>& bt, std::size_t n, std::size_t k,
                                 std::size_t ldbt, std::size_t ldb) {
  std::vector<double> b(k * ldb, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) b[p * ldb + j] = bt[j * ldbt + p];
  }
  return b;
}

/// gemm_nt_acc against the naive oracle on C (m x n, ldc) starting at `c0`.
void expect_matches_reference(std::size_t m, std::size_t n, std::size_t k, std::size_t lda,
                              std::size_t ldbt, std::size_t ldc, double c0, unsigned seed,
                              double tol) {
  std::vector<double> a(m * lda), bt(n * ldbt), c1(m * ldc, c0), c2(m * ldc, c0);
  fill(a, seed);
  fill(bt, seed + 1);
  gemm_nt_acc(a.data(), bt.data(), c1.data(), m, n, k, lda, ldbt, ldc);
  const std::vector<double> b = untransposed(bt, n, k, ldbt, n);
  gemm_reference(a.data(), b.data(), c2.data(), m, n, k, lda, n, ldc);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], tol) << i;
}

TEST(Gemm, MatchesReferenceSquare) {
  expect_matches_reference(37, 37, 37, 37, 37, 37, 0.0, 1, 1e-10);
}

TEST(Gemm, AccumulatesIntoC) { expect_matches_reference(8, 8, 8, 8, 8, 8, 1.0, 3, 1e-12); }

TEST(Gemm, IdentityLeavesMatrixUnchanged) {
  // C = A * I^T = A.
  const std::size_t n = 16;
  std::vector<double> a(n * n), eye(n * n, 0.0), c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) eye[i * n + i] = 1.0;
  fill(a, 5);
  gemm_nt_acc(a.data(), eye.data(), c.data(), n, n, n, n, n, n);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_DOUBLE_EQ(c[i], a[i]);
}

TEST(Gemm, RectangularWithStrides) {
  // C (3x5) += A (3x4) * B^T (5x4), embedded in larger leading dimensions.
  expect_matches_reference(3, 5, 4, 7, 9, 11, 0.5, 6, 1e-12);
}

TEST(Gemm, NtAccMatchesExplicitTranspose) {
  expect_matches_reference(6, 9, 13, 13, 13, 9, 0.0, 8, 1e-12);
}

TEST(Gemm, FlopCount) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(gemm_flops(1000, 1000, 1000), 2e9);
}

TEST(Gemm, ZeroDimensionsAreNoOps) {
  std::vector<double> a(4), b(4), c(4, 7.0);
  gemm_nt_acc(a.data(), b.data(), c.data(), 0, 2, 2, 2, 2, 2);
  gemm_nt_acc(a.data(), b.data(), c.data(), 2, 2, 0, 2, 2, 2);
  for (const double x : c) EXPECT_DOUBLE_EQ(x, 7.0);
}

// Sizes either side of the 4-column j groups and the 4-lane k split.
class GemmSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GemmSizeSweep, BlockedEqualsNaive) {
  const std::size_t n = GetParam();
  expect_matches_reference(n, n, n, n, n, n, 0.0, static_cast<unsigned>(n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmSizeSweep, ::testing::Values(1, 2, 5, 16, 63, 64, 65, 100));

}  // namespace
}  // namespace ms::kern
