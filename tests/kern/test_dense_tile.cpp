// The dense tile kernels -- MM's gemm_nt_acc, CF's gemm_nt_tile, syrk_tile
// and trsm_tile, LU's gemm_nn_sub, trsm_lower_left and trsm_upper_right --
// against the scalar loops they replaced, kept here verbatim as exact
// oracles. The vectorized kernels run each ISA variant (kern/isa.hpp) and
// memcmp whole C buffers, row padding included, on shapes that hit every
// fringe: odd m, n % 4 and n % 8 and k % 4 remainders, k over one B^T
// panel, leading dimensions wider than the rows and zero dimensions.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "alloc_counter.hpp"
#include "isa_variant_test.hpp"
#include "kern/cholesky.hpp"
#include "kern/gemm.hpp"
#include "kern/lu.hpp"
#include "kern/par.hpp"

namespace ms::kern {
namespace {

// --- Scalar oracles ---------------------------------------------------------------

/// gemm_nt_acc's former band loop over all m rows: four strided partial sums
/// per (i, j), the pair tree, then the k % 4 tail.
void ref_gemm_nt_acc(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                     std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kNtJ = 4;
  const std::size_t kv = k - k % kLanes;
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + kNtJ <= n; j += kNtJ) {
      double acc[kNtJ][kLanes] = {};
      const double* bj0 = b + j * ldb;
      const double* bj1 = b + (j + 1) * ldb;
      const double* bj2 = b + (j + 2) * ldb;
      const double* bj3 = b + (j + 3) * ldb;
      for (std::size_t p = 0; p < kv; p += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double ap = ai[p + l];
          acc[0][l] += ap * bj0[p + l];
          acc[1][l] += ap * bj1[p + l];
          acc[2][l] += ap * bj2[p + l];
          acc[3][l] += ap * bj3[p + l];
        }
      }
      const double* bjs[kNtJ] = {bj0, bj1, bj2, bj3};
      for (std::size_t jj = 0; jj < kNtJ; ++jj) {
        double s = (acc[jj][0] + acc[jj][1]) + (acc[jj][2] + acc[jj][3]);
        for (std::size_t p = kv; p < k; ++p) s += ai[p] * bjs[jj][p];
        ci[j + jj] += s;
      }
    }
    for (; j < n; ++j) {
      const double* bj = b + j * ldb;
      double acc[kLanes] = {};
      for (std::size_t p = 0; p < kv; p += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) acc[l] += ai[p + l] * bj[p + l];
      }
      double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
      for (std::size_t p = kv; p < k; ++p) s += ai[p] * bj[p];
      ci[j] += s;
    }
  }
}

void ref_gemm_nt_tile(const double* a, const double* b, double* c, std::size_t m,
                      std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb,
                      std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b + j * ldb;
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        s += ai[p] * bj[p];
      }
      ci[j] -= s;
    }
  }
}

void ref_syrk_tile(const double* a, double* c, std::size_t n, std::size_t k, std::size_t lda,
                   std::size_t ldc) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0.0;
      const double* ai = a + i * lda;
      const double* aj = a + j * lda;
      for (std::size_t p = 0; p < k; ++p) {
        s += ai[p] * aj[p];
      }
      c[i * ldc + j] -= s;
    }
  }
}

void ref_gemm_nn_sub(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                     std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c + i * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = a[i * lda + p];
      const double* bp = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] -= aip * bp[j];
      }
    }
  }
}

void ref_trsm_tile(const double* l, double* b, std::size_t m, std::size_t n, std::size_t lda,
                   std::size_t ldb) {
  for (std::size_t i = 0; i < m; ++i) {
    double* bi = b + i * ldb;
    for (std::size_t j = 0; j < n; ++j) {
      double s = bi[j];
      for (std::size_t p = 0; p < j; ++p) {
        s -= bi[p] * l[j * lda + p];
      }
      bi[j] = s / l[j * lda + j];
    }
  }
}

void ref_trsm_lower_left(const double* l, double* b, std::size_t n, std::size_t m,
                         std::size_t lda, std::size_t ldb) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < i; ++p) {
      const double lip = l[i * lda + p];
      for (std::size_t j = 0; j < m; ++j) {
        b[i * ldb + j] -= lip * b[p * ldb + j];
      }
    }
  }
}

void ref_trsm_upper_right(const double* u, double* b, std::size_t m, std::size_t n,
                          std::size_t lda, std::size_t ldb) {
  for (std::size_t i = 0; i < m; ++i) {
    double* bi = b + i * ldb;
    for (std::size_t j = 0; j < n; ++j) {
      double s = bi[j];
      for (std::size_t p = 0; p < j; ++p) {
        s -= bi[p] * u[p * lda + j];
      }
      bi[j] = s / u[j * lda + j];
    }
  }
}

// --- Inputs -----------------------------------------------------------------------

std::vector<double> uniform(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

/// Rows around the micro-tiles (2 for mm, 4 for cf/lu) and over one row band.
constexpr std::size_t kRows[] = {0, 1, 2, 3, 5, 7, 67};
/// Columns with every remainder mod 4 and mod 8.
constexpr std::size_t kCols[] = {0, 1, 2, 3, 4, 5, 6, 7, 9, 13, 18};
/// Depths with every remainder mod 4, and over one 128-deep B^T panel.
constexpr std::size_t kDepths[] = {0, 1, 2, 3, 5, 6, 7, 130, 259};

struct Shape {
  std::size_t m, n, k;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const std::size_t m : kRows) {
    for (const std::size_t n : kCols) {
      for (const std::size_t k : kDepths) out.push_back({m, n, k});
    }
  }
  return out;
}

/// Runs `got` and `want` on copies of one random C (m x n, ldc) and memcmps
/// them.
template <typename Got, typename Want>
void expect_same_c(std::size_t m, std::size_t ldc, unsigned seed, Got&& got, Want&& want) {
  const std::vector<double> c0 = uniform(m * ldc, seed);
  std::vector<double> c1 = c0, c2 = c0;
  got(c1.data());
  want(c2.data());
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(double)), 0);
}

// --- ISA variants against the oracles ----------------------------------------------

class DenseTileVariant : public test::IsaVariantTest {};
INSTANTIATE_TEST_SUITE_P(Isa, DenseTileVariant, test::kIsaVariants, test::isa_variant_name);

TEST_P(DenseTileVariant, GemmNtAccMatchesScalarOracle) {
  for (const Shape s : shapes()) {
    SCOPED_TRACE(::testing::Message() << "m=" << s.m << " n=" << s.n << " k=" << s.k);
    const std::size_t lda = s.k + 3, ldb = s.k + 1, ldc = s.n + 5;
    const auto a = uniform(s.m * lda, 1), b = uniform(s.n * ldb, 2);
    expect_same_c(
        s.m, ldc, 3,
        [&](double* c) {
          detail::gemm_nt_acc(isa(), a.data(), b.data(), c, s.m, s.n, s.k, lda, ldb, ldc);
        },
        [&](double* c) { ref_gemm_nt_acc(a.data(), b.data(), c, s.m, s.n, s.k, lda, ldb, ldc); });
  }
}

TEST_P(DenseTileVariant, GemmNtTileMatchesScalarOracle) {
  for (const Shape s : shapes()) {
    SCOPED_TRACE(::testing::Message() << "m=" << s.m << " n=" << s.n << " k=" << s.k);
    const std::size_t lda = s.k + 3, ldb = s.k + 1, ldc = s.n + 5;
    const auto a = uniform(s.m * lda, 4), b = uniform(s.n * ldb, 5);
    expect_same_c(
        s.m, ldc, 6,
        [&](double* c) {
          detail::gemm_nt_tile(isa(), a.data(), b.data(), c, s.m, s.n, s.k, lda, ldb, ldc);
        },
        [&](double* c) { ref_gemm_nt_tile(a.data(), b.data(), c, s.m, s.n, s.k, lda, ldb, ldc); });
  }
}

TEST_P(DenseTileVariant, SyrkTileMatchesScalarOracle) {
  // C is n x n: take n from both the row and the column lists.
  std::vector<std::size_t> ns(std::begin(kRows), std::end(kRows));
  ns.insert(ns.end(), std::begin(kCols), std::end(kCols));
  for (const std::size_t n : ns) {
    for (const std::size_t k : kDepths) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k);
      const std::size_t lda = k + 3, ldc = n + 5;
      const auto a = uniform(n * lda, 7);
      expect_same_c(
          n, ldc, 8, [&](double* c) { detail::syrk_tile(isa(), a.data(), c, n, k, lda, ldc); },
          [&](double* c) { ref_syrk_tile(a.data(), c, n, k, lda, ldc); });
    }
  }
}

TEST_P(DenseTileVariant, GemmNnSubMatchesScalarOracle) {
  for (const Shape s : shapes()) {
    SCOPED_TRACE(::testing::Message() << "m=" << s.m << " n=" << s.n << " k=" << s.k);
    const std::size_t lda = s.k + 3, ldb = s.n + 2, ldc = s.n + 5;
    const auto a = uniform(s.m * lda, 9), b = uniform(s.k * ldb, 10);
    expect_same_c(
        s.m, ldc, 11,
        [&](double* c) {
          detail::gemm_nn_sub(isa(), a.data(), b.data(), c, s.m, s.n, s.k, lda, ldb, ldc);
        },
        [&](double* c) { ref_gemm_nn_sub(a.data(), b.data(), c, s.m, s.n, s.k, lda, ldb, ldc); });
  }
}

// --- Triangular solves ------------------------------------------------------------

/// A random n x n triangle source (lda) with a diagonal in [2, 3), so every
/// solve is well conditioned.
std::vector<double> triangle(std::size_t n, std::size_t lda, unsigned seed) {
  std::vector<double> t = uniform(n * lda, seed);
  for (std::size_t i = 0; i < n; ++i) t[i * lda + i] = 2.5 + 0.5 * t[i * lda + i];
  return t;
}

TEST(DenseTile, TrsmKernelsMatchScalarOracles) {
  // Over three row (or column) bands, with a band remainder and padded
  // leading dimensions.
  for (const std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{150}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{33}}) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n);
      const std::size_t lda = n + 3, ldb = n + 2;
      const auto t = triangle(n, lda, 12);
      expect_same_c(
          m, ldb, 13, [&](double* b) { trsm_tile(t.data(), b, m, n, lda, ldb); },
          [&](double* b) { ref_trsm_tile(t.data(), b, m, n, lda, ldb); });
      expect_same_c(
          m, ldb, 14, [&](double* b) { trsm_upper_right(t.data(), b, m, n, lda, ldb); },
          [&](double* b) { ref_trsm_upper_right(t.data(), b, m, n, lda, ldb); });
      // B is n x m here: the bands run over its m columns.
      const std::size_t ldbm = m + 2;
      expect_same_c(
          n, ldbm, 15, [&](double* b) { trsm_lower_left(t.data(), b, n, m, lda, ldbm); },
          [&](double* b) { ref_trsm_lower_left(t.data(), b, n, m, lda, ldbm); });
    }
  }
}

// --- Allocation -------------------------------------------------------------------

TEST(DenseTile, KernelsAllocateNothingAtOneThread) {
  // 144-row tiles: three row bands and fringe micro-tiles in every kernel.
  const std::size_t n = 144, k = 131;
  const auto a = uniform(n * k, 16), b = uniform(n * k, 17);
  const auto t = triangle(n, n, 18);
  std::vector<double> c = uniform(n * n, 19);
  par::ThreadScope scope(1);
  const std::size_t before = ms::test::alloc_count();
  gemm_nt_acc(a.data(), b.data(), c.data(), n, n, k, k, k, n);
  gemm_nt_tile(a.data(), b.data(), c.data(), n, n, k, k, k, n);
  syrk_tile(a.data(), c.data(), n, k, k, n);
  gemm_nn_sub(a.data(), b.data(), c.data(), n, n, n - 13, k, n, n);
  trsm_tile(t.data(), c.data(), n, n, n, n);
  trsm_lower_left(t.data(), c.data(), n, n, n, n);
  trsm_upper_right(t.data(), c.data(), n, n, n, n);
  EXPECT_EQ(ms::test::alloc_count() - before, 0u);
}

}  // namespace
}  // namespace ms::kern
