#include "kern/gemm.hpp"

#include "kern/par.hpp"

namespace ms::kern {

namespace {

// Rows per parallel band. The decomposition is a pure function of (m, n, k)
// -- never of the worker count -- so results are bit-identical across 1..N
// threads.
constexpr std::size_t kGemmBand = 128;

/// Lane width for the gemm_nt dot-product kernel: four strided partial sums
/// per (i, j), combined by a fixed pair tree, the p-remainder folded in
/// serially afterwards. The split point (k rounded down to a multiple of 4)
/// is a function of k alone.
constexpr std::size_t kLanes = 4;
constexpr std::size_t kNtJ = 4;  // j values sharing each a[i][p] load

/// One i-band of gemm_nt_acc: C += A * B^T over rows [i0, i1).
void gemm_nt_band(const double* a, const double* b, double* c, std::size_t i0, std::size_t i1,
                  std::size_t n, std::size_t k, std::size_t lda, std::size_t ldb,
                  std::size_t ldc) {
  const std::size_t kv = k - k % kLanes;
  for (std::size_t i = i0; i < i1; ++i) {
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

}  // namespace

void gemm_nt_acc(const double* a, const double* b, double* c, std::size_t m, std::size_t n,
                 std::size_t k, std::size_t lda, std::size_t ldb, std::size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  par::for_blocked(0, m, kGemmBand, [=](std::size_t i0, std::size_t i1) {
    gemm_nt_band(a, b, c, i0, i1, n, k, lda, ldb, ldc);
  });
}

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

}  // namespace ms::kern
