#include "kern/srad.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "alloc_counter.hpp"
#include "isa_variant_test.hpp"
#include "kern/par.hpp"

namespace ms::kern {
namespace {

using detail::Isa;

std::vector<float> random_image(std::size_t cells, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(10.0f, 200.0f);
  std::vector<float> img(cells);
  for (float& x : img) x = d(rng);
  return img;
}

TEST(Srad, ExtractIsExp) {
  const std::vector<float> img{0.0f, 255.0f};
  std::vector<float> j(2, 0.0f);
  srad_extract(img.data(), j.data(), 0, 2);
  EXPECT_FLOAT_EQ(j[0], 1.0f);
  EXPECT_NEAR(j[1], std::exp(1.0f), 1e-5);
}

TEST(Srad, CompressInvertsExtract) {
  const auto img = random_image(64, 1);
  std::vector<float> j(64), back(64);
  srad_extract(img.data(), j.data(), 0, 64);
  srad_compress(j.data(), back.data(), 0, 64);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_NEAR(back[i], img[i], 1e-3);
}

TEST(Srad, StatisticsComputeSums) {
  const std::vector<float> j{1.0f, 2.0f, 3.0f};
  double s = 0.0, s2 = 0.0;
  srad_statistics(j.data(), 0, 3, &s, &s2);
  EXPECT_DOUBLE_EQ(s, 6.0);
  EXPECT_DOUBLE_EQ(s2, 14.0);
}

TEST(Srad, StatisticsOverSubrange) {
  const std::vector<float> j{1.0f, 2.0f, 3.0f, 4.0f};
  double s = 0.0, s2 = 0.0;
  srad_statistics(j.data(), 1, 3, &s, &s2);
  EXPECT_DOUBLE_EQ(s, 5.0);
  EXPECT_DOUBLE_EQ(s2, 13.0);
}

TEST(Srad, Q0sqrOfConstantImageIsZero) {
  EXPECT_NEAR(srad_q0sqr(10.0, 10.0, 10), 0.0, 1e-12);  // all values 1.0
}

TEST(Srad, Q0sqrIsNormalizedVariance) {
  // Two values {1, 3}: mean 2, var 1, q0^2 = 1/4.
  EXPECT_DOUBLE_EQ(srad_q0sqr(4.0, 10.0, 2), 0.25);
}

TEST(Srad, CoeffInUnitRange) {
  const std::size_t n = 12;
  auto img = random_image(n * n, 2);
  std::vector<float> j(n * n), c(n * n), dn(n * n), ds(n * n), dw(n * n), de(n * n);
  srad_extract(img.data(), j.data(), 0, n * n);
  double s = 0.0, s2 = 0.0;
  srad_statistics(j.data(), 0, n * n, &s, &s2);
  srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), n, n, 0, n, 0, n,
             srad_q0sqr(s, s2, n * n));
  for (const float x : c) {
    EXPECT_GE(x, 0.0f);
    EXPECT_LE(x, 1.0f);
  }
}

TEST(Srad, ConstantImageIsFixedPoint) {
  // On a constant J the gradients vanish, so the update must not change J.
  const std::size_t n = 8;
  std::vector<float> j(n * n, 2.0f), c(n * n), dn(n * n), ds(n * n), dw(n * n), de(n * n);
  srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), n, n, 0, n, 0, n,
             0.5);
  auto j2 = j;
  srad_update(j2.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), n, n, 0, n, 0, n,
              0.5);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_FLOAT_EQ(j2[i], j[i]);
}

TEST(Srad, DiffusionSmoothsSpeckle) {
  // A single bright pixel should lose intensity relative to its value.
  const std::size_t n = 9;
  std::vector<float> j(n * n, 1.0f);
  j[40] = 3.0f;
  std::vector<float> c(n * n), dn(n * n), ds(n * n), dw(n * n), de(n * n);
  double s = 0.0, s2 = 0.0;
  srad_statistics(j.data(), 0, n * n, &s, &s2);
  srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), n, n, 0, n, 0, n,
             srad_q0sqr(s, s2, n * n));
  srad_update(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), n, n, 0, n, 0, n,
              0.5);
  EXPECT_LT(j[40], 3.0f);
}

TEST(Srad, TiledPipelineEqualsWholeImage) {
  // One full iteration computed tile-by-tile must equal the whole-image
  // computation (the streamed-vs-baseline functional equivalence at the
  // kernel level).
  const std::size_t n = 16;
  auto img = random_image(n * n, 3);
  std::vector<float> jw(n * n), jt(n * n);
  srad_extract(img.data(), jw.data(), 0, n * n);
  jt = jw;

  auto run_iteration = [&](std::vector<float>& j, std::size_t tile) {
    std::vector<float> c(n * n), dn(n * n), ds(n * n), dw(n * n), de(n * n);
    double s = 0.0, s2 = 0.0;
    for (std::size_t r0 = 0; r0 < n; r0 += tile) {
      double ps = 0.0, ps2 = 0.0;
      srad_statistics(j.data(), r0 * n, (r0 + tile) * n, &ps, &ps2);
      s += ps;
      s2 += ps2;
    }
    const double q0 = srad_q0sqr(s, s2, n * n);
    for (std::size_t r0 = 0; r0 < n; r0 += tile) {
      for (std::size_t c0 = 0; c0 < n; c0 += tile) {
        srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), n, n, r0,
                   r0 + tile, c0, c0 + tile, q0);
      }
    }
    for (std::size_t r0 = 0; r0 < n; r0 += tile) {
      for (std::size_t c0 = 0; c0 < n; c0 += tile) {
        srad_update(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), n, n, r0,
                    r0 + tile, c0, c0 + tile, 0.5);
      }
    }
  };
  run_iteration(jw, n);   // whole image
  run_iteration(jt, 4);   // 4x4 tiles
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_FLOAT_EQ(jt[i], jw[i]);
}

// The scalar srad_coeff / srad_update the vectorized kernels replaced, kept
// verbatim (minus the band parallelism, which never changes a cell) as exact
// oracles: every output of the kernels must match them bit for bit. `cv`,
// when given, receives each cell's coefficient before the clamp.
void ref_srad_coeff(const float* j, float* c, float* dn, float* ds, float* dw, float* de,
                    std::size_t rows, std::size_t cols, std::size_t row_begin,
                    std::size_t row_end, std::size_t col_begin, std::size_t col_end,
                    double q0sqr, double* cv_out = nullptr) {
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::size_t rn = r > 0 ? r - 1 : 0;
    const std::size_t rs = r + 1 < rows ? r + 1 : rows - 1;
    for (std::size_t col = col_begin; col < col_end; ++col) {
      const std::size_t cw = col > 0 ? col - 1 : 0;
      const std::size_t ce = col + 1 < cols ? col + 1 : cols - 1;
      const std::size_t k = r * cols + col;
      const float jc = j[k];
      const float n = j[rn * cols + col] - jc;
      const float s = j[rs * cols + col] - jc;
      const float w = j[r * cols + cw] - jc;
      const float e = j[r * cols + ce] - jc;
      dn[k] = n;
      ds[k] = s;
      dw[k] = w;
      de[k] = e;

      const double g2 = (static_cast<double>(n) * n + static_cast<double>(s) * s +
                         static_cast<double>(w) * w + static_cast<double>(e) * e) /
                        (static_cast<double>(jc) * jc);
      const double l = (static_cast<double>(n) + s + w + e) / jc;
      const double num = 0.5 * g2 - (1.0 / 16.0) * l * l;
      const double den_l = 1.0 + 0.25 * l;
      const double qsqr = num / (den_l * den_l);
      const double den = (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr));
      const double cv = 1.0 / (1.0 + den);
      if (cv_out != nullptr) cv_out[k] = cv;
      c[k] = static_cast<float>(std::clamp(cv, 0.0, 1.0));
    }
  }
}

void ref_srad_update(float* j, const float* c, const float* dn, const float* ds, const float* dw,
                     const float* de, std::size_t rows, std::size_t cols, std::size_t row_begin,
                     std::size_t row_end, std::size_t col_begin, std::size_t col_end,
                     double lambda) {
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::size_t rs = r + 1 < rows ? r + 1 : rows - 1;
    for (std::size_t col = col_begin; col < col_end; ++col) {
      const std::size_t ce = col + 1 < cols ? col + 1 : cols - 1;
      const std::size_t k = r * cols + col;
      const float cc = c[k];
      const float cs = c[rs * cols + col];
      const float ce_v = c[r * cols + ce];
      const double div = static_cast<double>(cs) * ds[k] + static_cast<double>(cc) * dn[k] +
                         static_cast<double>(ce_v) * de[k] + static_cast<double>(cc) * dw[k];
      j[k] = static_cast<float>(j[k] + 0.25 * lambda * div);
    }
  }
}

struct Tile {
  std::size_t r0, r1, c0, c1;
};

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs the `isa` variant of srad_coeff and then srad_update on `tile` of
/// the rows x cols plane `j`, and the oracles on a copy, from identical
/// sentinel-filled outputs; every plane must match bit for bit (cells
/// outside the tile included).
void expect_matches_oracle(Isa isa, const std::vector<float>& j, std::size_t rows,
                           std::size_t cols, const Tile& t, double q0sqr) {
  SCOPED_TRACE(::testing::Message() << rows << "x" << cols << " tile [" << t.r0 << "," << t.r1
                                    << ")x[" << t.c0 << "," << t.c1 << ") q0sqr " << q0sqr);
  const std::size_t cells = rows * cols;
  const auto fill = random_image(cells, 7);  // stands in for the untouched cells
  std::vector<float> c(fill), dn(fill), ds(fill), dw(fill), de(fill);
  std::vector<float> rc(fill), rdn(fill), rds(fill), rdw(fill), rde(fill);
  detail::srad_coeff(isa, j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows,
                     cols, t.r0, t.r1, t.c0, t.c1, q0sqr);
  ref_srad_coeff(j.data(), rc.data(), rdn.data(), rds.data(), rdw.data(), rde.data(), rows, cols,
                 t.r0, t.r1, t.c0, t.c1, q0sqr);
  EXPECT_TRUE(same_bits(c, rc)) << "c";
  EXPECT_TRUE(same_bits(dn, rdn)) << "dn";
  EXPECT_TRUE(same_bits(ds, rds)) << "ds";
  EXPECT_TRUE(same_bits(dw, rdw)) << "dw";
  EXPECT_TRUE(same_bits(de, rde)) << "de";

  // The update reads the coefficient of cells outside the tile (south and
  // east halo), so it runs on the full-plane outputs of the oracle.
  ref_srad_coeff(j.data(), rc.data(), rdn.data(), rds.data(), rdw.data(), rde.data(), rows, cols,
                 0, rows, 0, cols, q0sqr);
  std::vector<float> ju(j), rju(j);
  detail::srad_update(isa, ju.data(), rc.data(), rdn.data(), rds.data(), rdw.data(), rde.data(),
                      rows, cols, t.r0, t.r1, t.c0, t.c1, 0.5);
  ref_srad_update(rju.data(), rc.data(), rdn.data(), rds.data(), rdw.data(), rde.data(), rows,
                  cols, t.r0, t.r1, t.c0, t.c1, 0.5);
  EXPECT_TRUE(same_bits(ju, rju)) << "j";

  // Coefficient-derived planes zero de on the east edge, which would hide
  // a wrong east neighbour there; independent random planes do not.
  const auto pc = random_image(cells, 8), pdn = random_image(cells, 9),
             pds = random_image(cells, 10), pdw = random_image(cells, 11),
             pde = random_image(cells, 12);
  ju = j;
  rju = j;
  detail::srad_update(isa, ju.data(), pc.data(), pdn.data(), pds.data(), pdw.data(), pde.data(),
                      rows, cols, t.r0, t.r1, t.c0, t.c1, 0.5);
  ref_srad_update(rju.data(), pc.data(), pdn.data(), pds.data(), pdw.data(), pde.data(), rows,
                  cols, t.r0, t.r1, t.c0, t.c1, 0.5);
  EXPECT_TRUE(same_bits(ju, rju)) << "j from random planes";
}

std::vector<float> extracted(std::size_t cells, unsigned seed) {
  const auto img = random_image(cells, seed);
  std::vector<float> j(cells);
  srad_extract(img.data(), j.data(), 0, cells);
  return j;
}

TEST(Srad, CoeffAndUpdateMatchScalarOracleOnEdgeAndInteriorTiles) {
  // 70 rows span two kRowBand bands; 37 columns leave a vector remainder.
  const std::size_t rows = 70, cols = 37;
  const auto j = extracted(rows * cols, 11);
  double s = 0.0, s2 = 0.0;
  srad_statistics(j.data(), 0, rows * cols, &s, &s2);
  const double q0 = srad_q0sqr(s, s2, rows * cols);
  for (const Tile& t : {Tile{0, rows, 0, cols},       // whole plane: both edges
                        Tile{0, 70, 0, 10},           // touches col 0
                        Tile{3, 68, 27, cols},        // touches col cols-1
                        Tile{5, 60, 3, 30},           // interior only
                        Tile{1, 2, 1, 36},            // one interior row
                        Tile{10, 20, 0, 1},           // col 0 alone
                        Tile{10, 20, cols - 1, cols},  // col cols-1 alone
                        Tile{69, 70, 17, 18}}) {      // one cell on the south edge
    expect_matches_oracle(detail::host_isa(), j, rows, cols, t, q0);
  }
}

TEST(Srad, CoeffAndUpdateMatchScalarOracleOnDegenerateShapes) {
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{9, 1},
                                   {9, 2},
                                   {1, 19},
                                   {1, 1},
                                   {1, 2}}) {
    const auto j = extracted(rows * cols, 13);
    double s = 0.0, s2 = 0.0;
    srad_statistics(j.data(), 0, rows * cols, &s, &s2);
    const double q0 = srad_q0sqr(s, s2, rows * cols);
    expect_matches_oracle(detail::host_isa(), j, rows, cols, Tile{0, rows, 0, cols}, q0);
    expect_matches_oracle(detail::host_isa(), j, rows, cols, Tile{0, rows, cols - 1, cols}, q0);
  }
}

TEST(Srad, CoeffAndUpdateMatchScalarOracleOnNonFiniteInput) {
  // NaN, +/-inf and 0 in J poison their neighbours' gradients and the
  // coefficient (std::clamp passes a NaN through); the kernels must
  // reproduce the oracle's bits, NaNs included.
  const std::size_t rows = 12, cols = 21;
  auto j = extracted(rows * cols, 17);
  j[2 * cols + 5] = std::numeric_limits<float>::quiet_NaN();
  j[6 * cols + 11] = std::numeric_limits<float>::infinity();
  j[6 * cols + 14] = -std::numeric_limits<float>::infinity();
  j[9 * cols + 0] = std::numeric_limits<float>::quiet_NaN();
  j[4 * cols + cols - 1] = std::numeric_limits<float>::infinity();
  j[10 * cols + 8] = 0.0f;
  expect_matches_oracle(detail::host_isa(), j, rows, cols, Tile{0, rows, 0, cols}, 0.05);
  expect_matches_oracle(detail::host_isa(), j, rows, cols, Tile{1, 11, 2, 19}, 0.05);
}

// The ISA variants (kern/isa.hpp) against the oracles, each on its own.
class SradVariant : public test::IsaVariantTest {};
INSTANTIATE_TEST_SUITE_P(Isa, SradVariant, test::kIsaVariants, test::isa_variant_name);

TEST_P(SradVariant, MatchesScalarOracleOnEveryTileWidth) {
  // Widths 1..17 from three starting columns leave every remainder of the
  // 2-, 4- and 8-lane loops, against the west edge, the east edge and
  // inside; 70 rows span two kRowBand bands.
  const std::size_t rows = 70, cols = 37;
  const auto j = extracted(rows * cols, 11);
  double s = 0.0, s2 = 0.0;
  srad_statistics(j.data(), 0, rows * cols, &s, &s2);
  const double q0 = srad_q0sqr(s, s2, rows * cols);
  for (std::size_t w = 1; w <= 17; ++w) {
    expect_matches_oracle(isa(), j, rows, cols, Tile{0, rows, 0, w}, q0);
    expect_matches_oracle(isa(), j, rows, cols, Tile{2, 9, 5, 5 + w}, q0);
    expect_matches_oracle(isa(), j, rows, cols, Tile{60, rows, cols - w, cols}, q0);
  }
  // Planes one or two cells wide or tall clamp both edges of one axis.
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{9, 1}, {9, 2}, {1, 19}, {1, 1}}) {
    expect_matches_oracle(isa(), extracted(r * c, 13), r, c, Tile{0, r, 0, c}, q0);
  }
}

TEST_P(SradVariant, MatchesScalarOracleAcrossCoefficientChunks) {
  // 1100 columns take three coefficient chunks per row; the tiles start and
  // end off the chunk and vector boundaries.
  const std::size_t rows = 4, cols = 1100;
  const auto j = extracted(rows * cols, 23);
  double s = 0.0, s2 = 0.0;
  srad_statistics(j.data(), 0, rows * cols, &s, &s2);
  const double q0 = srad_q0sqr(s, s2, rows * cols);
  for (const Tile& t : {Tile{0, rows, 0, cols}, Tile{1, 3, 509, 1030}, Tile{0, rows, 1023, cols},
                        Tile{2, 3, 511, 513}}) {
    expect_matches_oracle(isa(), j, rows, cols, t, q0);
  }
}

TEST_P(SradVariant, MatchesScalarOracleOnEveryClampCase) {
  // std::clamp's four cases, each hit by some cell: q0sqr = 0.05 puts the
  // flat patch (qsqr = 0) above 1; a negative q0sqr puts every finite
  // coefficient below 0; q0sqr = -0.0 divides by -0.0, which gives -0.0
  // where qsqr > 0 and a NaN on the flat patch. The NaN, infinities and
  // zero in J add NaNs and infinite gradients.
  const std::size_t rows = 9, cols = 29;
  auto j = extracted(rows * cols, 19);
  for (std::size_t r = 2; r < 6; ++r) {
    for (std::size_t col = 10; col < 15; ++col) j[r * cols + col] = 1.5f;
  }
  j[7 * cols + 21] = std::numeric_limits<float>::quiet_NaN();
  j[1 * cols + 3] = std::numeric_limits<float>::infinity();
  j[6 * cols + 26] = -std::numeric_limits<float>::infinity();
  j[8 * cols + 0] = 0.0f;
  std::size_t nan = 0, neg_zero = 0, below = 0, above = 0;
  for (const double q0 : {0.05, -0.5, -0.0, 0.0}) {
    std::vector<float> c(rows * cols), dn(c), ds(c), dw(c), de(c);
    std::vector<double> cv(rows * cols);
    ref_srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows, cols, 0,
                   rows, 0, cols, q0, cv.data());
    for (const double v : cv) {
      nan += std::isnan(v) ? 1 : 0;
      neg_zero += v == 0.0 && std::signbit(v) ? 1 : 0;
      below += v < 0.0 ? 1 : 0;
      above += v > 1.0 ? 1 : 0;
    }
    expect_matches_oracle(isa(), j, rows, cols, Tile{0, rows, 0, cols}, q0);
    expect_matches_oracle(isa(), j, rows, cols, Tile{1, 8, 3, 26}, q0);
  }
  EXPECT_GT(nan, 0u);
  EXPECT_GT(neg_zero, 0u);
  EXPECT_GT(below, 0u);
  EXPECT_GT(above, 0u);
}

TEST(Srad, CoeffAndUpdateAllocateNothingAtOneThread) {
  // Two row bands and two coefficient chunks per row: the chunk is on the
  // stack, and for_blocked takes the band body by reference.
  const par::ThreadScope serial(1);
  const std::size_t rows = 70, cols = 600;
  auto j = extracted(rows * cols, 29);
  std::vector<float> c(rows * cols), dn(c), ds(c), dw(c), de(c);
  const std::size_t before = ms::test::alloc_count();
  srad_coeff(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows, cols, 0, rows,
             0, cols, 0.05);
  srad_update(j.data(), c.data(), dn.data(), ds.data(), dw.data(), de.data(), rows, cols, 0, rows,
              0, cols, 0.5);
  EXPECT_EQ(ms::test::alloc_count(), before);
}

TEST(Srad, WorkFormulas) {
  EXPECT_DOUBLE_EQ(srad_coeff_flops(2, 8), 22.0 * 16);
  EXPECT_DOUBLE_EQ(srad_update_flops(2, 8), 8.0 * 16);
  EXPECT_DOUBLE_EQ(srad_elems(2, 8), 6.0 * 16);
}

}  // namespace
}  // namespace ms::kern
