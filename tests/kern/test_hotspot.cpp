#include "kern/hotspot.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "isa_variant_test.hpp"

namespace ms::kern {
namespace {

TEST(Hotspot, UniformGridWithoutPowerRelaxesToAmbient) {
  const std::size_t n = 8;
  HotspotParams p;
  std::vector<double> t(n * n, 100.0), power(n * n, 0.0), out(n * n, 0.0);
  hotspot_step(t.data(), power.data(), out.data(), n, n, 0, n, 0, n, p);
  // With a uniform grid the neighbour terms vanish; only the ambient pull
  // remains, which moves every cell toward t_ambient (80).
  for (const double v : out) {
    EXPECT_LT(v, 100.0);
    EXPECT_GT(v, p.t_ambient);
  }
}

TEST(Hotspot, PowerHeatsTheCell) {
  const std::size_t n = 4;
  HotspotParams p;
  std::vector<double> t(n * n, p.t_ambient), power(n * n, 0.0), out(n * n, 0.0);
  power[5] = 100.0;
  hotspot_step(t.data(), power.data(), out.data(), n, n, 0, n, 0, n, p);
  EXPECT_GT(out[5], p.t_ambient);
  EXPECT_DOUBLE_EQ(out[0], p.t_ambient);  // no power, already at ambient
}

TEST(Hotspot, HeatDiffusesToNeighbors) {
  const std::size_t n = 5;
  HotspotParams p;
  std::vector<double> t(n * n, p.t_ambient), power(n * n, 0.0), out(n * n, 0.0);
  t[12] = p.t_ambient + 50.0;  // hot center
  hotspot_step(t.data(), power.data(), out.data(), n, n, 0, n, 0, n, p);
  EXPECT_LT(out[12], t[12]);               // center cools
  EXPECT_GT(out[11], p.t_ambient);         // west neighbour warms
  EXPECT_GT(out[7], p.t_ambient);          // north neighbour warms
  EXPECT_DOUBLE_EQ(out[0], p.t_ambient);   // far corner untouched
}

TEST(Hotspot, BandUpdateWritesOnlyItsRows) {
  const std::size_t n = 6;
  HotspotParams p;
  std::vector<double> t(n * n, 90.0), power(n * n, 1.0), out(n * n, -1.0);
  hotspot_step(t.data(), power.data(), out.data(), n, n, 2, 4, 0, n, p);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r >= 2 && r < 4) {
        EXPECT_NE(out[r * n + c], -1.0);
      } else {
        EXPECT_DOUBLE_EQ(out[r * n + c], -1.0);
      }
    }
  }
}

TEST(Hotspot, ColumnRangeWritesOnlyItsColumns) {
  const std::size_t n = 6;
  HotspotParams p;
  std::vector<double> t(n * n, 90.0), power(n * n, 1.0), out(n * n, -1.0);
  hotspot_step(t.data(), power.data(), out.data(), n, n, 0, n, 1, 3, p);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c >= 1 && c < 3) {
        EXPECT_NE(out[r * n + c], -1.0);
      } else {
        EXPECT_DOUBLE_EQ(out[r * n + c], -1.0);
      }
    }
  }
}

TEST(Hotspot, TiledStepEqualsWholeGridStep) {
  // The tiling the streamed app uses must be bit-identical to the
  // whole-grid kernel (tiles read the same input grid).
  const std::size_t n = 16;
  HotspotParams p;
  std::vector<double> t(n * n), power(n * n), whole(n * n, 0.0), tiled(n * n, 0.0);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(60.0, 100.0);
  for (double& x : t) x = d(rng);
  for (double& x : power) x = d(rng) * 0.01;
  hotspot_step(t.data(), power.data(), whole.data(), n, n, 0, n, 0, n, p);
  for (std::size_t r0 = 0; r0 < n; r0 += 4) {
    for (std::size_t c0 = 0; c0 < n; c0 += 8) {
      hotspot_step(t.data(), power.data(), tiled.data(), n, n, r0, r0 + 4, c0, c0 + 8, p);
    }
  }
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_DOUBLE_EQ(tiled[i], whole[i]);
}

// The plain clamped-index loop, as the exact oracle: each cell's update is
// the kernel's expression in the same operation order.
void ref_hotspot_step(const double* t_in, const double* power, double* t_out, std::size_t rows,
                      std::size_t cols, std::size_t row_begin, std::size_t row_end,
                      std::size_t col_begin, std::size_t col_end, const HotspotParams& p) {
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::size_t rn = r > 0 ? r - 1 : r;
    const std::size_t rs = r + 1 < rows ? r + 1 : r;
    for (std::size_t c = col_begin; c < col_end; ++c) {
      const std::size_t cw = c > 0 ? c - 1 : c;
      const std::size_t ce = c + 1 < cols ? c + 1 : c;
      const double t = t_in[r * cols + c];
      const double north = t_in[rn * cols + c];
      const double south = t_in[rs * cols + c];
      const double east = t_in[r * cols + ce];
      const double west = t_in[r * cols + cw];
      t_out[r * cols + c] =
          t + p.dt_over_cap * (power[r * cols + c] + (south + north - 2.0 * t) * p.ry_inv +
                               (east + west - 2.0 * t) * p.rx_inv + (p.t_ambient - t) * p.rz_inv);
    }
  }
}

// The ISA variants (kern/isa.hpp) against the oracle.
class HotspotVariant : public test::IsaVariantTest {};
INSTANTIATE_TEST_SUITE_P(Isa, HotspotVariant, test::kIsaVariants, test::isa_variant_name);

TEST_P(HotspotVariant, MatchesScalarOracleOnEveryTileWidth) {
  // Widths 1..9 from the west edge, inside and against the east edge leave
  // every remainder of the 2- and 4-lane loops; 70 rows span two kRowBand
  // bands; 1- and 2-column grids clamp both edges at once. The update term
  // is as large as the temperature, so a product rounded differently (an
  // FMA) shows in the result instead of vanishing in the final add.
  const HotspotParams p{.dt_over_cap = 0.7, .rx_inv = 0.3, .ry_inv = 0.45, .rz_inv = 0.2,
                        .t_ambient = 0.1};
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{70, 23}, {5, 1}, {5, 2}}) {
    std::mt19937 rng(static_cast<unsigned>(rows * 100 + cols));
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    std::vector<double> t(rows * cols), power(rows * cols);
    for (double& x : t) x = d(rng);
    for (double& x : power) x = d(rng);
    for (std::size_t w = 1; w <= 9 && w <= cols; ++w) {
      for (const std::size_t c0 : {std::size_t{0}, (cols - w) / 2, cols - w}) {
        SCOPED_TRACE(::testing::Message() << rows << "x" << cols << " columns [" << c0 << ","
                                          << c0 + w << ")");
        std::vector<double> got(rows * cols, -1.0), want(rows * cols, -1.0);
        detail::hotspot_step(isa(), t.data(), power.data(), got.data(), rows, cols, 0, rows, c0,
                             c0 + w, p);
        ref_hotspot_step(t.data(), power.data(), want.data(), rows, cols, 0, rows, c0, c0 + w, p);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
      }
    }
  }
}

TEST(Hotspot, WorkFormulas) {
  EXPECT_DOUBLE_EQ(hotspot_elems(4, 8), 6.0 * 32);
  EXPECT_DOUBLE_EQ(hotspot_flops(4, 8), 12.0 * 32);
}

}  // namespace
}  // namespace ms::kern
