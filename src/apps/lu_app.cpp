#include "apps/lu_app.hpp"

#include <stdexcept>

#include "apps/tile_coherence.hpp"
#include "kern/gemm.hpp"
#include "kern/lu.hpp"
#include "rt/errors.hpp"

namespace ms::apps {

double LuApp::total_flops(std::size_t dim) noexcept { return kern::getrf_flops(dim); }

std::vector<double> LuApp::pack_tiles(const std::vector<double>& dense, std::size_t n,
                                      std::size_t tile) {
  return TileLayout{n / tile, false}.pack(dense, tile);
}

void LuApp::unpack_tiles(const std::vector<double>& packed, std::vector<double>& dense,
                         std::size_t n, std::size_t tile) {
  TileLayout{n / tile, false}.unpack(packed, dense, tile);
}

AppResult LuApp::run(const sim::SimConfig& cfg, const LuConfig& lc) {
  const bool streamed = lc.common.streamed;
  const std::size_t tb = streamed ? lc.tile : lc.dim;
  const std::size_t n = lc.dim;
  if (tb == 0 || n % tb != 0) {
    throw std::invalid_argument("LuApp: tile must divide dim");
  }
  const std::size_t g = n / tb;

  rt::Context ctx(cfg);
  ctx.set_tracing(lc.common.tracing);
  ctx.setup(streamed ? lc.common.partitions : 1);
  // Diagonally dominant => unpivoted LU is stable.
  const TileLayout grid{g, false};
  TileTasks tiles(ctx, grid, tb, lc.common.functional, 1313, "packed-tiles");

  // As in CfApp: the whole factorization is one replay-shaped schedule, so
  // graph modes capture the entire body once and replay it per iteration.
  GraphPhase phase(ctx, lc.common.graph, "lu");

  AppResult result;
  result.ms = measure_ms(ctx, lc.common.protocol_iterations, [&](int) {
    tiles.restart();
    phase.run([&] {
      tiles.upload();
      for (std::size_t k = 0; k < g; ++k) {
        const std::size_t kk = grid.slot(k, k);
        tiles.task("getrf", kern::getrf_flops(tb), {}, kk, [tb](const TileTasks::Tiles& t) {
          if (!kern::getrf_tile(t[0], tb, tb)) {
            throw rt::Error("LuApp: zero pivot (matrix not diagonally dominant?)");
          }
        });
        // Row panel: (k, j) for j > k gets L^{-1} applied.
        for (std::size_t j = k + 1; j < g; ++j) {
          tiles.task("trsm-l", kern::lu_trsm_flops(tb, tb), {kk}, grid.slot(k, j),
                     [tb](const TileTasks::Tiles& t) {
                       kern::trsm_lower_left(t[0], t[1], tb, tb, tb, tb);
                     });
        }
        // Column panel: (i, k) for i > k gets U^{-1} applied.
        for (std::size_t i = k + 1; i < g; ++i) {
          tiles.task("trsm-u", kern::lu_trsm_flops(tb, tb), {kk}, grid.slot(i, k),
                     [tb](const TileTasks::Tiles& t) {
                       kern::trsm_upper_right(t[0], t[1], tb, tb, tb, tb);
                     });
        }
        // Trailing update.
        for (std::size_t i = k + 1; i < g; ++i) {
          for (std::size_t j = k + 1; j < g; ++j) {
            tiles.task("gemm-nn", kern::gemm_flops(tb, tb, tb), {grid.slot(i, k), grid.slot(k, j)},
                       grid.slot(i, j), [tb](const TileTasks::Tiles& t) {
                         kern::gemm_nn_sub(t[0], t[1], t[2], tb, tb, tb, tb, tb, tb);
                       });
          }
        }
      }
      tiles.read_back();
    });
  });

  result.gflops = trace::gflops(total_flops(n), result.ms);
  if (lc.common.functional) {
    const std::vector<double> dense = tiles.unpacked();
    result.checksum = checksum(std::span<const double>(dense));
  }
  result.timeline = std::move(ctx.timeline());
  return result;
}

}  // namespace ms::apps
