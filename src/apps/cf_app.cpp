#include "apps/cf_app.hpp"

#include <stdexcept>

#include "apps/tile_coherence.hpp"
#include "kern/cholesky.hpp"
#include "kern/gemm.hpp"
#include "rt/errors.hpp"

namespace ms::apps {

double CfApp::total_flops(std::size_t dim) noexcept { return kern::cholesky_flops(dim); }

std::vector<double> CfApp::pack_lower(const std::vector<double>& dense, std::size_t n,
                                      std::size_t tile) {
  return TileLayout{n / tile, true}.pack(dense, tile);
}

void CfApp::unpack_lower(const std::vector<double>& packed, std::vector<double>& dense,
                         std::size_t n, std::size_t tile) {
  TileLayout{n / tile, true}.unpack(packed, dense, tile);
}

AppResult CfApp::run(const sim::SimConfig& cfg, const CfConfig& cc) {
  const bool streamed = cc.common.streamed;
  const std::size_t tb = streamed ? cc.tile : cc.dim;
  const std::size_t n = cc.dim;
  if (tb == 0 || n % tb != 0) {
    throw std::invalid_argument("CfApp: tile must divide dim");
  }
  const std::size_t g = n / tb;

  rt::Context ctx(cfg);
  ctx.set_tracing(cc.common.tracing);
  ctx.setup(streamed ? cc.common.partitions : 1);
  const TileLayout lower{g, true};
  TileTasks tiles(ctx, lower, tb, cc.common.functional, 909, "packed-lower");

  // The whole factorization — uploads, wavefront, coherence round trips and
  // the final readback — is one replay-shaped schedule: every event it waits
  // on is produced inside the same iteration. Graph modes capture it once;
  // restart() stays outside (host bookkeeping only consulted while
  // recording).
  GraphPhase phase(ctx, cc.common.graph, "cf");

  AppResult result;
  result.ms = measure_ms(ctx, cc.common.protocol_iterations, [&](int) {
    tiles.restart();
    phase.run([&] {
      tiles.upload();
      for (std::size_t k = 0; k < g; ++k) {
        const std::size_t kk = lower.slot(k, k);
        tiles.task("potrf", kern::potrf_flops(tb), {}, kk, [tb](const TileTasks::Tiles& t) {
          if (!kern::potrf_tile(t[0], tb, tb)) {
            throw rt::Error("CfApp: matrix not positive definite");
          }
        });
        for (std::size_t i = k + 1; i < g; ++i) {
          tiles.task("trsm", kern::trsm_flops(tb, tb), {kk}, lower.slot(i, k),
                     [tb](const TileTasks::Tiles& t) {
                       kern::trsm_tile(t[0], t[1], tb, tb, tb, tb);
                     });
        }
        for (std::size_t j = k + 1; j < g; ++j) {
          const std::size_t jk = lower.slot(j, k);
          tiles.task("syrk", kern::syrk_flops(tb, tb), {jk}, lower.slot(j, j),
                     [tb](const TileTasks::Tiles& t) {
                       kern::syrk_tile(t[0], t[1], tb, tb, tb, tb);
                     });
          for (std::size_t i = j + 1; i < g; ++i) {
            tiles.task("gemm-nt", kern::gemm_flops(tb, tb, tb), {lower.slot(i, k), jk},
                       lower.slot(i, j), [tb](const TileTasks::Tiles& t) {
                         kern::gemm_nt_tile(t[0], t[1], t[2], tb, tb, tb, tb, tb, tb);
                       });
          }
        }
      }
      tiles.read_back();
    });
  });

  result.gflops = trace::gflops(total_flops(n), result.ms);
  if (cc.common.functional) {
    // Sum only the lower triangle of the factor: the packed layout holds
    // different supersets of the matrix for different tile sizes (diagonal
    // tiles carry their untouched upper parts), so a raw buffer sum would
    // not be comparable across tilings.
    const std::vector<double> dense = tiles.unpacked();
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) sum += dense[i * n + j];
    }
    result.checksum = sum;
  }
  result.timeline = std::move(ctx.timeline());
  return result;
}

}  // namespace ms::apps
