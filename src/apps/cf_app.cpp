#include "apps/cf_app.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/tile_coherence.hpp"
#include "kern/cholesky.hpp"
#include "kern/gemm.hpp"
#include "rt/errors.hpp"

namespace ms::apps {

double CfApp::total_flops(std::size_t dim) noexcept { return kern::cholesky_flops(dim); }

std::vector<double> CfApp::pack_lower(const std::vector<double>& dense, std::size_t n,
                                      std::size_t tile) {
  const std::size_t g = n / tile;
  std::vector<double> packed(lower_tile_slot(g - 1, g - 1) * tile * tile + tile * tile);
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double* dst = packed.data() + lower_tile_slot(i, j) * tile * tile;
      for (std::size_t r = 0; r < tile; ++r) {
        const double* src = dense.data() + (i * tile + r) * n + j * tile;
        std::copy(src, src + tile, dst + r * tile);
      }
    }
  }
  return packed;
}

void CfApp::unpack_lower(const std::vector<double>& packed, std::vector<double>& dense,
                         std::size_t n, std::size_t tile) {
  const std::size_t g = n / tile;
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double* src = packed.data() + lower_tile_slot(i, j) * tile * tile;
      for (std::size_t r = 0; r < tile; ++r) {
        std::copy(src + r * tile, src + (r + 1) * tile,
                  dense.data() + (i * tile + r) * n + j * tile);
      }
    }
  }
}

AppResult CfApp::run(const sim::SimConfig& cfg, const CfConfig& cc) {
  const bool streamed = cc.common.streamed;
  const std::size_t tb = streamed ? cc.tile : cc.dim;
  const std::size_t n = cc.dim;
  if (tb == 0 || n % tb != 0) {
    throw std::invalid_argument("CfApp: tile must divide dim");
  }
  const std::size_t g = n / tb;
  const std::size_t slots = g * (g + 1) / 2;
  const std::size_t tile_elems = tb * tb;
  const std::size_t tile_bytes = tile_elems * sizeof(double);

  rt::Context ctx(cfg);
  ctx.set_tracing(cc.common.tracing);
  const int partitions = streamed ? cc.common.partitions : 1;
  ctx.setup(partitions);
  const int devices = ctx.device_count();
  const int streams = ctx.stream_count();

  std::vector<double> packed;
  rt::BufferId bmat;
  if (cc.common.functional) {
    std::vector<double> dense(n * n);
    fill_spd(std::span<double>(dense), n, 909);
    packed = pack_lower(dense, n, tb);
    bmat = ctx.create_buffer(std::span<double>(packed));
  } else {
    bmat = ctx.create_virtual_buffer(slots * tile_bytes);
  }
  ctx.name_buffer(bmat, "packed-lower");
  const std::vector<double> packed_seed = packed;

  // Dedicated transfer stream per card: the initial tile uploads and the
  // cross-card coherence round trips must keep flowing while the
  // factorization wavefront computes.
  std::vector<rt::Stream*> io;
  io.reserve(static_cast<std::size_t>(devices));
  for (int dev = 0; dev < devices; ++dev) {
    io.push_back(&ctx.add_stream(dev, 0));
  }

  TileCoherence coherence(ctx, bmat, tile_bytes, io);
  for (std::size_t s = 0; s < slots; ++s) coherence.track(s);

  // Task -> stream placement: tiles round-robin over all streams (and thus
  // over all cards in the Section VI configuration). Round-robin keeps the
  // triangular trailing-update load balanced across cards; a block-row
  // split would put ~3/4 of the flops on the last card.
  auto owner_stream = [&](std::size_t slot) -> rt::Stream& {
    return ctx.stream(static_cast<int>(slot % static_cast<std::size_t>(streams)));
  };
  auto owner_device = [&](std::size_t slot) {
    return static_cast<int>(slot % static_cast<std::size_t>(streams)) / partitions;
  };

  auto task_work = [&](double flops) {
    sim::KernelWork w;
    w.kind = sim::KernelKind::CholeskyTask;
    w.flops = flops;
    w.elems = static_cast<double>(3 * tile_elems);
    return w;
  };

  auto tile_ptr = [&ctx, bmat, tile_elems](int dev, std::size_t slot) {
    return ctx.device_ptr<double>(bmat, dev, slot * tile_elems);
  };

  // The whole factorization — uploads, wavefront, coherence round trips and
  // the final readback — is one replay-shaped schedule: every event it waits
  // on is produced inside the same iteration. Graph modes capture it once;
  // the coherence reset stays outside (host bookkeeping only consulted while
  // recording).
  GraphPhase phase(ctx, cc.common.graph, "cf");

  AppResult result;
  result.ms = measure_ms(ctx, cc.common.protocol_iterations, [&](int) {
    if (cc.common.functional) {
      std::copy(packed_seed.begin(), packed_seed.end(), packed.begin());
    }
    coherence.reset();

    phase.run([&] {
    // Upload every lower tile to its owning card via the transfer stream,
    // in column-major order — the order the factorization wavefront consumes
    // them, so step 0 can start after g uploads instead of all of them.
    for (std::size_t j = 0; j < g; ++j) {
      for (std::size_t i = j; i < g; ++i) {
        const std::size_t s = lower_tile_slot(i, j);
        const int dev = owner_device(s);
        const rt::Event ev =
            io[static_cast<std::size_t>(dev)]->enqueue_h2d(bmat, s * tile_bytes, tile_bytes);
        coherence.wrote(s, dev, ev);
      }
    }

    const bool functional = cc.common.functional;
    for (std::size_t k = 0; k < g; ++k) {
      const std::size_t kk = lower_tile_slot(k, k);
      const int dev_kk = owner_device(kk);

      rt::KernelLaunch potrf{"potrf", task_work(kern::potrf_flops(tb)), {}};
      potrf.reads_writes(bmat, kk * tile_bytes, tile_bytes);
      if (functional) {
        potrf.fn = [tile_ptr, dev_kk, kk, tb] {
          if (!kern::potrf_tile(tile_ptr(dev_kk, kk), tb, tb)) {
            throw rt::Error("CfApp: matrix not positive definite");
          }
        };
      }
      const rt::Event ev_potrf =
          owner_stream(kk).enqueue_kernel(std::move(potrf), {coherence.ensure_on(kk, dev_kk)});
      coherence.wrote(kk, dev_kk, ev_potrf);

      std::vector<rt::Event> ev_trsm(g);
      for (std::size_t i = k + 1; i < g; ++i) {
        const std::size_t ik = lower_tile_slot(i, k);
        const int dev = owner_device(ik);
        rt::KernelLaunch trsm{"trsm", task_work(kern::trsm_flops(tb, tb)), {}};
        trsm.reads(bmat, kk * tile_bytes, tile_bytes);
        trsm.reads_writes(bmat, ik * tile_bytes, tile_bytes);
        if (functional) {
          trsm.fn = [tile_ptr, dev, kk, ik, tb] {
            kern::trsm_tile(tile_ptr(dev, kk), tile_ptr(dev, ik), tb, tb, tb, tb);
          };
        }
        ev_trsm[i] = owner_stream(ik).enqueue_kernel(
            std::move(trsm), {coherence.ensure_on(kk, dev), coherence.ensure_on(ik, dev)});
        coherence.wrote(ik, dev, ev_trsm[i]);
      }

      for (std::size_t j = k + 1; j < g; ++j) {
        for (std::size_t i = j; i < g; ++i) {
          const std::size_t ij = lower_tile_slot(i, j);
          const std::size_t ik = lower_tile_slot(i, k);
          const std::size_t jk = lower_tile_slot(j, k);
          const int dev = owner_device(ij);
          rt::Event ev;
          if (i == j) {
            rt::KernelLaunch syrk{"syrk", task_work(kern::syrk_flops(tb, tb)), {}};
            syrk.reads(bmat, jk * tile_bytes, tile_bytes);
            syrk.reads_writes(bmat, ij * tile_bytes, tile_bytes);
            if (functional) {
              syrk.fn = [tile_ptr, dev, ij, jk, tb] {
                kern::syrk_tile(tile_ptr(dev, jk), tile_ptr(dev, ij), tb, tb, tb, tb);
              };
            }
            ev = owner_stream(ij).enqueue_kernel(
                std::move(syrk), {coherence.ensure_on(jk, dev), coherence.ensure_on(ij, dev)});
          } else {
            rt::KernelLaunch gemm{"gemm-nt", task_work(kern::gemm_flops(tb, tb, tb)), {}};
            gemm.reads(bmat, ik * tile_bytes, tile_bytes);
            gemm.reads(bmat, jk * tile_bytes, tile_bytes);
            gemm.reads_writes(bmat, ij * tile_bytes, tile_bytes);
            if (functional) {
              gemm.fn = [tile_ptr, dev, ij, ik, jk, tb] {
                kern::gemm_nt_tile(tile_ptr(dev, ik), tile_ptr(dev, jk), tile_ptr(dev, ij), tb,
                                   tb, tb, tb, tb, tb);
              };
            }
            ev = owner_stream(ij).enqueue_kernel(
                std::move(gemm), {coherence.ensure_on(ik, dev), coherence.ensure_on(jk, dev),
                                  coherence.ensure_on(ij, dev)});
          }
          coherence.wrote(ij, dev, ev);
        }
      }
    }

    // Factor tiles back to the host from whichever card last wrote them,
    // ordered against the coherence layer's own host-range round trips.
    for (std::size_t s = 0; s < slots; ++s) {
      const int dev = coherence.last_writer(s);
      const rt::Event ev =
          ctx.stream(dev, static_cast<int>(s) % partitions)
              .enqueue_d2h(bmat, s * tile_bytes, tile_bytes, coherence.readback_deps(s));
      coherence.read_back(s, ev);
    }
    });
  });

  result.gflops = trace::gflops(total_flops(n), result.ms);
  if (cc.common.functional) {
    // Sum only the lower triangle of the factor: the packed layout holds
    // different supersets of the matrix for different tile sizes (diagonal
    // tiles carry their untouched upper parts), so a raw buffer sum would
    // not be comparable across tilings.
    std::vector<double> dense(n * n, 0.0);
    unpack_lower(packed, dense, n, tb);
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
