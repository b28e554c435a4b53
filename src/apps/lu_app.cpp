#include "apps/lu_app.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/tile_coherence.hpp"
#include "kern/gemm.hpp"
#include "kern/lu.hpp"
#include "rt/errors.hpp"

namespace ms::apps {

double LuApp::total_flops(std::size_t dim) noexcept { return kern::getrf_flops(dim); }

std::vector<double> LuApp::pack_tiles(const std::vector<double>& dense, std::size_t n,
                                      std::size_t tile) {
  const std::size_t g = n / tile;
  std::vector<double> packed(g * g * tile * tile);
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      double* dst = packed.data() + (i * g + j) * tile * tile;
      for (std::size_t r = 0; r < tile; ++r) {
        const double* src = dense.data() + (i * tile + r) * n + j * tile;
        std::copy(src, src + tile, dst + r * tile);
      }
    }
  }
  return packed;
}

void LuApp::unpack_tiles(const std::vector<double>& packed, std::vector<double>& dense,
                         std::size_t n, std::size_t tile) {
  const std::size_t g = n / tile;
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      const double* src = packed.data() + (i * g + j) * tile * tile;
      for (std::size_t r = 0; r < tile; ++r) {
        std::copy(src + r * tile, src + (r + 1) * tile,
                  dense.data() + (i * tile + r) * n + j * tile);
      }
    }
  }
}

AppResult LuApp::run(const sim::SimConfig& cfg, const LuConfig& lc) {
  const bool streamed = lc.common.streamed;
  const std::size_t tb = streamed ? lc.tile : lc.dim;
  const std::size_t n = lc.dim;
  if (tb == 0 || n % tb != 0) {
    throw std::invalid_argument("LuApp: tile must divide dim");
  }
  const std::size_t g = n / tb;
  const std::size_t slots = g * g;
  const std::size_t tile_elems = tb * tb;
  const std::size_t tile_bytes = tile_elems * sizeof(double);

  rt::Context ctx(cfg);
  ctx.set_tracing(lc.common.tracing);
  const int partitions = streamed ? lc.common.partitions : 1;
  ctx.setup(partitions);
  const int devices = ctx.device_count();
  const int streams = ctx.stream_count();

  std::vector<double> packed;
  rt::BufferId bmat;
  if (lc.common.functional) {
    std::vector<double> dense(n * n);
    // Diagonally dominant => unpivoted LU is stable.
    fill_spd(std::span<double>(dense), n, 1313);
    bmat = ctx.create_buffer(std::span<double>(packed = pack_tiles(dense, n, tb)));
  } else {
    bmat = ctx.create_virtual_buffer(slots * tile_bytes);
  }
  ctx.name_buffer(bmat, "packed-tiles");
  const std::vector<double> packed_seed = packed;

  std::vector<rt::Stream*> io;
  io.reserve(static_cast<std::size_t>(devices));
  for (int dev = 0; dev < devices; ++dev) {
    io.push_back(&ctx.add_stream(dev, 0));
  }
  TileCoherence coherence(ctx, bmat, tile_bytes, io);
  for (std::size_t s = 0; s < slots; ++s) coherence.track(s);

  auto slot_of = [g](std::size_t i, std::size_t j) { return i * g + j; };
  auto owner_stream = [&](std::size_t slot) -> rt::Stream& {
    return ctx.stream(static_cast<int>(slot % static_cast<std::size_t>(streams)));
  };
  auto owner_device = [&](std::size_t slot) {
    return static_cast<int>(slot % static_cast<std::size_t>(streams)) / partitions;
  };
  auto task_work = [&](double flops) {
    sim::KernelWork w;
    w.kind = sim::KernelKind::CholeskyTask;  // same cost class: dense tile task
    w.flops = flops;
    w.elems = static_cast<double>(3 * tile_elems);
    return w;
  };
  auto tile_ptr = [&ctx, bmat, tile_elems](int dev, std::size_t slot) {
    return ctx.device_ptr<double>(bmat, dev, slot * tile_elems);
  };

  // As in CfApp: the whole factorization is one replay-shaped schedule, so
  // graph modes capture the entire body once and replay it per iteration.
  GraphPhase phase(ctx, lc.common.graph, "lu");

  AppResult result;
  result.ms = measure_ms(ctx, lc.common.protocol_iterations, [&](int) {
    if (lc.common.functional) {
      std::copy(packed_seed.begin(), packed_seed.end(), packed.begin());
    }
    coherence.reset();

    phase.run([&] {
    // Upload in column-major consumption order.
    for (std::size_t j = 0; j < g; ++j) {
      for (std::size_t i = 0; i < g; ++i) {
        const std::size_t s = slot_of(i, j);
        const int dev = owner_device(s);
        const rt::Event ev =
            io[static_cast<std::size_t>(dev)]->enqueue_h2d(bmat, s * tile_bytes, tile_bytes);
        coherence.wrote(s, dev, ev);
      }
    }

    const bool functional = lc.common.functional;
    for (std::size_t k = 0; k < g; ++k) {
      const std::size_t kk = slot_of(k, k);
      const int dev_kk = owner_device(kk);

      rt::KernelLaunch getrf{"getrf", task_work(kern::getrf_flops(tb)), {}};
      getrf.reads_writes(bmat, kk * tile_bytes, tile_bytes);
      if (functional) {
        getrf.fn = [tile_ptr, dev_kk, kk, tb] {
          if (!kern::getrf_tile(tile_ptr(dev_kk, kk), tb, tb)) {
            throw rt::Error("LuApp: zero pivot (matrix not diagonally dominant?)");
          }
        };
      }
      const rt::Event ev_getrf =
          owner_stream(kk).enqueue_kernel(std::move(getrf), {coherence.ensure_on(kk, dev_kk)});
      coherence.wrote(kk, dev_kk, ev_getrf);

      // Row panel: (k, j) for j > k gets L^{-1} applied.
      for (std::size_t j = k + 1; j < g; ++j) {
        const std::size_t kj = slot_of(k, j);
        const int dev = owner_device(kj);
        rt::KernelLaunch trsm{"trsm-l", task_work(kern::lu_trsm_flops(tb, tb)), {}};
        trsm.reads(bmat, kk * tile_bytes, tile_bytes);
        trsm.reads_writes(bmat, kj * tile_bytes, tile_bytes);
        if (functional) {
          trsm.fn = [tile_ptr, dev, kk, kj, tb] {
            kern::trsm_lower_left(tile_ptr(dev, kk), tile_ptr(dev, kj), tb, tb, tb, tb);
          };
        }
        const rt::Event ev = owner_stream(kj).enqueue_kernel(
            std::move(trsm), {coherence.ensure_on(kk, dev), coherence.ensure_on(kj, dev)});
        coherence.wrote(kj, dev, ev);
      }
      // Column panel: (i, k) for i > k gets U^{-1} applied.
      for (std::size_t i = k + 1; i < g; ++i) {
        const std::size_t ik = slot_of(i, k);
        const int dev = owner_device(ik);
        rt::KernelLaunch trsm{"trsm-u", task_work(kern::lu_trsm_flops(tb, tb)), {}};
        trsm.reads(bmat, kk * tile_bytes, tile_bytes);
        trsm.reads_writes(bmat, ik * tile_bytes, tile_bytes);
        if (functional) {
          trsm.fn = [tile_ptr, dev, kk, ik, tb] {
            kern::trsm_upper_right(tile_ptr(dev, kk), tile_ptr(dev, ik), tb, tb, tb, tb);
          };
        }
        const rt::Event ev = owner_stream(ik).enqueue_kernel(
            std::move(trsm), {coherence.ensure_on(kk, dev), coherence.ensure_on(ik, dev)});
        coherence.wrote(ik, dev, ev);
      }
      // Trailing update.
      for (std::size_t i = k + 1; i < g; ++i) {
        for (std::size_t j = k + 1; j < g; ++j) {
          const std::size_t ij = slot_of(i, j);
          const std::size_t ik = slot_of(i, k);
          const std::size_t kj = slot_of(k, j);
          const int dev = owner_device(ij);
          rt::KernelLaunch gemm{"gemm-nn", task_work(kern::gemm_flops(tb, tb, tb)), {}};
          gemm.reads(bmat, ik * tile_bytes, tile_bytes);
          gemm.reads(bmat, kj * tile_bytes, tile_bytes);
          gemm.reads_writes(bmat, ij * tile_bytes, tile_bytes);
          if (functional) {
            gemm.fn = [tile_ptr, dev, ij, ik, kj, tb] {
              kern::gemm_nn_sub(tile_ptr(dev, ik), tile_ptr(dev, kj), tile_ptr(dev, ij), tb, tb,
                                tb, tb, tb, tb);
            };
          }
          const rt::Event ev = owner_stream(ij).enqueue_kernel(
              std::move(gemm), {coherence.ensure_on(ik, dev), coherence.ensure_on(kj, dev),
                                coherence.ensure_on(ij, dev)});
          coherence.wrote(ij, dev, ev);
        }
      }
    }

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
  if (lc.common.functional) {
    std::vector<double> dense(n * n, 0.0);
    unpack_tiles(packed, dense, n, tb);
    result.checksum = checksum(std::span<const double>(dense));
  }
  result.timeline = std::move(ctx.timeline());
  return result;
}

}  // namespace ms::apps
