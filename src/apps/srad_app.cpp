#include "apps/srad_app.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kern/srad.hpp"
#include "rt/tile_plan.hpp"

namespace ms::apps {

AppResult SradApp::run(const sim::SimConfig& cfg, const SradConfig& sc) {
  const bool streamed = sc.common.streamed;
  const std::size_t trows = streamed ? sc.tile_rows : sc.rows;
  const std::size_t tcols = streamed ? sc.tile_cols : sc.cols;

  rt::Context ctx(cfg);
  ctx.set_tracing(sc.common.tracing);
  ctx.setup(streamed ? sc.common.partitions : 1);
  const int streams = ctx.stream_count();

  const std::size_t cells = sc.rows * sc.cols;

  std::vector<float> image, j_host;

  const auto tiles = rt::grid_tiles(sc.rows, sc.cols, trows, tcols);
  const std::size_t tiles_per_row = (sc.cols + tcols - 1) / tcols;
  const std::size_t tile_rows_count = (sc.rows + trows - 1) / trows;
  auto tile_index = [&](std::size_t tr, std::size_t tc) { return tr * tiles_per_row + tc; };

  const rt::BufferId bimg = app_buffer(ctx, sc.common.functional, image, cells, "image");
  const rt::BufferId bj = app_buffer(ctx, sc.common.functional, j_host, cells, "J");
  if (sc.common.functional) fill_uniform(std::span<float>(image), 77, 10.0f, 200.0f);
  // Scratch planes (coefficient + four derivatives). The *cost* of their
  // repeated allocation is charged per kernel launch via temp_alloc_bytes;
  // functionally they are plain persistent planes.
  std::vector<float> c_host, dn_host, ds_host, dw_host, de_host;
  std::vector<double> part_host;
  const rt::BufferId bc = app_buffer(ctx, sc.common.functional, c_host, cells, "coeff");
  const rt::BufferId bdn = app_buffer(ctx, sc.common.functional, dn_host, cells, "dN");
  const rt::BufferId bds = app_buffer(ctx, sc.common.functional, ds_host, cells, "dS");
  const rt::BufferId bdw = app_buffer(ctx, sc.common.functional, dw_host, cells, "dW");
  const rt::BufferId bde = app_buffer(ctx, sc.common.functional, de_host, cells, "dE");
  const rt::BufferId bpart =
      app_buffer(ctx, sc.common.functional, part_host, tiles.size() * 2, "partials");

  const std::vector<float> image_seed = image;
  const std::size_t rows = sc.rows;
  const std::size_t cols = sc.cols;

  // Four replay-shaped phases, split at the host's mid-iteration q0sqr
  // reduction: extraction, the per-iteration statistics sweep, the
  // per-iteration diffusion sweep (coeff + update), and compression. In the
  // graph modes, dependency events that cross a phase boundary are dropped:
  // tile t's kernels land on stream t % streams in every phase, so the
  // ordering those events express is already implied by stream FIFO order
  // (and a phantom event must not leak into a different capture anyway).
  const bool graphed = sc.common.graph != GraphMode::Direct;
  GraphPhase extract_phase(ctx, sc.common.graph, "srad-extract");
  GraphPhase stats_phase(ctx, sc.common.graph, "srad-stats");
  GraphPhase diffusion_phase(ctx, sc.common.graph, "srad-diffusion");
  GraphPhase compress_phase(ctx, sc.common.graph, "srad-compress");
  // The diffusion coefficient depends on this iteration's q0sqr, a host
  // value. Kernels read it through this persistent slot so a captured
  // functor replays with the *current* value instead of a stale by-value
  // copy from capture time.
  double q0sqr_slot = 1.0;

  AppResult result;
  result.ms = measure_ms(ctx, sc.common.protocol_iterations, [&](int) {
    if (sc.common.functional) {
      std::copy(image_seed.begin(), image_seed.end(), image.begin());
    }

    // Image extraction: I -> J = exp(I/255), tile by tile, pipelined with
    // the input transfers (row bands).
    const auto bands = rt::split_chunks(rows, trows);
    std::vector<rt::Event> band_ev(bands.size());
    std::vector<rt::Event> update_ev(tiles.size());
    extract_phase.run([&] {
    for (std::size_t b = 0; b < bands.size(); ++b) {
      band_ev[b] = ctx.stream(static_cast<int>(b) % streams)
                       .enqueue_h2d(bimg, bands[b].begin * cols * sizeof(float),
                                    bands[b].size() * cols * sizeof(float));
    }

    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const rt::Tile2D tile = tiles[t];
      const std::size_t tr = t / tiles_per_row;
      sim::KernelWork work;
      work.kind = sim::KernelKind::Streaming;
      work.elems = static_cast<double>(tile.elems());
      rt::KernelLaunch launch{"srad-extract", work, {}, {}};
      launch.reads(bimg, tile_range(tile, cols, sizeof(float)));
      launch.writes(bj, tile_range(tile, cols, sizeof(float)));
      if (sc.common.functional) {
        launch.fn = [&ctx, bimg, bj, tile, cols] {
          const float* img = ctx.device_ptr<float>(bimg, 0);
          float* j = ctx.device_ptr<float>(bj, 0);
          kern::srad_extract_2d(img, j, cols, tile.row_begin, tile.row_end, tile.col_begin,
                                tile.col_end);
        };
      }
      update_ev[t] = ctx.stream(static_cast<int>(t) % streams)
                         .enqueue_kernel(std::move(launch), {band_ev[tr]});
    }
    });

    for (int it = 0; it < sc.iterations; ++it) {
      // --- statistics: per-tile partial sums, small D2H, host reduce -------
      stats_phase.run([&] {
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        const rt::Tile2D tile = tiles[t];
        rt::Stream& s = ctx.stream(static_cast<int>(t) % streams);
        sim::KernelWork work;
        work.kind = sim::KernelKind::Reduction;
        work.elems = static_cast<double>(tile.elems());
        work.flops = 2.0 * static_cast<double>(tile.elems());
        rt::KernelLaunch launch{"srad-stats", work, {}, {}};
        launch.reads(bj, tile_range(tile, cols, sizeof(float)));
        launch.writes(bpart, t * 2 * sizeof(double), 2 * sizeof(double));
        if (sc.common.functional) {
          launch.fn = [&ctx, bj, bpart, tile, cols, t] {
            const float* j = ctx.device_ptr<float>(bj, 0);
            double sum = 0.0;
            double sum2 = 0.0;
            kern::srad_statistics_2d(j, cols, tile.row_begin, tile.row_end, tile.col_begin,
                                     tile.col_end, &sum, &sum2);
            auto* out = ctx.device_ptr<double>(bpart, 0, t * 2);
            out[0] = sum;
            out[1] = sum2;
          };
        }
        // The cross-phase dep on the previous update (or extract) kernel is
        // same-stream in graph modes: FIFO order already provides it.
        s.enqueue_kernel(std::move(launch), graphed ? rt::Deps{} : rt::Deps{update_ev[t]});
        s.enqueue_d2h(bpart, t * 2 * sizeof(double), 2 * sizeof(double));
      }
      });
      // Host needs the statistics before it can launch the next kernels:
      // the explicit mid-iteration barrier that kills overlap.
      ctx.synchronize();

      q0sqr_slot = 1.0;
      if (sc.common.functional) {
        double sum = 0.0;
        double sum2 = 0.0;
        for (std::size_t t = 0; t < tiles.size(); ++t) {
          sum += part_host[t * 2];
          sum2 += part_host[t * 2 + 1];
        }
        q0sqr_slot = kern::srad_q0sqr(sum, sum2, cells);
      }

      // --- diffusion coefficient ------------------------------------------
      diffusion_phase.run([&] {
      std::vector<rt::Event> coeff_ev(tiles.size());
      std::vector<rt::Event> deps;  // refilled per tile; self plus 4 neighbours
      deps.reserve(5);
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        const rt::Tile2D tile = tiles[t];
        sim::KernelWork work;
        work.kind = sim::KernelKind::Stencil;
        work.elems = kern::srad_elems(tile.rows(), tile.cols());
        work.flops = kern::srad_coeff_flops(tile.rows(), tile.cols());
        // The per-launch scratch: the four derivative planes for this tile.
        work.temp_alloc_bytes = 4.0 * static_cast<double>(tile.elems() * sizeof(float));
        rt::KernelLaunch launch{"srad-coeff", work, {}, {}};
        declare_cross_reads(launch, bj, tile, rows, cols, sizeof(float));
        launch.writes(bc, tile_range(tile, cols, sizeof(float)));
        launch.writes(bdn, tile_range(tile, cols, sizeof(float)));
        launch.writes(bds, tile_range(tile, cols, sizeof(float)));
        launch.writes(bdw, tile_range(tile, cols, sizeof(float)));
        launch.writes(bde, tile_range(tile, cols, sizeof(float)));
        if (sc.common.functional) {
          launch.fn = [&ctx, bj, bc, bdn, bds, bdw, bde, tile, rows, cols, q0 = &q0sqr_slot] {
            kern::srad_coeff(ctx.device_ptr<float>(bj, 0), ctx.device_ptr<float>(bc, 0),
                             ctx.device_ptr<float>(bdn, 0), ctx.device_ptr<float>(bds, 0),
                             ctx.device_ptr<float>(bdw, 0), ctx.device_ptr<float>(bde, 0), rows,
                             cols, tile.row_begin, tile.row_end, tile.col_begin, tile.col_end,
                             *q0);
          };
        }
        coeff_ev[t] =
            ctx.stream(static_cast<int>(t) % streams).enqueue_kernel(std::move(launch));
      }

      // --- divergence update --------------------------------------------
      // Reads the coefficient of self/south/east; writes J, whose halo the
      // coeff kernels of all four neighbours read. Depending on every
      // neighbour's coeff kernel covers both hazards.
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        const rt::Tile2D tile = tiles[t];
        const std::size_t tr = t / tiles_per_row;
        const std::size_t tc = t % tiles_per_row;
        deps.assign(1, coeff_ev[t]);
        if (tr > 0) deps.push_back(coeff_ev[tile_index(tr - 1, tc)]);
        if (tc > 0) deps.push_back(coeff_ev[tile_index(tr, tc - 1)]);
        if (tr + 1 < tile_rows_count) deps.push_back(coeff_ev[tile_index(tr + 1, tc)]);
        if (tc + 1 < tiles_per_row) deps.push_back(coeff_ev[tile_index(tr, tc + 1)]);

        sim::KernelWork work;
        work.kind = sim::KernelKind::Stencil;
        work.elems = kern::srad_elems(tile.rows(), tile.cols());
        work.flops = kern::srad_update_flops(tile.rows(), tile.cols());
        rt::KernelLaunch launch{"srad-update", work, {}, {}};
        launch.reads(bc, tile_range(tile, cols, sizeof(float)));
        if (tile.row_end < rows) {
          launch.reads(bc, rt::MemRange::tile(tile.row_end, tile.row_end + 1, tile.col_begin,
                                              tile.col_end, cols, sizeof(float)));
        }
        if (tile.col_end < cols) {
          launch.reads(bc, rt::MemRange::tile(tile.row_begin, tile.row_end, tile.col_end,
                                              tile.col_end + 1, cols, sizeof(float)));
        }
        launch.reads(bdn, tile_range(tile, cols, sizeof(float)));
        launch.reads(bds, tile_range(tile, cols, sizeof(float)));
        launch.reads(bdw, tile_range(tile, cols, sizeof(float)));
        launch.reads(bde, tile_range(tile, cols, sizeof(float)));
        launch.reads_writes(bj, tile_range(tile, cols, sizeof(float)));
        if (sc.common.functional) {
          const double lambda = sc.lambda;
          launch.fn = [&ctx, bj, bc, bdn, bds, bdw, bde, tile, rows, cols, lambda] {
            kern::srad_update(ctx.device_ptr<float>(bj, 0), ctx.device_ptr<float>(bc, 0),
                              ctx.device_ptr<float>(bdn, 0), ctx.device_ptr<float>(bds, 0),
                              ctx.device_ptr<float>(bdw, 0), ctx.device_ptr<float>(bde, 0), rows,
                              cols, tile.row_begin, tile.row_end, tile.col_begin, tile.col_end,
                              lambda);
          };
        }
        update_ev[t] =
            ctx.stream(static_cast<int>(t) % streams).enqueue_kernel(std::move(launch), deps);
      }
      });
    }

    // --- compression + result readback ------------------------------------
    compress_phase.run([&] {
    std::vector<rt::Event> compress_ev(tiles.size());
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const rt::Tile2D tile = tiles[t];
      sim::KernelWork work;
      work.kind = sim::KernelKind::Streaming;
      work.elems = static_cast<double>(tile.elems());
      rt::KernelLaunch launch{"srad-compress", work, {}, {}};
      launch.reads(bj, tile_range(tile, cols, sizeof(float)));
      launch.writes(bimg, tile_range(tile, cols, sizeof(float)));
      if (sc.common.functional) {
        launch.fn = [&ctx, bimg, bj, tile, cols] {
          const float* j = ctx.device_ptr<float>(bj, 0);
          float* img = ctx.device_ptr<float>(bimg, 0);
          kern::srad_compress_2d(j, img, cols, tile.row_begin, tile.row_end, tile.col_begin,
                                 tile.col_end);
        };
      }
      // Cross-phase dep on the final update kernel: same-stream FIFO in
      // graph modes.
      compress_ev[t] =
          ctx.stream(static_cast<int>(t) % streams)
              .enqueue_kernel(std::move(launch), graphed ? rt::Deps{} : rt::Deps{update_ev[t]});
    }
    for (std::size_t b = 0; b < bands.size(); ++b) {
      std::vector<rt::Event> deps;
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        if (t / tiles_per_row == b) deps.push_back(compress_ev[t]);
      }
      ctx.stream(static_cast<int>(b) % streams)
          .enqueue_d2h(bimg, bands[b].begin * cols * sizeof(float),
                       bands[b].size() * cols * sizeof(float), deps);
    }
    });
  });

  if (sc.common.functional) {
    result.checksum = checksum(std::span<const float>(image));
  }
  result.timeline = std::move(ctx.timeline());
  return result;
}

}  // namespace ms::apps
