#include "model/workload_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "rt/context.hpp"

namespace ms::model {

namespace {

/// The canonical T-task pipeline: per-tile H2D slice, kernel, D2H slice,
/// round-robin over the context's streams.
void enqueue_pipeline(rt::Context& ctx, const OffloadShape& shape, rt::BufferId bin,
                      rt::BufferId bout, std::size_t tiles) {
  const std::size_t h2d = static_cast<std::size_t>(std::max(0.0, shape.h2d_bytes));
  const std::size_t d2h = static_cast<std::size_t>(std::max(0.0, shape.d2h_bytes));
  for (std::size_t i = 0; i < tiles; ++i) {
    rt::Stream& s = ctx.stream(static_cast<int>(i) % ctx.stream_count());
    const std::size_t h_lo = h2d * i / tiles;
    const std::size_t h_hi = h2d * (i + 1) / tiles;
    if (h_hi > h_lo) s.enqueue_h2d(bin, h_lo, h_hi - h_lo);

    sim::KernelWork w = shape.work;
    w.flops /= static_cast<double>(tiles);
    w.elems /= static_cast<double>(tiles);
    w.temp_alloc_bytes /= static_cast<double>(tiles);
    const std::size_t d_lo = d2h * i / tiles;
    const std::size_t d_hi = d2h * (i + 1) / tiles;
    rt::KernelLaunch launch{"task", w, {}, {}};
    if (h_hi > h_lo) launch.reads(bin, h_lo, h_hi - h_lo);
    if (d_hi > d_lo) launch.writes(bout, d_lo, d_hi - d_lo);
    s.enqueue_kernel(std::move(launch));

    if (d_hi > d_lo) s.enqueue_d2h(bout, d_lo, d_hi - d_lo);
  }
}

double run(const sim::SimConfig& cfg, const OffloadShape& shape, int partitions, int tiles) {
  if (partitions < 1 || tiles < 1) {
    throw std::invalid_argument("workload_sim: partitions and tiles must be >= 1");
  }
  const std::size_t h2d = static_cast<std::size_t>(std::max(0.0, shape.h2d_bytes));
  const std::size_t d2h = static_cast<std::size_t>(std::max(0.0, shape.d2h_bytes));
  rt::Context ctx(cfg);
  ctx.setup(partitions);
  const rt::BufferId bin = ctx.create_virtual_buffer(std::max<std::size_t>(1, h2d));
  const rt::BufferId bout = ctx.create_virtual_buffer(std::max<std::size_t>(1, d2h));
  ctx.synchronize();
  const sim::SimTime t0 = ctx.host_time();
  enqueue_pipeline(ctx, shape, bin, bout, static_cast<std::size_t>(tiles));
  ctx.synchronize();
  return (ctx.host_time() - t0).millis();
}

}  // namespace

double simulate_streamed_ms(const sim::SimConfig& cfg, const OffloadShape& shape, int partitions,
                            int tiles) {
  return run(cfg, shape, partitions, tiles);
}

}  // namespace ms::model
