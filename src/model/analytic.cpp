#include "model/analytic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rt/tuner.hpp"
#include "sim/cost_model.hpp"
#include "sim/partition.hpp"

namespace ms::model {

AnalyticModel::AnalyticModel(const sim::SimConfig& cfg) : cfg_(cfg) { cfg_.validate(); }

double AnalyticModel::transfer_ms(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  const double gib = bytes / (1024.0 * 1024.0 * 1024.0);
  return cfg_.link.per_transfer_latency.millis() + gib / cfg_.link.bandwidth_gib_s * 1e3;
}

double AnalyticModel::kernel_ms(const sim::KernelWork& work, int threads,
                                int total_partitions) const {
  if (threads <= 0) {
    throw std::invalid_argument("AnalyticModel::kernel_ms: threads must be positive");
  }
  // Reuse the simulator's rate formulas through a synthetic partition view so
  // model and simulator can never drift apart on the compute term.
  sim::PartitionView v;
  v.thread_begin = 0;
  v.thread_end = threads;
  v.cores_spanned = (threads + cfg_.device.threads_per_core - 1) / cfg_.device.threads_per_core;
  v.split_fraction = 0.0;
  v.total_partitions = total_partitions;
  const sim::CostModel cost(cfg_);
  return cost.compute_duration(work, v).millis();
}

Prediction AnalyticModel::predict(const OffloadShape& shape, int partitions, int tiles) const {
  if (partitions < 1 || tiles < 1) {
    throw std::invalid_argument("AnalyticModel::predict: partitions and tiles must be >= 1");
  }
  const int threads = cfg_.device.usable_threads();
  const sim::CostModel cost(cfg_);
  const sim::PartitionTable table(cfg_.device, partitions);
  const double launch = cost.launch_overhead(table.view(0)).millis();
  const double enqueue = cost.enqueue_overhead().millis();

  Prediction p;

  // --- serial: one stream, one tile, whole device -------------------------
  p.serial_ms = transfer_ms(shape.h2d_bytes) +
                kernel_ms(shape.work, threads, 1) + launch +
                transfer_ms(shape.d2h_bytes) + 3.0 * enqueue;

  // --- streamed: T equal tasks over P partitions ---------------------------
  const double t = static_cast<double>(tiles);
  sim::KernelWork task_work = shape.work;
  task_work.flops /= t;
  task_work.elems /= t;
  const double t_h = transfer_ms(shape.h2d_bytes / t);
  const double t_d = transfer_ms(shape.d2h_bytes / t);
  const double t_k = kernel_ms(task_work, table.view(0).threads(), partitions) + launch;
  const double rounds = std::ceil(t / static_cast<double>(partitions));

  // The half-duplex link is one FIFO server: its busy time bounds the run.
  const double link_bound = t * (t_h + t_d) + t_k;
  // Streams are strictly in-order, so a stream cannot prefetch its next
  // task's input while computing: each of its `rounds` tasks is a serial
  // H2D -> kernel -> D2H chain (overlap happens only *across* streams).
  const double compute_bound = rounds * (t_h + t_k + t_d);
  // The serialized DMA must deliver every task's input before the last task
  // can start (dominant when T ~ P, i.e. few rounds to hide the feed).
  const double feed_bound = t * t_h + t_k + t_d;
  // The host issues 3 actions per task serially.
  const double host_bound = 3.0 * t * enqueue + t_k + t_d;
  p.streamed_ms = std::max({link_bound, compute_bound, feed_bound, host_bound});

  // --- bounds and classification ------------------------------------------
  const double all_transfers = transfer_ms(shape.h2d_bytes) + transfer_ms(shape.d2h_bytes);
  p.ideal_ms = std::max(all_transfers, kernel_ms(shape.work, threads, 1));
  p.transfer_bound = t * (t_h + t_d) > rounds * t_k;
  p.speedup = p.streamed_ms > 0.0 ? p.serial_ms / p.streamed_ms : 0.0;
  return p;
}

int AnalyticModel::best_tiles(const OffloadShape& shape, int partitions,
                              int max_multiplier) const {
  if (max_multiplier < 1) {
    throw std::invalid_argument("AnalyticModel::best_tiles: max_multiplier must be >= 1");
  }
  int best = partitions;
  double best_ms = std::numeric_limits<double>::infinity();
  for (const int t : rt::Tuner::tile_candidates(partitions, {.max_multiplier = max_multiplier})) {
    const double ms = predict(shape, partitions, t).streamed_ms;
    if (ms < best_ms) {
      best_ms = ms;
      best = t;
    }
  }
  return best;
}

AnalyticModel::Choice AnalyticModel::best_configuration(const OffloadShape& shape,
                                                        int max_multiplier) const {
  Choice best;
  best.predicted_ms = 1e300;
  for (const rt::Tuner::Candidate c :
       rt::Tuner::pruned_space(cfg_.device, {.max_multiplier = max_multiplier})) {
    const double ms = predict(shape, c.partitions, c.tiles).streamed_ms;
    if (ms < best.predicted_ms) {
      best = Choice{c.partitions, c.tiles, ms};
    }
  }
  return best;
}

}  // namespace ms::model
