#include "sim/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ms::sim {

const char* to_string(KernelKind k) noexcept {
  switch (k) {
    case KernelKind::Generic: return "generic";
    case KernelKind::Streaming: return "streaming";
    case KernelKind::Gemm: return "gemm";
    case KernelKind::CholeskyTask: return "cholesky-task";
    case KernelKind::Stencil: return "stencil";
    case KernelKind::Reduction: return "reduction";
  }
  return "unknown";
}

CostModel::CostModel(const SimConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  // Peak flops of one hardware thread. The 4 threads of a core share its
  // vector unit, so a thread's share is the core rate / threads_per_core.
  const double core_flops_per_us = cfg_.device.clock_ghz * cfg_.device.dp_flops_per_cycle_per_core * 1e3;
  flops_per_thread_us_ = core_flops_per_us / cfg_.device.threads_per_core;
}

double CostModel::flop_efficiency(double flops_per_thread) const noexcept {
  const double ramp = cfg_.efficiency.ramp_flops_per_thread;
  const double wpt_eff = flops_per_thread / (flops_per_thread + ramp);
  return cfg_.efficiency.max_flop_efficiency * wpt_eff;
}

double CostModel::elem_efficiency(double elems_per_thread) const noexcept {
  const double ramp = cfg_.efficiency.ramp_elems_per_thread;
  return elems_per_thread / (elems_per_thread + ramp);
}

double CostModel::contention_multiplier(const PartitionView& part) const noexcept {
  return 1.0 + cfg_.efficiency.split_core_penalty * part.split_fraction;
}

double CostModel::locality_multiplier(KernelKind kind, const PartitionView& part) const noexcept {
  // Narrow partitions keep a stencil's working set within a couple of L2
  // caches (Fig. 9(d): best at 6-8 threads per partition). Keyed on the
  // thread count — at most `stencil_locality_max_cores` cores' worth — so a
  // 7-thread partition qualifies even when its threads straddle 3 cores.
  const int limit = cfg_.efficiency.stencil_locality_max_cores * cfg_.device.threads_per_core;
  if (kind == KernelKind::Stencil && part.threads() <= limit && part.total_partitions > 1) {
    return 1.0 - cfg_.efficiency.stencil_locality_bonus;
  }
  return 1.0;
}

SimTime CostModel::compute_duration(const KernelWork& work, const PartitionView& part) const {
  if (part.threads() <= 0) {
    throw std::invalid_argument("CostModel: partition has no threads");
  }
  const double threads = part.threads();

  SimTime flop_path = SimTime::zero();
  if (work.flops > 0.0) {
    const double per_thread = work.flops / threads;
    const double rate = flops_per_thread_us_ * flop_efficiency(per_thread);
    flop_path = SimTime::micros(per_thread / rate);
  }

  SimTime elem_path = SimTime::zero();
  if (work.elems > 0.0) {
    const double per_thread = work.elems / threads;
    const double rate = cfg_.efficiency.elems_per_thread_us * elem_efficiency(per_thread);
    elem_path = SimTime::micros(per_thread / rate);
  }

  const SimTime base = max(flop_path, elem_path);
  return base * contention_multiplier(part) * locality_multiplier(work.kind, part);
}

SimTime CostModel::launch_overhead(const PartitionView& part) const {
  return cfg_.overhead.kernel_launch_base +
         cfg_.overhead.kernel_launch_per_partition * static_cast<double>(part.total_partitions);
}

SimTime CostModel::alloc_overhead(const KernelWork& work, const PartitionView& part) const {
  if (work.temp_alloc_bytes <= 0.0) return SimTime::zero();
  const double mib = work.temp_alloc_bytes / (1024.0 * 1024.0);
  SimTime t = cfg_.overhead.alloc_base + cfg_.overhead.alloc_per_mib * mib;
  if (work.temp_alloc_per_thread) {
    t += cfg_.overhead.alloc_per_thread * static_cast<double>(part.threads());
  }
  return t;
}

namespace {
void require_work_field(double v, const char* field) {
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string("CostModel::kernel_duration: KernelWork.") + field +
                                " must be finite and non-negative");
  }
}
}  // namespace

SimTime CostModel::kernel_duration(const KernelWork& work, const PartitionView& part) const {
  require_work_field(work.flops, "flops");
  require_work_field(work.elems, "elems");
  require_work_field(work.temp_alloc_bytes, "temp_alloc_bytes");
  return launch_overhead(part) + alloc_overhead(work, part) + compute_duration(work, part);
}

SimTime CostModel::sync_overhead(int streams_waited, bool cross_device) const {
  SimTime t = cfg_.overhead.sync_base +
              cfg_.overhead.sync_per_stream * static_cast<double>(std::max(0, streams_waited));
  if (cross_device) t += cfg_.overhead.sync_cross_device;
  return t;
}

double CostModel::effective_gflops(const KernelWork& work, const PartitionView& part) const {
  const SimTime d = kernel_duration(work, part);
  if (d <= SimTime::zero()) return 0.0;
  return work.flops / d.micros() / 1e3;  // flops/us = 1e6 flops/s => /1e3 gives GFLOP/s
}

}  // namespace ms::sim
