#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/partition.hpp"
#include "sim/sim_config.hpp"
#include "sim/sim_time.hpp"

namespace ms::sim {

/// Broad behavioural class of an offloaded kernel; selects which terms of
/// the cost model apply.
enum class KernelKind : std::uint8_t {
  Generic,      ///< max(flop path, element path)
  Streaming,    ///< memory-bound sweep (hBench, NN distance scan)
  Gemm,         ///< compute-bound dense linear algebra
  CholeskyTask, ///< POTRF/TRSM/SYRK tile tasks — compute-bound, sync-heavy
  Stencil,      ///< neighbour-exchange kernels (Hotspot, SRAD) — locality term
  Reduction,    ///< tree reductions (kmeans centroid update, SRAD statistics)
};

[[nodiscard]] const char* to_string(KernelKind k) noexcept;

/// Work descriptor for one kernel launch. Applications fill this from their
/// tile sizes; the cost model turns it into a virtual duration.
struct KernelWork {
  KernelKind kind = KernelKind::Generic;
  double flops = 0.0;        ///< floating-point operations in this launch
  double elems = 0.0;        ///< element visits (memory-bound path)
  double temp_alloc_bytes = 0.0;  ///< device scratch allocated+freed per launch
  /// True when the scratch is thread-private (one allocation per
  /// participating hardware thread, the MineBench Kmeans pattern) rather
  /// than one shared block (the SRAD derivative planes). Thread-private
  /// scratch costs grow with the partition's thread count — the mechanism
  /// behind Fig. 9(c).
  bool temp_alloc_per_thread = false;

  bool operator==(const KernelWork&) const = default;
};

/// Turns (work, partition shape, configuration) into virtual durations.
/// Stateless and cheap to copy; every term is documented against the paper
/// effect it reproduces (see sim_config.hpp for calibration provenance).
class CostModel {
public:
  explicit CostModel(const SimConfig& cfg);

  /// Duration of the computation itself on the given partition, excluding
  /// launch overhead and scratch allocation.
  [[nodiscard]] SimTime compute_duration(const KernelWork& work, const PartitionView& part) const;

  /// Fixed cost of launching one kernel (base + per-partition bookkeeping).
  [[nodiscard]] SimTime launch_overhead(const PartitionView& part) const;

  /// Cost of the per-launch scratch allocate/free cycle. Block scratch pays
  /// base + per-MiB; thread-private scratch additionally pays the per-thread
  /// term (the Kmeans mechanism: linear in the partition's thread count).
  [[nodiscard]] SimTime alloc_overhead(const KernelWork& work, const PartitionView& part) const;

  /// Total: launch + alloc + compute. What the scheduler charges a stream.
  /// The one validation point for KernelWork: throws std::invalid_argument
  /// when flops, elems or temp_alloc_bytes is negative, NaN or infinite.
  [[nodiscard]] SimTime kernel_duration(const KernelWork& work, const PartitionView& part) const;

  /// Stream/device synchronization latency.
  [[nodiscard]] SimTime sync_overhead(int streams_waited, bool cross_device) const;

  /// Host-side cost of enqueueing one action.
  [[nodiscard]] SimTime enqueue_overhead() const noexcept { return cfg_.overhead.action_enqueue; }

  /// Effective flop rate (GFLOP/s) the partition would reach on `work`;
  /// useful for reporting and for model unit tests.
  [[nodiscard]] double effective_gflops(const KernelWork& work, const PartitionView& part) const;

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

private:
  [[nodiscard]] double flop_efficiency(double flops_per_thread) const noexcept;
  [[nodiscard]] double elem_efficiency(double elems_per_thread) const noexcept;
  [[nodiscard]] double contention_multiplier(const PartitionView& part) const noexcept;
  [[nodiscard]] double locality_multiplier(KernelKind kind, const PartitionView& part) const noexcept;

  SimConfig cfg_;
  double flops_per_thread_us_;  ///< peak DP rate of one hardware thread, flops/us
};

}  // namespace ms::sim
