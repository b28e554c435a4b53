#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/sim_time.hpp"

namespace ms::sim {

/// Hardware description of one coprocessor card.
///
/// Defaults model the Intel Xeon Phi 31SP used by the paper: 57 in-order
/// cores at 1.1 GHz, 4 hardware threads per core, 512 KiB L2 per core, one
/// core reserved for the card's uOS. 56 usable cores x 4 threads = 224
/// usable hardware threads (Section V-B1 of the paper).
struct CoprocessorSpec {
  int cores = 57;
  int reserved_cores = 1;  ///< held back for the uOS
  int threads_per_core = 4;
  double clock_ghz = 1.1;
  /// 512-bit DP vector FMA: 8 lanes x 2 flops per cycle per core.
  double dp_flops_per_cycle_per_core = 16.0;
  double l2_kib_per_core = 512.0;
  std::size_t memory_bytes = 8ull << 30;  ///< GDDR5 capacity

  [[nodiscard]] constexpr int usable_cores() const noexcept { return cores - reserved_cores; }
  [[nodiscard]] constexpr int usable_threads() const noexcept {
    return usable_cores() * threads_per_core;
  }
  /// Peak double-precision rate of the usable cores, in GFLOP/s.
  [[nodiscard]] constexpr double peak_gflops() const noexcept {
    return usable_cores() * clock_ghz * dp_flops_per_cycle_per_core;
  }
};

/// PCIe link between the host and one card.
///
/// Calibration (Fig. 5 of the paper): 16 x 1 MiB blocks move in ~2.5 ms in
/// either single direction and 32 blocks take ~5.2 ms when both directions
/// are requested, i.e. the DMA engine serializes H2D against D2H. That gives
/// ~0.156 ms per 1 MiB block => ~6.4 GiB/s effective, plus a small
/// per-command setup latency.
struct LinkSpec {
  double bandwidth_gib_s = 6.4;
  SimTime per_transfer_latency = SimTime::micros(12.0);
  /// Paper finding #1: transfers in both directions are serialized. Set true
  /// only for the what-if ablation (`bench/ablation_simconfig`).
  bool full_duplex = false;
  /// DMA chunking: 0 = each transfer occupies the engine end-to-end (the
  /// default; matches the block granularity the paper's hBench uses).
  /// Non-zero = transfers are split into chunks of this many bytes, letting
  /// requests that become ready mid-transfer interleave instead of waiting
  /// behind a multi-megabyte upload (no head-of-line blocking). Exercised
  /// by `ablation_simconfig`.
  std::size_t dma_chunk_bytes = 0;
};

/// Fixed software overheads of the streaming runtime.
///
/// These drive the right-hand decline of Fig. 7 and Fig. 10: more partitions
/// and more tiles mean more launches, more per-launch cost, and more
/// host-side enqueue work.
struct OverheadSpec {
  /// Cost to launch one kernel into a stream (offload signalling, argument
  /// marshalling), charged on the partition.
  SimTime kernel_launch_base = SimTime::micros(35.0);
  /// Extra launch cost per existing partition: the runtime's bookkeeping
  /// walks per-partition state, so crowded configurations pay more.
  SimTime kernel_launch_per_partition = SimTime::micros(0.9);
  /// Host-side cost to enqueue any action: argument marshalling and the
  /// doorbell write into the MPSS command queue. The application thread is
  /// a single serial resource, so fine task granularities pay T times this
  /// (one driver of Fig. 10's right-hand decline, and of the paper's
  /// streamed-SRAD losses on small images).
  SimTime action_enqueue = SimTime::micros(15.0);
  /// Recorded-graph replay (rt::Graph): one launch call plus a small
  /// per-node re-arm instead of a full action_enqueue per action — the
  /// runtime only rewinds prebuilt descriptors.
  SimTime graph_launch_base = SimTime::micros(25.0);
  SimTime graph_replay_per_node = SimTime::micros(0.8);
  /// Synchronization cost: base plus a per-waited-stream term (the host
  /// polls each stream's completion flag over PCIe).
  SimTime sync_base = SimTime::micros(8.0);
  SimTime sync_per_stream = SimTime::micros(50.0);
  /// Cross-device synchronization premium (Section VI: syncs between streams
  /// of different Phis are more expensive).
  SimTime sync_cross_device = SimTime::micros(140.0);
  /// One-time context/partition setup, charged when a context is (re)built.
  SimTime context_setup_base = SimTime::millis(0.8);
  SimTime context_setup_per_partition = SimTime::micros(40.0);
  /// Device-side dynamic allocation: base latency plus per-MiB zeroing plus
  /// (for thread-private scratch) a per-participating-thread term. The
  /// per-thread term is the mechanism behind the paper's Kmeans observation
  /// (Fig. 9(c)): temp-buffer alloc/free cost grows linearly with threads in
  /// the partition, so more (smaller) partitions shrink it. Calibrated so a
  /// whole-device (224-thread) per-launch alloc costs ~7.2 ms, which puts
  /// the baseline Kmeans in the paper's Fig. 8(c) regime (1.09-6.49 s over
  /// 140K-2240K points) with the ~24% streamed improvement the paper reports.
  SimTime alloc_base = SimTime::micros(20.0);
  SimTime alloc_per_mib = SimTime::micros(14.0);
  SimTime alloc_per_thread = SimTime::micros(32.0);
};

/// Efficiency model for kernel execution on a partition.
struct EfficiencySpec {
  /// Memory-bound element throughput per hardware thread, elements/us.
  /// Calibration (Fig. 6): the hBench kernel sweeps 4 M floats x 40
  /// iterations in ~5 ms on 224 threads => ~143 element-visits/us/thread
  /// (x4 B ~= 128 GiB/s aggregate, consistent with GDDR5 on the 31SP).
  double elems_per_thread_us = 143.0;
  /// Fraction of peak flops the best-tuned kernel reaches at full device
  /// (Fig. 8(a): tuned MM ~= 512-600 GFLOPS of 985 peak).
  double max_flop_efficiency = 0.60;
  /// Work-per-thread ramp: efficiency = wpt / (wpt + ramp). Small tiles give
  /// each thread too little work to hide startup/vector pipeline costs,
  /// which is why very large tile counts lose in Fig. 10.
  double ramp_elems_per_thread = 400.0;
  double ramp_flops_per_thread = 60000.0;
  /// Slowdown factor applied in proportion to the fraction of a partition's
  /// threads that live on a core shared with another partition. Drives the
  /// "P must divide 56" divisor set of Fig. 9(a,b).
  double split_core_penalty = 0.45;
  /// Stencil locality bonus: when a partition holds at most this many
  /// cores' worth of threads, neighbour exchange stays in L2 and the kernel
  /// speeds up by `bonus`. Mechanism behind Hotspot's dip at P = 33..37
  /// (Fig. 9(d): 6-7 threads per partition).
  int stencil_locality_max_cores = 2;
  double stencil_locality_bonus = 0.12;
};

/// Everything the simulator needs, in one value type. All benches and tests
/// construct their platform from one of these; the ablation bench flips
/// individual fields to show which mechanism produces which paper effect.
struct SimConfig {
  CoprocessorSpec device{};
  LinkSpec link{};
  OverheadSpec overhead{};
  EfficiencySpec efficiency{};
  int num_devices = 1;

  /// The configuration used throughout the paper: one Xeon Phi 31SP.
  [[nodiscard]] static SimConfig phi_31sp() noexcept { return SimConfig{}; }

  /// Section VI: two cards behind separate PCIe links.
  [[nodiscard]] static SimConfig phi_31sp_x2() noexcept {
    SimConfig c;
    c.num_devices = 2;
    return c;
  }

  /// A 61-core Xeon Phi 7120P (the flagship KNC): one more core row, a
  /// higher clock, and a slightly faster link. Used by the generality bench
  /// to show the P-divisor heuristics adapt to the device (60 usable cores
  /// => candidate set {2,3,4,5,6,10,12,15,20,30,60}).
  [[nodiscard]] static SimConfig phi_7120p() noexcept {
    SimConfig c;
    c.device.cores = 61;
    c.device.clock_ghz = 1.238;
    c.link.bandwidth_gib_s = 6.9;
    return c;
  }

  /// Throws std::invalid_argument if any field is out of range.
  void validate() const;
};

/// Order-sensitive 64-bit digest of every field (FNV-1a over the field
/// values, not the object bytes, so padding never leaks in). Two configs
/// with equal fingerprints produce identical cost-model outputs, which is
/// what lets a compiled graph (rt::CompiledGraph) reuse its precomputed
/// durations on another context, and what keys the rt::GraphCache.
[[nodiscard]] std::uint64_t fingerprint(const SimConfig& cfg) noexcept;

}  // namespace ms::sim
