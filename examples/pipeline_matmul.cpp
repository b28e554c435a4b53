// Tiled matrix multiplication through the streaming runtime (the paper's
// Fig. 4(a) workload), in full functional mode: real matrices, real GEMM
// kernels on the device shadows, results verified against the non-streamed
// baseline. Prints both timings so the overlap benefit is visible.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "apps/mm_app.hpp"

int main() {
  using namespace ms;

  apps::MmConfig cfg;
  cfg.dim = 768;        // small enough to verify functionally
  cfg.tile_grid = 4;    // 16 tasks
  cfg.common.partitions = 4;
  cfg.common.tracing = true;  // the streamed run's timeline is rendered below

  const auto streamed = apps::MmApp::run(sim::SimConfig::phi_31sp(), cfg);

  cfg.common.streamed = false;
  const auto baseline = apps::MmApp::run(sim::SimConfig::phi_31sp(), cfg);

  std::printf("matrix %zu x %zu, %d x %d tiles on 4 partitions\n", cfg.dim, cfg.dim,
              cfg.tile_grid, cfg.tile_grid);
  std::printf("  non-streamed: %8.3f virtual ms  (%.1f GFLOPS)\n", baseline.ms, baseline.gflops);
  std::printf("  streamed:     %8.3f virtual ms  (%.1f GFLOPS)\n", streamed.ms, streamed.gflops);
  std::printf("  improvement:  %+.1f%%\n", (baseline.ms - streamed.ms) / baseline.ms * 100.0);

  const double diff = std::abs(streamed.checksum - baseline.checksum);
  std::printf("  checksums: %.6f vs %.6f (|diff| = %.2e) -> %s\n", streamed.checksum,
              baseline.checksum, diff,
              diff < 1e-6 * std::abs(baseline.checksum) ? "MATCH" : "MISMATCH");

  std::puts("\nstreamed timeline (first protocol iteration not shown separately):");
  streamed.timeline.render_gantt(std::cout, 96);
  return diff < 1e-6 * std::abs(baseline.checksum) ? 0 : 1;
}
