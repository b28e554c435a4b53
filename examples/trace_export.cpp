// Exports the virtual timeline of a streamed Cholesky factorization as a
// Chrome trace-event JSON file: load trace_cholesky.json in
// chrome://tracing or https://ui.perfetto.dev and see the POTRF/TRSM/SYRK/
// GEMM wavefront flow across the four partitions, with the (serialized)
// PCIe transfers threading between them.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "apps/cf_app.hpp"
#include "trace/chrome_trace.hpp"

int main() {
  using namespace ms;

  apps::CfConfig cfg;
  cfg.dim = 4800;
  cfg.tile = 480;  // 10x10 tile grid
  cfg.common.partitions = 4;
  cfg.common.functional = false;  // timing-only keeps the trace readable
  cfg.common.tracing = true;
  cfg.common.protocol_iterations = 1;

  const auto result = apps::CfApp::run(sim::SimConfig::phi_31sp(), cfg);

  const char* path = "trace_cholesky.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  trace::write_chrome_trace(out, result.timeline);

  std::printf("Cholesky %zu x %zu on 4 partitions: %.2f virtual ms, %.1f GFLOPS\n", cfg.dim,
              cfg.dim, result.ms, result.gflops);
  std::printf("wrote %zu spans to %s — open it in chrome://tracing or ui.perfetto.dev\n",
              result.timeline.size(), path);
  std::puts("rows = streams (tid), processes = cards (pid); '>'-style H2D/D2H");
  return 0;
}
