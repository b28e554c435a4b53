// A visual companion to the paper's Fig. 4: run each application class at a
// small scale and render its timeline, so the flow structures — fully
// pipelined (MM/NN), kernel-loop-only (Hotspot), transfer-every-iteration
// (Kmeans) — are visible side by side as ASCII Gantt charts.

#include <iostream>

#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/mm_app.hpp"
#include "trace/utilization.hpp"

namespace {

ms::apps::CommonConfig timing() {
  ms::apps::CommonConfig c;
  c.partitions = 4;
  c.functional = false;
  c.tracing = true;  // show() renders the timeline
  c.protocol_iterations = 1;
  return c;
}

void show(const char* title, const ms::apps::AppResult& r) {
  std::cout << "\n=== " << title << " (" << r.ms << " virtual ms) ===\n";
  r.timeline.render_gantt(std::cout, 96);
  ms::trace::print(std::cout, ms::trace::summarize(r.timeline));
}

}  // namespace

int main() {
  using namespace ms;
  const auto cfg = sim::SimConfig::phi_31sp();

  apps::MmConfig mc;
  mc.common = timing();
  mc.dim = 3000;
  mc.tile_grid = 5;
  show("Fig. 4(a) MM — fully pipelined H2D > EXE > D2H", apps::MmApp::run(cfg, mc));

  apps::HotspotConfig hc;
  hc.common = timing();
  hc.rows = hc.cols = 4096;
  hc.tile_rows = hc.tile_cols = 1024;
  hc.steps = 6;
  show("Fig. 4(c) Hotspot — transfers only at the edges, kernel loop inside",
       apps::HotspotApp::run(cfg, hc));

  apps::KmeansConfig kc;
  kc.common = timing();
  kc.points = 500000;
  kc.tiles = 4;
  kc.iterations = 6;
  show("Fig. 4(d) Kmeans — a sync and fresh transfers every iteration",
       apps::KmeansApp::run(cfg, kc));

  std::cout << "\nlegend: '>' H2D, '<' D2H, '#' kernel, '.' idle — one row per stream\n";
  return 0;
}
