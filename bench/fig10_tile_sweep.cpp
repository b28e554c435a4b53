// Reproduces Fig. 10(a)-(f): performance vs the number of tiles T with the
// resource granularity fixed (P = 4, as in the captions). Paper shapes:
// performance rises to an optimum (T = 4 for most apps, T ~ 100 for CF,
// T ~ 400 for SRAD) and then falls as per-task overheads dominate.

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "sim/sweep.hpp"
#include "trace/report.hpp"

namespace {

using ms::bench::Metric;
using ms::trace::AsciiChart;
using ms::trace::Table;

/// One Fig. 10 panel: the app at a fixed dataset size, swept over T at P = 4.
struct Panel {
  std::string name;
  std::string app;
  std::string heading;
  std::size_t size;
  int iters;
  std::vector<int> tiles;
  std::vector<int> quick_tiles;
  Metric metric;
  int decimals;
  bool edge_labels = false;  ///< label T = g*g as "g^2" (the paper's Hotspot axis)
};

/// T = g*g for each grid edge g.
std::vector<int> squares(std::initializer_list<int> edges) {
  std::vector<int> out;
  for (const int g : edges) out.push_back(g * g);
  return out;
}

std::string label(const Panel& panel, int tiles) {
  if (!panel.edge_labels) return std::to_string(tiles);
  return std::to_string(std::lround(std::sqrt(static_cast<double>(tiles)))) + "^2";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = ms::bench::parse(argc, argv);
  const auto cfg = ms::sim::SimConfig::phi_31sp();

  const std::vector<Panel> panels{
      // MM: D = 6000, T = g^2 for g in {1..20} (paper x-axis 1..400).
      {"fig10a_mm", "mm", "Fig. 10(a) MM GFLOPS vs T (paper optimum T=4)", 6000, 0,
       squares({1, 2, 3, 4, 5, 6, 10, 12, 15, 20}), squares({1, 4, 12}), Metric::Gflops, 1},
      // CF: D = 9600, T = g^2 for g in {2..20}.
      {"fig10b_cf", "cf", "Fig. 10(b) CF GFLOPS vs T (paper optimum T=100)", 9600, 0,
       squares({2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20}), squares({2, 10, 20}), Metric::Gflops, 1},
      // Kmeans: D = 1120000, T in {1..224}.
      {"fig10c_kmeans", "kmeans", "Fig. 10(c) Kmeans time vs T", 1120000, 100,
       {1, 2, 4, 8, 16, 20, 28, 32, 56, 112, 224}, {1, 8, 224}, Metric::Seconds, 3},
      // Hotspot: 16384^2, T = g^2 for g in {1..256} (paper 1^2..256^2).
      {"fig10d_hotspot", "hotspot", "Fig. 10(d) Hotspot time vs T", 16384, 50,
       squares({1, 2, 4, 8, 16, 32, 64, 128, 256}), squares({1, 16, 64}), Metric::Seconds, 3,
       true},
      // NN: 5242880 records, T = 2^0..2^11.
      {"fig10e_nn", "nn", "Fig. 10(e) NN time vs T (flat between T=1 and 4)", 5242880, 0,
       {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}, {1, 16, 256}, Metric::Millis, 1},
      // SRAD: 10000^2, T = g^2 for g in {1..100}.
      {"fig10f_srad", "srad", "Fig. 10(f) SRAD time vs T (paper optimum T=400)", 10000, 100,
       squares({1, 2, 3, 4, 5, 10, 13, 20, 25, 50, 100}), squares({1, 20, 100}), Metric::Seconds,
       3},
  };

  for (const Panel& panel : panels) {
    const ms::apps::AppEntry& app = *ms::apps::find_app(panel.app);
    const std::vector<int>& ts = opt.quick ? panel.quick_tiles : panel.tiles;
    // Each point builds its own Context, so points run independently on the
    // sweep pool; parallel_map's by-index ordering keeps the table identical
    // to a serial loop.
    const auto ys = ms::sim::parallel_map<double>(ts.size(), [&](std::size_t i) {
      return ms::bench::value(panel.metric, app.run(cfg, ms::apps::timing_common(4),
                                                    {ts[i], panel.size, panel.iters}));
    });
    std::vector<std::string> xs;
    for (const int tiles : ts) xs.push_back(label(panel, tiles));
    Table t({"T", ms::bench::column(panel.metric)});
    for (std::size_t i = 0; i < xs.size(); ++i) {
      t.add_row({xs[i], Table::num(ys[i], panel.decimals)});
    }
    ms::bench::emit(t, panel.name, panel.heading, opt);
    AsciiChart chart(panel.heading + " shape");
    chart.add_series("measured", ys);
    chart.set_x_labels({xs.front(), xs.back()});
    chart.print(std::cout);
  }
  return 0;
}
