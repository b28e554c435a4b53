// Reproduces Fig. 9(a)-(f): performance vs the number of partitions P with
// the task granularity fixed to the paper's caption values. Paper shapes:
//   MM/CF  — spikes at P in {2,4,7,8,14,28,56} (divisors of 56)
//   Kmeans — monotone improvement with P (alloc overhead ~ threads/partition)
//   Hotspot— mild U with a dip around P = 33..37 (cache locality)
//   NN     — sharp drop until P = 4, flat after (transfer-bound)
//   SRAD   — rise then fall, like Fig. 7

#include <cstddef>
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

/// One Fig. 9 panel: the app at its caption's (T, size, iters), swept over P.
struct Panel {
  std::string name;
  std::string app;
  std::string heading;
  ms::apps::AppPoint point;
  Metric metric;
  int decimals;
};

std::vector<int> sweep_points(bool quick) {
  if (quick) return {1, 4, 8, 14, 28, 33, 56};
  std::vector<int> p;
  for (int i = 1; i <= 56; ++i) p.push_back(i);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = ms::bench::parse(argc, argv);
  const auto cfg = ms::sim::SimConfig::phi_31sp();
  const auto ps = sweep_points(opt.quick);

  const std::vector<Panel> panels{
      // MM: D = 6000, tile 500x500 (T = 144 tasks).
      {"fig09a_mm", "mm", "Fig. 9(a) MM GFLOPS vs P (peaks on divisors of 56)", {144, 6000},
       Metric::Gflops, 1},
      // CF: D = 9600, tile 800x800.
      {"fig09b_cf", "cf", "Fig. 9(b) CF GFLOPS vs P (peaks on divisors of 56)", {144, 9600},
       Metric::Gflops, 1},
      // Kmeans: D = 1120000 points, tile = 20000 points (56 tasks).
      {"fig09c_kmeans", "kmeans", "Fig. 9(c) Kmeans time vs P (monotone decline)",
       {56, 1120000, 100}, Metric::Seconds, 3},
      // Hotspot: 16384^2 grid, 1024^2 tiles (256 tasks), 50 steps.
      {"fig09d_hotspot", "hotspot", "Fig. 9(d) Hotspot time vs P (dip near P=33..37)",
       {256, 16384, 50}, Metric::Millis, 1},
      // NN: 5242880 records, 512 tasks.
      {"fig09e_nn", "nn", "Fig. 9(e) NN time vs P (drop until 4, then flat)", {512, 5242880},
       Metric::Millis, 1},
      // SRAD: 10000^2 image, 20x20 tile grid, 100 iterations.
      {"fig09f_srad", "srad", "Fig. 9(f) SRAD time vs P (fall then rise)", {400, 10000, 100},
       Metric::Seconds, 3},
  };

  for (const Panel& panel : panels) {
    const ms::apps::AppEntry& app = *ms::apps::find_app(panel.app);
    // Each point builds its own Context, so points run independently on the
    // sweep pool; parallel_map's by-index ordering keeps the table identical
    // to a serial loop.
    const auto ys = ms::sim::parallel_map<double>(ps.size(), [&](std::size_t i) {
      return ms::bench::value(panel.metric,
                              app.run(cfg, ms::apps::timing_common(ps[i]), panel.point));
    });
    Table t({"P", ms::bench::column(panel.metric)});
    for (std::size_t i = 0; i < ps.size(); ++i) {
      t.add_row({std::to_string(ps[i]), Table::num(ys[i], panel.decimals)});
    }
    ms::bench::emit(t, panel.name, panel.heading, opt);
    AsciiChart chart(panel.heading + " shape");
    chart.add_series("measured", ys);
    chart.set_x_labels({std::to_string(ps.front()), std::to_string(ps.back())});
    chart.print(std::cout);
  }
  return 0;
}
