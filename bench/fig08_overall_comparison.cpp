// Reproduces Fig. 8(a)-(f): non-streamed (w/o) vs streamed (w/) across the
// paper's dataset sweeps for all six real-world applications. As in the
// paper ("we empirically enumerate all the possible values of task
// granularity and resource granularity to obtain the optimal performance"),
// the streamed bar of every dataset picks the best (P, T) from a pruned
// candidate set. Runs the timing model at full paper scale (virtual
// buffers). Paper headline: average improvements MM +8.3%, CF +24.1%,
// Kmeans +24.1%, NN +9.2%; Hotspot unchanged; SRAD loses small / wins large.

#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "trace/report.hpp"

namespace {

using ms::bench::Metric;
using ms::bench::improvement_cell;
using ms::trace::Table;

struct PT {
  int partitions;
  int tiles;
};

/// One Fig. 8 panel: the app's non-streamed baseline against its best
/// streamed (P, T) candidate over a dataset sweep.
struct Panel {
  std::string name;
  std::string app;
  std::string heading;
  std::vector<std::size_t> sizes;
  std::vector<std::size_t> quick_sizes;
  std::vector<PT> candidates;
  Metric metric;
  int decimals;
  std::string (*label)(std::size_t size);
  bool mean_gain;  ///< print the mean improvement and carry it to the summary
};

/// Every (P, T) pair with P from `ps` and T = g*g for g from `edges`.
std::vector<PT> grid(std::initializer_list<int> ps, std::initializer_list<int> edges) {
  std::vector<PT> out;
  for (const int p : ps) {
    for (const int g : edges) out.push_back(PT{p, g * g});
  }
  return out;
}

std::string squared(std::size_t d) { return std::to_string(d) + "^2"; }
std::string thousands(std::size_t n) { return std::to_string(n / 1000) + "K"; }
std::string kibi(std::size_t n) { return std::to_string(n / 1024) + "k"; }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = ms::bench::parse(argc, argv);
  const auto cfg = ms::sim::SimConfig::phi_31sp();
  constexpr std::size_t k = 1024;

  const std::vector<Panel> panels{
      // MM: GFLOPS over D in 2000..12000.
      {"fig08a_mm", "mm", "Fig. 8(a) MM — paper mean improvement +8.3%",
       {2000, 4000, 6000, 8000, 10000, 12000}, {6000}, grid({2, 4, 8}, {2, 4, 8, 10}),
       Metric::Gflops, 1, squared, true},
      // CF: GFLOPS over D in 7200..19200.
      {"fig08b_cf", "cf", "Fig. 8(b) CF — paper mean improvement +24.1%",
       {7200, 9600, 12000, 14400, 16800, 19200}, {9600}, grid({4, 8}, {6, 8, 10, 12, 16}),
       Metric::Gflops, 1, squared, true},
      // Kmeans: execution time over point counts.
      {"fig08c_kmeans", "kmeans", "Fig. 8(c) Kmeans — paper mean improvement +24.1%",
       {140000, 280000, 560000, 1120000, 2240000}, {1120000},
       {{14, 28}, {28, 28}, {28, 56}, {56, 56}, {56, 112}}, Metric::Seconds, 3, thousands, true},
      // Hotspot: execution time over grid sizes.
      {"fig08d_hotspot", "hotspot", "Fig. 8(d) Hotspot — paper: no performance change",
       {1024, 2048, 4096, 8192, 16384}, {4096}, {{4, 4}, {4, 16}, {34, 64}}, Metric::Seconds, 3,
       squared, false},
      // NN: execution time over record counts.
      {"fig08e_nn", "nn", "Fig. 8(e) NN — paper mean improvement +9.2%",
       {128 * k, 256 * k, 512 * k, 1024 * k, 2048 * k}, {1024 * k},
       {{2, 2}, {4, 4}, {4, 8}, {4, 16}, {8, 32}}, Metric::Millis, 2, kibi, true},
      // SRAD: execution time over image sizes.
      {"fig08f_srad", "srad", "Fig. 8(f) SRAD — paper: slower on small, faster on large datasets",
       {1000, 2000, 4000, 5000, 10000}, {10000}, {{2, 4}, {4, 4}, {4, 16}, {4, 100}, {4, 400}},
       Metric::Seconds, 3, squared, false},
  };

  std::vector<double> gains;
  for (const Panel& panel : panels) {
    const ms::apps::AppEntry& app = *ms::apps::find_app(panel.app);
    const std::string unit = " [" + ms::bench::unit(panel.metric) + "]";
    Table t({"dataset", "w/o" + unit, "w/" + unit, "improvement"});
    std::vector<double> g;
    for (const std::size_t size : opt.quick ? panel.quick_sizes : panel.sizes) {
      // The streamed bar is the best candidate (the paper's enumeration).
      ms::apps::AppResult best;
      best.ms = 1e300;
      for (const PT c : panel.candidates) {
        auto r = app.run(cfg, ms::apps::timing_common(c.partitions), {c.tiles, size});
        if (r.ms < best.ms) best = std::move(r);
      }
      const auto baseline = app.run(cfg, ms::apps::timing_common(4, false), {1, size});
      t.add_row({panel.label(size),
                 Table::num(ms::bench::value(panel.metric, baseline), panel.decimals),
                 Table::num(ms::bench::value(panel.metric, best), panel.decimals),
                 improvement_cell(baseline.ms, best.ms)});
      g.push_back((baseline.ms - best.ms) / baseline.ms * 100.0);
    }
    ms::bench::emit(t, panel.name, panel.heading, opt);
    if (panel.mean_gain) {
      std::cout << "measured mean improvement: " << Table::num(mean(g), 1) << "%\n";
      gains.push_back(mean(g));
    }
  }

  std::cout << "\nsummary — mean improvements (paper: MM 8.3, CF 24.1, Kmeans 24.1, NN 9.2):\n"
            << "  MM " << Table::num(gains[0], 1) << "%, CF " << Table::num(gains[1], 1)
            << "%, Kmeans " << Table::num(gains[2], 1) << "%, NN " << Table::num(gains[3], 1)
            << "%\n";
  return 0;
}
