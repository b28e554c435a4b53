// The paper's Figs. 5-11, regenerated on the simulated Xeon Phi 31SP.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/hbench.hpp"
#include "apps/registry.hpp"
#include "repro/figure_list.hpp"
#include "sim/sweep.hpp"
#include "trace/report.hpp"

namespace ms::repro {

namespace {

using trace::AsciiChart;
using trace::Table;

/// What a figure panel reports for each app run.
enum class Metric : std::uint8_t { Gflops, Seconds, Millis };

/// The metric's unit: "GFLOPS", "s" or "ms".
std::string unit(Metric metric) {
  switch (metric) {
    case Metric::Gflops: return "GFLOPS";
    case Metric::Seconds: return "s";
    case Metric::Millis: return "ms";
  }
  return {};
}

/// Column title of a sweep table: "GFLOPS", "time [s]" or "time [ms]".
std::string column(Metric metric) {
  return metric == Metric::Gflops ? unit(metric) : "time [" + unit(metric) + "]";
}

/// The metric's value for one run: GFLOPS, or virtual time in s or ms.
double value(Metric metric, const apps::AppResult& r) {
  switch (metric) {
    case Metric::Gflops: return r.gflops;
    case Metric::Seconds: return r.ms / 1e3;
    case Metric::Millis: return r.ms;
  }
  return 0.0;
}

/// T = g*g for each grid edge g.
std::vector<int> squares(std::initializer_list<int> edges) {
  std::vector<int> out;
  for (const int g : edges) out.push_back(g * g);
  return out;
}

}  // namespace

// Fig. 5: data-transfer time over the number of transferred blocks, for the
// four request patterns CC / IC / CD / ID (1 MB blocks). The paper's
// finding: ID stays flat at ~2.5 ms and CC at ~5.2 ms, i.e. the DMA engine
// serializes H2D against D2H.
void fig05_transfer_overlap(Sink& sink) {
  const auto cfg = sim::SimConfig::phi_31sp();
  constexpr std::size_t kBlock = 1u << 20;

  Table table({"#blocks", "CC [ms]", "IC [ms]", "CD [ms]", "ID [ms]"});
  std::vector<double> cc, ic, cd, id;
  std::vector<std::string> xs;
  const int step = sink.quick ? 4 : 1;
  for (int x = 0; x <= 16; x += step) {
    // CC: constant 16 H2D + 16 D2H.   IC: x H2D + 16 D2H.
    // CD: 16 H2D + (16-x) D2H.        ID: x H2D + (16-x) D2H.
    const double v_cc = apps::HBench::transfer_pattern(cfg, 16, 16, kBlock);
    const double v_ic = apps::HBench::transfer_pattern(cfg, x, 16, kBlock);
    const double v_cd = apps::HBench::transfer_pattern(cfg, 16, 16 - x, kBlock);
    const double v_id = apps::HBench::transfer_pattern(cfg, x, 16 - x, kBlock);
    table.add_row({std::to_string(x), Table::num(v_cc), Table::num(v_ic), Table::num(v_cd),
                   Table::num(v_id)});
    cc.push_back(v_cc);
    ic.push_back(v_ic);
    cd.push_back(v_cd);
    id.push_back(v_id);
    xs.push_back(std::to_string(x));
  }
  sink.emit(table, "fig05", "Fig. 5 — transfer time vs #blocks (1 MB blocks)");

  AsciiChart chart("Fig. 5 shape (CC flat ~5.2, ID flat ~2.5, IC up, CD down)");
  chart.add_series("CC", cc);
  chart.add_series("IC", ic);
  chart.add_series("CD", cd);
  chart.add_series("ID", id);
  chart.set_x_labels({xs.front(), xs.back()});
  chart.print(sink.out);

  sink.out << "\npaper: CC ~= 5.2 ms constant; ID ~= 2.5 ms constant => directions serialize\n";
}

// Fig. 6: the overlapping extent of data transfers and computation as the
// kernel iteration count sweeps 20..60 (16 MB arrays). Paper shape: Data
// flat, Kernel linear (crossing at ~40 iterations), Streamed between Ideal
// and Data+Kernel — overlap works, full overlap is not achievable.
void fig06_overlap_kernel(Sink& sink) {
  const auto cfg = sim::SimConfig::phi_31sp();
  constexpr std::size_t kElems = 4u << 20;  // 16 MB of floats

  Table table({"#iterations", "Data [ms]", "Kernel [ms]", "Data+Kernel [ms]", "Streamed [ms]",
               "Ideal [ms]"});
  std::vector<double> data, kernel, serial, streamed, ideal;
  std::vector<std::string> xs;
  const int step = sink.quick ? 20 : 5;
  for (int iters = 20; iters <= 60; iters += step) {
    const auto p = apps::HBench::overlap(cfg, kElems, iters, 4, 4);
    table.add_row({std::to_string(iters), Table::num(p.data_ms), Table::num(p.kernel_ms),
                   Table::num(p.serial_ms), Table::num(p.streamed_ms), Table::num(p.ideal_ms)});
    data.push_back(p.data_ms);
    kernel.push_back(p.kernel_ms);
    serial.push_back(p.serial_ms);
    streamed.push_back(p.streamed_ms);
    ideal.push_back(p.ideal_ms);
    xs.push_back(std::to_string(iters));
  }
  sink.emit(table, "fig06", "Fig. 6 — transfer/kernel overlap vs kernel iterations");

  AsciiChart chart("Fig. 6 shape (kernel crosses data ~40; streamed > ideal)");
  chart.add_series("Data", data);
  chart.add_series("Kernel", kernel);
  chart.add_series("Data+Kernel", serial);
  chart.add_series("Streamed", streamed);
  chart.add_series("Ideal", ideal);
  chart.set_x_labels({xs.front(), xs.back()});
  chart.print(sink.out);

  sink.out << "\npaper: lines intersect at 40 iterations; measured streamed exceeds the ideal\n"
              "full overlap, matching 'the difficulty of achieving a full overlap'.\n";
}

// Fig. 7: kernel-only execution time vs the number of resource partitions
// (128 blocks, 100 kernel iterations, transfers synchronized away). Paper
// shape: a U over P with the `ref` (non-streamed, non-tiled) bar BELOW every
// streamed configuration — spatial sharing alone brings no speedup for a
// non-overlappable pattern.
void fig07_spatial_sharing(Sink& sink) {
  const auto cfg = sim::SimConfig::phi_31sp();
  constexpr std::size_t kElems = 4u << 20;
  constexpr int kBlocks = 128;
  constexpr int kIters = 100;

  Table table({"#partitions", "kernel time [ms]"});
  std::vector<double> ys;
  std::vector<std::string> xs;
  const std::vector<int> sweep = sink.quick ? std::vector<int>{1, 8, 128}
                                            : std::vector<int>{1, 2, 4, 8, 16, 32, 64, 128};
  for (const int p : sweep) {
    const double ms = apps::HBench::spatial(cfg, p, kBlocks, kIters, kElems);
    table.add_row({std::to_string(p), Table::num(ms)});
    ys.push_back(ms);
    xs.push_back(std::to_string(p));
  }
  const double ref = apps::HBench::spatial_ref(cfg, kIters, kElems);
  table.add_row({"ref", Table::num(ref)});
  sink.emit(table, "fig07", "Fig. 7 — kernel time vs resource granularity");

  AsciiChart chart("Fig. 7 shape (U over P; ref below the whole curve)");
  chart.add_series("streamed", ys);
  ys.assign(ys.size(), ref);
  chart.add_series("ref", ys);
  chart.set_x_labels(xs);
  chart.print(sink.out);

  sink.out << "\npaper: tiled+partitioned kernel time never beats ref => partitioning alone\n"
              "gives no benefit when transfers are synchronized away.\n";
}

namespace {

struct PT {
  int partitions;
  int tiles;
};

/// One Fig. 8 panel: the app's non-streamed baseline against its best
/// streamed (P, T) candidate over a dataset sweep.
struct ComparisonPanel {
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

// Fig. 8(a)-(f): non-streamed (w/o) vs streamed (w/) across the paper's
// dataset sweeps for all six real-world applications. As in the paper ("we
// empirically enumerate all the possible values of task granularity and
// resource granularity to obtain the optimal performance"), the streamed bar
// of every dataset picks the best (P, T) from a pruned candidate set. Runs
// the timing model at full paper scale (virtual buffers). Paper headline:
// average improvements MM +8.3%, CF +24.1%, Kmeans +24.1%, NN +9.2%; Hotspot
// unchanged; SRAD loses small / wins large.
void fig08_overall_comparison(Sink& sink) {
  const auto cfg = sim::SimConfig::phi_31sp();
  constexpr std::size_t k = 1024;

  const std::vector<ComparisonPanel> panels{
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
  for (const ComparisonPanel& panel : panels) {
    const apps::AppEntry& app = *apps::find_app(panel.app);
    const std::string u = " [" + unit(panel.metric) + "]";
    Table t({"dataset", "w/o" + u, "w/" + u, "improvement"});
    std::vector<double> g;
    for (const std::size_t size : sink.quick ? panel.quick_sizes : panel.sizes) {
      // The streamed bar is the best candidate (the paper's enumeration).
      apps::AppResult best;
      best.ms = 1e300;
      for (const PT c : panel.candidates) {
        auto r = app.run(cfg, apps::timing_common(c.partitions), {c.tiles, size});
        if (r.ms < best.ms) best = std::move(r);
      }
      const auto baseline = app.run(cfg, apps::timing_common(4, false), {1, size});
      t.add_row({panel.label(size), Table::num(value(panel.metric, baseline), panel.decimals),
                 Table::num(value(panel.metric, best), panel.decimals),
                 improvement_cell(baseline.ms, best.ms)});
      g.push_back((baseline.ms - best.ms) / baseline.ms * 100.0);
    }
    sink.emit(t, panel.name, panel.heading);
    if (panel.mean_gain) {
      sink.out << "measured mean improvement: " << Table::num(mean(g), 1) << "%\n";
      gains.push_back(mean(g));
    }
  }

  sink.out << "\nsummary — mean improvements (paper: MM 8.3, CF 24.1, Kmeans 24.1, NN 9.2):\n"
           << "  MM " << Table::num(gains[0], 1) << "%, CF " << Table::num(gains[1], 1)
           << "%, Kmeans " << Table::num(gains[2], 1) << "%, NN " << Table::num(gains[3], 1)
           << "%\n";
}

namespace {

/// The knob a Fig. 9/10 panel sweeps: P at the caption's T (Fig. 9), or T
/// at P = 4 (Fig. 10).
enum class Axis : std::uint8_t { Partitions, Tiles };

/// One Fig. 9/10 panel: the app at its caption's point, swept over one axis.
struct SweepPanel {
  std::string name;
  std::string app;
  std::string heading;
  apps::AppPoint point;  ///< a tile sweep replaces its T
  std::vector<int> values;
  std::vector<int> quick_values;
  Metric metric;
  int decimals;
  bool edge_labels = false;  ///< label T = g*g as "g^2" (the paper's Hotspot axis)
};

void sweep(Sink& sink, Axis axis, const std::vector<SweepPanel>& panels) {
  const auto cfg = sim::SimConfig::phi_31sp();
  for (const SweepPanel& panel : panels) {
    const apps::AppEntry& app = *apps::find_app(panel.app);
    const std::vector<int>& xs = sink.quick ? panel.quick_values : panel.values;
    // Each point builds its own Context, so points run independently on the
    // sweep pool; parallel_map's by-index ordering keeps the table identical
    // to a serial loop.
    const auto ys = sim::parallel_map<double>(xs.size(), [&](std::size_t i) {
      apps::AppPoint point = panel.point;
      if (axis == Axis::Tiles) point.tiles = xs[i];
      const int partitions = axis == Axis::Partitions ? xs[i] : 4;
      return value(panel.metric, app.run(cfg, apps::timing_common(partitions), point));
    });
    std::vector<std::string> labels;
    for (const int x : xs) {
      labels.push_back(panel.edge_labels
                           ? std::to_string(std::lround(std::sqrt(static_cast<double>(x)))) + "^2"
                           : std::to_string(x));
    }
    Table t({axis == Axis::Partitions ? "P" : "T", column(panel.metric)});
    for (std::size_t i = 0; i < labels.size(); ++i) {
      t.add_row({labels[i], Table::num(ys[i], panel.decimals)});
    }
    sink.emit(t, panel.name, panel.heading);
    AsciiChart chart(panel.heading + " shape");
    chart.add_series("measured", ys);
    chart.set_x_labels({labels.front(), labels.back()});
    chart.print(sink.out);
  }
}

}  // namespace

// Fig. 9(a)-(f): performance vs the number of partitions P with the task
// granularity fixed to the paper's caption values. Paper shapes:
//   MM/CF  — spikes at P in {2,4,7,8,14,28,56} (divisors of 56)
//   Kmeans — monotone improvement with P (alloc overhead ~ threads/partition)
//   Hotspot— mild U with a dip around P = 33..37 (cache locality)
//   NN     — sharp drop until P = 4, flat after (transfer-bound)
//   SRAD   — rise then fall, like Fig. 7
void fig09_partition_sweep(Sink& sink) {
  std::vector<int> all;
  for (int p = 1; p <= 56; ++p) all.push_back(p);
  const std::vector<int> quick{1, 4, 8, 14, 28, 33, 56};

  sweep(sink, Axis::Partitions,
        {
            // MM: D = 6000, tile 500x500 (T = 144 tasks).
            {"fig09a_mm", "mm", "Fig. 9(a) MM GFLOPS vs P (peaks on divisors of 56)",
             {144, 6000}, all, quick, Metric::Gflops, 1},
            // CF: D = 9600, tile 800x800.
            {"fig09b_cf", "cf", "Fig. 9(b) CF GFLOPS vs P (peaks on divisors of 56)",
             {144, 9600}, all, quick, Metric::Gflops, 1},
            // Kmeans: D = 1120000 points, tile = 20000 points (56 tasks).
            {"fig09c_kmeans", "kmeans", "Fig. 9(c) Kmeans time vs P (monotone decline)",
             {56, 1120000, 100}, all, quick, Metric::Seconds, 3},
            // Hotspot: 16384^2 grid, 1024^2 tiles (256 tasks), 50 steps.
            {"fig09d_hotspot", "hotspot", "Fig. 9(d) Hotspot time vs P (dip near P=33..37)",
             {256, 16384, 50}, all, quick, Metric::Millis, 1},
            // NN: 5242880 records, 512 tasks.
            {"fig09e_nn", "nn", "Fig. 9(e) NN time vs P (drop until 4, then flat)",
             {512, 5242880}, all, quick, Metric::Millis, 1},
            // SRAD: 10000^2 image, 20x20 tile grid, 100 iterations.
            {"fig09f_srad", "srad", "Fig. 9(f) SRAD time vs P (fall then rise)",
             {400, 10000, 100}, all, quick, Metric::Seconds, 3},
        });
}

// Fig. 10(a)-(f): performance vs the number of tiles T with the resource
// granularity fixed (P = 4, as in the captions). Paper shapes: performance
// rises to an optimum (T = 4 for most apps, T ~ 100 for CF, T ~ 400 for
// SRAD) and then falls as per-task overheads dominate.
void fig10_tile_sweep(Sink& sink) {
  sweep(sink, Axis::Tiles,
        {
            // MM: D = 6000, T = g^2 for g in {1..20} (paper x-axis 1..400).
            {"fig10a_mm", "mm", "Fig. 10(a) MM GFLOPS vs T (paper optimum T=4)", {0, 6000},
             squares({1, 2, 3, 4, 5, 6, 10, 12, 15, 20}), squares({1, 4, 12}), Metric::Gflops,
             1},
            // CF: D = 9600, T = g^2 for g in {2..20}.
            {"fig10b_cf", "cf", "Fig. 10(b) CF GFLOPS vs T (paper optimum T=100)", {0, 9600},
             squares({2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20}), squares({2, 10, 20}),
             Metric::Gflops, 1},
            // Kmeans: D = 1120000, T in {1..224}.
            {"fig10c_kmeans", "kmeans", "Fig. 10(c) Kmeans time vs T", {0, 1120000, 100},
             {1, 2, 4, 8, 16, 20, 28, 32, 56, 112, 224}, {1, 8, 224}, Metric::Seconds, 3},
            // Hotspot: 16384^2, T = g^2 for g in {1..256} (paper 1^2..256^2).
            {"fig10d_hotspot", "hotspot", "Fig. 10(d) Hotspot time vs T", {0, 16384, 50},
             squares({1, 2, 4, 8, 16, 32, 64, 128, 256}), squares({1, 16, 64}),
             Metric::Seconds, 3, true},
            // NN: 5242880 records, T = 2^0..2^11.
            {"fig10e_nn", "nn", "Fig. 10(e) NN time vs T (flat between T=1 and 4)",
             {0, 5242880}, {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}, {1, 16, 256},
             Metric::Millis, 1},
            // SRAD: 10000^2, T = g^2 for g in {1..100}.
            {"fig10f_srad", "srad", "Fig. 10(f) SRAD time vs T (paper optimum T=400)",
             {0, 10000, 100}, squares({1, 2, 3, 4, 5, 10, 13, 20, 25, 50, 100}),
             squares({1, 20, 100}), Metric::Seconds, 3},
        });
}

// Fig. 11 (Section VI): Cholesky factorization on one and two Phi cards,
// against the projected 2x. Paper: the streamed code runs on two cards
// without modification and gains substantially, but stays below the
// projection because the separate memory spaces need extra block transfers
// and cross-card synchronization.
void fig11_multi_mic(Sink& sink) {
  Table t({"dataset", "1-mic [GFLOPS]", "2-mics [GFLOPS]", "projected [GFLOPS]", "scaling"});
  const std::vector<std::size_t> dims =
      sink.quick ? std::vector<std::size_t>{14000} : std::vector<std::size_t>{14000, 16000};
  const apps::AppEntry& cf = *apps::find_app("cf");
  for (const std::size_t d : dims) {
    // g = 10: 1400/1600 tiles, the paper's 800..1600 range.
    const auto one = cf.run(sim::SimConfig::phi_31sp(), apps::timing_common(4), {100, d});
    const auto two = cf.run(sim::SimConfig::phi_31sp_x2(), apps::timing_common(4), {100, d});
    t.add_row({std::to_string(d) + "^2", Table::num(one.gflops, 1), Table::num(two.gflops, 1),
               Table::num(2.0 * one.gflops, 1), Table::num(two.gflops / one.gflops, 2) + "x"});
  }
  sink.emit(t, "fig11", "Fig. 11 — CF on multiple MICs (2 cards < 2x projection)");

  sink.out << "\npaper: 2-mic bars sit clearly above 1-mic but below 'projected' — the extra\n"
              "cross-card tile traffic and synchronization eat part of the second card.\n";
}

}  // namespace ms::repro
