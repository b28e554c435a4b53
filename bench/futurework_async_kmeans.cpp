// The paper's future work, measured: "we would like to investigate how to
// transform the non-overlappable applications to overlappable
// applications". Compares the synchronous Kmeans port (per-iteration
// barrier, Fig. 4(d)) against the stale-centroid asynchronous variant at
// paper scale, and reports where the win comes from (transfer/kernel
// overlap that the barrier forbids).

#include <iostream>
#include <string>
#include <vector>

#include "apps/kmeans_app.hpp"
#include "apps/kmeans_async_app.hpp"
#include "bench_common.hpp"
#include "trace/report.hpp"

int main(int argc, char** argv) {
  const auto opt = ms::bench::parse(argc, argv);
  const auto cfg = ms::sim::SimConfig::phi_31sp();
  using ms::trace::Table;

  Table t({"dataset", "sync [s]", "sync+graph [s]", "async [s]", "async improvement"});
  const std::vector<std::size_t> sizes =
      opt.quick ? std::vector<std::size_t>{1120000}
                : std::vector<std::size_t>{140000, 280000, 560000, 1120000, 2240000};
  for (const std::size_t n : sizes) {
    ms::apps::KmeansConfig kc;
    kc.points = n;
    kc.dims = 34;
    kc.clusters = 8;
    kc.iterations = 100;
    kc.tiles = 28;
    kc.common.partitions = 28;
    kc.common.functional = false;
    kc.common.tracing = false;
    kc.common.protocol_iterations = 1;

    const auto sync = ms::apps::KmeansApp::run(cfg, kc);
    auto graph_kc = kc;
    graph_kc.common.graph = ms::apps::GraphMode::Compiled;
    const auto graphed = ms::apps::KmeansApp::run(cfg, graph_kc);
    const auto async = ms::apps::KmeansAsyncApp::run(cfg, kc);
    t.add_row({std::to_string(n / 1000) + "K", Table::num(sync.ms / 1e3, 3),
               Table::num(graphed.ms / 1e3, 3), Table::num(async.ms / 1e3, 3),
               ms::bench::improvement_cell(sync.ms, async.ms)});
  }
  ms::bench::emit(t, "futurework_async_kmeans",
                  "future work — stale-centroid Kmeans removes the per-iteration barrier", opt);

  std::cout << "\nmechanism: with one iteration of centroid staleness the host reduction and\n"
               "the next iteration's transfers run under the current iteration's kernels;\n"
               "the algorithm becomes asynchronous mini-batch Kmeans (same fixed points,\n"
               "different trajectory) — the classic overlappability transformation.\n";
  return 0;
}
