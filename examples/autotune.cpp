// The Section V-C2 heuristics as a user-facing auto-tuner: find a good
// (partitions P, tiles T) configuration for the NN workload without paying
// for the exhaustive sweep. The pruned space keeps P in the divisor set of
// the usable cores and T = m*P; the metric is the virtual execution time of
// the timing model, so one search costs milliseconds of real time.

#include <cstdio>

#include "apps/nn_app.hpp"
#include "rt/tuner.hpp"

int main() {
  using namespace ms;
  const auto cfg = sim::SimConfig::phi_31sp();

  const auto metric = [&](rt::Tuner::Candidate c) {
    apps::NnConfig nc;
    nc.common.partitions = c.partitions;
    nc.common.functional = false;  // timing model only
    nc.common.protocol_iterations = 1;
    nc.records = 2048 * 1024;
    nc.tiles = c.tiles;
    return apps::NnApp::run(cfg, nc).ms;
  };

  rt::TunerOptions opt;
  opt.max_multiplier = 6;
  const auto pruned = rt::Tuner::pruned_space(cfg.device, opt);
  const auto best = rt::Tuner::search(pruned, metric);

  std::printf("auto-tuning NN (2M records) over the pruned (P, T) space\n");
  std::printf("  candidates evaluated: %zu (exhaustive would be %zu)\n", best.evaluated,
              rt::Tuner::exhaustive_space(cfg.device, 6 * 56).size());
  std::printf("  best: P = %d partitions, T = %d tiles -> %.2f virtual ms\n",
              best.best.partitions, best.best.tiles, best.best_metric);

  // Show the cost of a naive configuration for contrast.
  const double naive = metric({1, 1});
  std::printf("  naive (P = 1, T = 1): %.2f virtual ms — the tuned setup is %.2fx faster\n",
              naive, naive / best.best_metric);
  return 0;
}
