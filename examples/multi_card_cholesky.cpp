// Section VI of the paper: the same streamed Cholesky factorization runs on
// one and on two simulated Phi cards *without code changes* — the runtime's
// tile-coherence layer inserts the cross-card PCIe round trips.
//
// Two runs are shown:
//   * a functional run (small matrix) proving both configurations compute
//     the identical factor, and
//   * a paper-scale timing run (14000^2, virtual buffers) showing the
//     speedup that stays below the 2x projection because of the extra
//     transfers and cross-card synchronization.

#include <cmath>
#include <cstdio>

#include "apps/cf_app.hpp"
#include "trace/timeline.hpp"

int main() {
  using namespace ms;

  // --- correctness at functional scale -------------------------------------
  apps::CfConfig cfg;
  cfg.dim = 960;
  cfg.tile = 96;
  cfg.common.partitions = 4;
  const auto f_one = apps::CfApp::run(sim::SimConfig::phi_31sp(), cfg);
  const auto f_two = apps::CfApp::run(sim::SimConfig::phi_31sp_x2(), cfg);
  const double diff = std::abs(f_one.checksum - f_two.checksum);
  const bool agree = diff < 1e-9 * std::abs(f_one.checksum);
  std::printf("functional check (%zu x %zu): 1-card and 2-card factors %s (|diff| = %.2e)\n",
              cfg.dim, cfg.dim, agree ? "agree" : "DISAGREE", diff);

  // --- scaling at paper scale (timing model) -------------------------------
  apps::CfConfig big;
  big.dim = 14000;
  big.tile = 1400;
  big.common.partitions = 4;
  big.common.functional = false;
  big.common.tracing = true;  // the transfer counts come from the timeline
  big.common.protocol_iterations = 1;
  const auto one = apps::CfApp::run(sim::SimConfig::phi_31sp(), big);
  const auto two = apps::CfApp::run(sim::SimConfig::phi_31sp_x2(), big);

  auto transfers = [](const trace::Timeline& t) {
    return t.count(trace::SpanKind::H2D) + t.count(trace::SpanKind::D2H);
  };
  std::printf("\nCholesky %zu x %zu, %zu x %zu tiles, 4 partitions per card:\n", big.dim,
              big.dim, big.dim / big.tile, big.dim / big.tile);
  std::printf("  1 card : %9.1f virtual ms  (%6.1f GFLOPS, %4zu transfers)\n", one.ms,
              one.gflops, transfers(one.timeline));
  std::printf("  2 cards: %9.1f virtual ms  (%6.1f GFLOPS, %4zu transfers)\n", two.ms,
              two.gflops, transfers(two.timeline));
  std::printf("  scaling: %.2fx of a perfect 2.00x — the gap is the cross-card tile\n"
              "  traffic (%zu extra transfers) plus cross-card synchronization\n",
              one.ms / two.ms, transfers(two.timeline) - transfers(one.timeline));
  return agree ? 0 : 1;
}
