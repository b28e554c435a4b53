// Extension ablation: how much of Fig. 10's right-hand decline is the
// *host's* per-action enqueue cost (as opposed to device-side launch
// overheads)? The recorded-graph API (rt::Graph) re-issues a whole schedule
// for a per-node cost ~20x below action_enqueue, so replaying the same
// pipeline at growing task counts separates the two contributions.
//
// Part two is the compiled-executor A/B: real *wall-clock* host cost per
// replay for direct re-enqueue of the same schedule vs CompiledGraph::launch(),
// interleaved and reported as medians.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tile_plan.hpp"
#include "trace/report.hpp"

namespace {

constexpr std::size_t kBytes = 16u << 20;

ms::sim::KernelWork task_work(int tiles) {
  ms::sim::KernelWork w;
  w.kind = ms::sim::KernelKind::Streaming;
  w.elems = 4.0 * (1 << 20) * 40.0 / tiles;
  return w;
}

/// The pipeline schedule issued directly: per tile an h2d, a kernel and a
/// d2h on one of 4 streams, each action paying the full enqueue cost.
void enqueue_direct(ms::rt::Context& ctx, ms::rt::BufferId buf, int tiles) {
  const auto ranges = ms::rt::split_even(kBytes, static_cast<std::size_t>(tiles));
  for (std::size_t t = 0; t < ranges.size(); ++t) {
    auto& s = ctx.stream(static_cast<int>(t) % 4);
    s.enqueue_h2d(buf, ranges[t].begin, ranges[t].size());
    s.enqueue_kernel({"k", task_work(tiles), {}});
    s.enqueue_d2h(buf, ranges[t].begin, ranges[t].size());
  }
}

double run_direct(const ms::sim::SimConfig& cfg, int tiles) {
  ms::rt::Context ctx(cfg);
  ctx.set_tracing(false);
  ctx.setup(4);
  const auto buf = ctx.create_virtual_buffer(kBytes);
  ctx.synchronize();
  const auto t0 = ctx.host_time();
  enqueue_direct(ctx, buf, tiles);
  ctx.synchronize();
  return (ctx.host_time() - t0).millis();
}

double run_replay(const ms::sim::SimConfig& cfg, int tiles) {
  ms::rt::Context ctx(cfg);
  ctx.set_tracing(false);
  ctx.setup(4);
  const auto buf = ctx.create_virtual_buffer(kBytes);
  ms::rt::Graph g;
  const auto ranges = ms::rt::split_even(kBytes, static_cast<std::size_t>(tiles));
  for (std::size_t t = 0; t < ranges.size(); ++t) {
    const int s = static_cast<int>(t) % 4;
    const auto up = g.add_h2d(s, buf, ranges[t].begin, ranges[t].size());
    const auto k = g.add_kernel(s, {"k", task_work(tiles), {}}, {up});
    g.add_d2h(s, buf, ranges[t].begin, ranges[t].size(), {k});
  }
  auto cg = g.compile(ctx);
  ctx.synchronize();
  const auto t0 = ctx.host_time();
  cg.launch(ctx);
  ctx.synchronize();
  return (ctx.host_time() - t0).millis();
}

// ---------------------------------------------------------------------------
// Compiled-executor A/B (real wall clock)
// ---------------------------------------------------------------------------

/// A context + recorded pipeline graph of `tiles` tasks over 4 streams.
struct Rig {
  ms::rt::Context ctx;
  ms::rt::BufferId buf;
  int tiles;
  ms::rt::Graph graph;

  explicit Rig(const ms::sim::SimConfig& cfg, int tiles) : ctx(cfg), tiles(tiles) {
    ctx.set_tracing(false);
    ctx.setup(4);
    buf = ctx.create_virtual_buffer(kBytes);
    const auto ranges = ms::rt::split_even(kBytes, static_cast<std::size_t>(tiles));
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      const int s = static_cast<int>(t) % 4;
      const auto up = graph.add_h2d(s, buf, ranges[t].begin, ranges[t].size());
      const auto k = graph.add_kernel(s, {"k", task_work(tiles), {}}, {up});
      graph.add_d2h(s, buf, ranges[t].begin, ranges[t].size(), {k});
    }
    ctx.synchronize();
  }
};

template <typename F>
double wall_us(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void compiled_ab(const ms::sim::SimConfig& cfg, int tiles, int reps, const ms::bench::Options& opt) {
  using ms::trace::Table;
  Rig rig(cfg, tiles);
  auto cg = rig.graph.compile(rig.ctx);

  // Warm every path (action pools, compiled run pool + per-context
  // validation cache) so steady-state replays are measured.
  enqueue_direct(rig.ctx, rig.buf, rig.tiles);
  cg.launch(rig.ctx);
  rig.ctx.synchronize();

  // Interleaved samples: one of each path per round, medians across rounds.
  std::vector<double> direct, compiled;
  for (int rep = 0; rep < reps; ++rep) {
    direct.push_back(wall_us([&] { enqueue_direct(rig.ctx, rig.buf, rig.tiles); }));
    rig.ctx.synchronize();
    compiled.push_back(wall_us([&] { cg.launch(rig.ctx); }));
    rig.ctx.synchronize();
  }

  const double md = median(direct), mc = median(compiled);
  Table t({"path", "host per replay [us]", "vs direct"});
  t.add_row({"direct re-enqueue", Table::num(md), "1.00x"});
  t.add_row({"compiled launch()", Table::num(mc), Table::num(md / mc) + "x"});
  ms::bench::emit(t, "compiled_ab_T" + std::to_string(tiles),
                  "compiled executor A/B at T=" + std::to_string(tiles) + " (" +
                      std::to_string(3 * tiles + 1) + " nodes, medians of " +
                      std::to_string(reps) + " interleaved rounds)",
                  opt);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = ms::bench::parse(argc, argv);
  const auto cfg = ms::sim::SimConfig::phi_31sp();
  using ms::trace::Table;

  Table t({"T", "direct enqueue [ms]", "graph replay [ms]", "host share removed"});
  const std::vector<int> tiles = opt.quick ? std::vector<int>{8, 512}
                                           : std::vector<int>{4, 8, 16, 64, 256, 1024, 4096};
  for (const int n : tiles) {
    const double direct = run_direct(cfg, n);
    const double replay = run_replay(cfg, n);
    t.add_row({std::to_string(n), Table::num(direct), Table::num(replay),
               ms::bench::improvement_cell(direct, replay)});
  }
  ms::bench::emit(t, "ablation_graph_replay",
                  "graph replay vs per-action enqueue over task granularity", opt);

  std::cout << "\nat small T the curves agree (device work dominates); at huge T the direct\n"
               "version pays 3 x T x action_enqueue on the host while the replay does not —\n"
               "that difference is the host-side share of Fig. 10's right-hand decline.\n\n";

  // Part two: what the *compiled* executor saves the host per replay, on a
  // >=1k-node schedule.
  compiled_ab(cfg, /*tiles=*/512, /*reps=*/opt.quick ? 5 : 11, opt);
  return 0;
}
