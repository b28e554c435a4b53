// The "modern workflow" on top of the reproduction: describe an offload
// analytically, let the closed-form model pick (P, T) (the paper's
// future-work modelling), record the chosen schedule once as a graph,
// compile it, and replay it across iterations — paying the host enqueue cost
// once instead of every iteration. Ends with a utilization report explaining
// where the time went.

#include <cstdio>
#include <iostream>

#include "model/analytic.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tile_plan.hpp"
#include "trace/utilization.hpp"

int main() {
  using namespace ms;

  // 1. Describe the per-iteration offload: 24 MiB in, 24 MiB out, a
  //    moderately compute-heavy kernel.
  model::OffloadShape shape;
  shape.h2d_bytes = 24.0 * (1 << 20);
  shape.d2h_bytes = 24.0 * (1 << 20);
  shape.work.kind = sim::KernelKind::Streaming;
  shape.work.elems = 3e8;

  // 2. Ask the analytic model for a configuration (zero simulator runs).
  const auto cfg = sim::SimConfig::phi_31sp();
  const model::AnalyticModel model(cfg);
  const auto choice = model.best_configuration(shape, 12);
  std::printf("model recommends P = %d, T = %d (predicted %.2f ms per iteration)\n",
              choice.partitions, choice.tiles, choice.predicted_ms);

  // 3. Record the schedule once...
  rt::Context ctx(cfg);
  ctx.set_tracing(true);  // the summary below reads the timeline
  ctx.setup(choice.partitions);
  const auto bin = ctx.create_virtual_buffer(static_cast<std::size_t>(shape.h2d_bytes));
  const auto bout = ctx.create_virtual_buffer(static_cast<std::size_t>(shape.d2h_bytes));

  rt::Graph graph;
  const auto in_ranges =
      rt::split_even(static_cast<std::size_t>(shape.h2d_bytes), static_cast<std::size_t>(choice.tiles));
  const auto out_ranges =
      rt::split_even(static_cast<std::size_t>(shape.d2h_bytes), static_cast<std::size_t>(choice.tiles));
  for (int t = 0; t < choice.tiles; ++t) {
    const int s = t % ctx.stream_count();
    sim::KernelWork w = shape.work;
    w.elems /= choice.tiles;
    const auto up = graph.add_h2d(s, bin, in_ranges[static_cast<std::size_t>(t)].begin,
                                  in_ranges[static_cast<std::size_t>(t)].size());
    const auto k = graph.add_kernel(s, {"task", w, {}}, {up});
    graph.add_d2h(s, bout, out_ranges[static_cast<std::size_t>(t)].begin,
                  out_ranges[static_cast<std::size_t>(t)].size(), {k});
  }

  // 4. ...compile it once, and replay it.
  constexpr int kIterations = 20;
  rt::CompiledGraph compiled = graph.compile(ctx);
  ctx.synchronize();
  const sim::SimTime t0 = ctx.host_time();
  for (int i = 0; i < kIterations; ++i) {
    compiled.launch(ctx);
    ctx.synchronize();
  }
  const double per_iter = (ctx.host_time() - t0).millis() / kIterations;
  std::printf("measured: %.2f ms per iteration over %d graph replays (model said %.2f)\n",
              per_iter, kIterations, choice.predicted_ms);

  // 5. Where did the time go?
  trace::print(std::cout, trace::summarize(ctx.timeline()));
  return 0;
}
