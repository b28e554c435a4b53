// Randomized stress suite for the runtime: generate random task graphs
// (random streams, kinds, sizes, and backward dependency edges), run them,
// and check the structural invariants the scheduler must uphold no matter
// what:
//   * every action completes (no lost wakeups / deadlocks),
//   * dependency edges are respected on the virtual timeline,
//   * actions of one stream never overlap (in-order streams),
//   * H2D/D2H spans never overlap each other (serialized DMA),
//   * the whole run is bit-deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "rt/context.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {
namespace {

struct GraphSpec {
  std::uint32_t seed = 0;
  int partitions = 4;
  int actions = 120;
};

struct BuiltGraph {
  std::vector<Event> events;
  std::vector<std::vector<std::size_t>> deps;  // indices of dependency actions
};

BuiltGraph build_random_graph(Context& ctx, BufferId buf, const GraphSpec& spec) {
  std::mt19937 rng(spec.seed);
  std::uniform_int_distribution<int> stream_pick(0, ctx.stream_count() - 1);
  std::uniform_int_distribution<int> kind_pick(0, 3);
  std::uniform_real_distribution<double> size_pick(1e4, 5e6);
  std::uniform_int_distribution<int> dep_count_pick(0, 3);

  BuiltGraph g;
  g.events.reserve(static_cast<std::size_t>(spec.actions));
  g.deps.resize(static_cast<std::size_t>(spec.actions));

  const std::size_t buf_bytes = ctx.buffer_size(buf);
  for (int i = 0; i < spec.actions; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    // Random backward dependencies (acyclic by construction).
    std::vector<Event> deps;
    if (i > 0) {
      const int n = dep_count_pick(rng);
      std::uniform_int_distribution<std::size_t> dep_pick(0, idx - 1);
      for (int d = 0; d < n; ++d) {
        const std::size_t target = dep_pick(rng);
        g.deps[idx].push_back(target);
        deps.push_back(g.events[target]);
      }
    }

    Stream& s = ctx.stream(stream_pick(rng));
    Event ev;
    switch (kind_pick(rng)) {
      case 0: {
        const auto bytes = static_cast<std::size_t>(size_pick(rng));
        ev = s.enqueue_h2d(buf, 0, std::min(bytes, buf_bytes), deps);
        break;
      }
      case 1: {
        const auto bytes = static_cast<std::size_t>(size_pick(rng));
        ev = s.enqueue_d2h(buf, 0, std::min(bytes, buf_bytes), deps);
        break;
      }
      case 2: {
        sim::KernelWork w;
        w.kind = sim::KernelKind::Streaming;
        w.elems = size_pick(rng);
        ev = s.enqueue_kernel({"stress", w, {}}, deps);
        break;
      }
      default:
        ev = s.enqueue_barrier(deps);
        break;
    }
    g.events.push_back(ev);
  }
  return g;
}

class StressDag : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StressDag, InvariantsHold) {
  GraphSpec spec;
  spec.seed = GetParam();
  spec.partitions = 1 + static_cast<int>(spec.seed % 7);

  Context ctx(sim::SimConfig::phi_31sp());
  ctx.set_tracing(true);
  ctx.setup(spec.partitions);
  const BufferId buf = ctx.create_virtual_buffer(8 << 20);

  const auto graph = build_random_graph(ctx, buf, spec);
  ctx.synchronize();

  // 1. Everything completed.
  for (const Event& e : graph.events) {
    ASSERT_TRUE(e.done());
  }

  // 2. Dependencies respected: dependent completes no earlier than its deps.
  for (std::size_t i = 0; i < graph.deps.size(); ++i) {
    for (const std::size_t d : graph.deps[i]) {
      EXPECT_GE(graph.events[i].time(), graph.events[d].time()) << i << " dep " << d;
    }
  }

  // 3. Per-stream spans are disjoint (in-order streams) and
  // 4. transfers are globally disjoint (serialized DMA).
  const auto& spans = ctx.timeline().spans();
  std::vector<std::vector<std::pair<double, double>>> per_stream(
      static_cast<std::size_t>(ctx.stream_count()));
  std::vector<std::pair<double, double>> transfers;
  for (const auto& s : spans) {
    if (s.start != s.end) {  // barriers are instantaneous
      per_stream[static_cast<std::size_t>(s.stream)].push_back(
          {s.start.micros(), s.end.micros()});
    }
    if (s.kind == trace::SpanKind::H2D || s.kind == trace::SpanKind::D2H) {
      transfers.push_back({s.start.micros(), s.end.micros()});
    }
  }
  auto assert_disjoint = [](std::vector<std::pair<double, double>>& v, const char* what) {
    std::sort(v.begin(), v.end());
    for (std::size_t i = 1; i < v.size(); ++i) {
      EXPECT_LE(v[i - 1].second, v[i].first + 1e-9) << what << " overlap at " << i;
    }
  };
  for (auto& lane : per_stream) assert_disjoint(lane, "stream");
  assert_disjoint(transfers, "dma");
}

TEST_P(StressDag, Deterministic) {
  auto run_once = [&] {
    GraphSpec spec;
    spec.seed = GetParam();
    Context ctx(sim::SimConfig::phi_31sp());
    ctx.setup(3);
    const BufferId buf = ctx.create_virtual_buffer(8 << 20);
    build_random_graph(ctx, buf, spec);
    ctx.synchronize();
    return ctx.host_time().micros();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressDag,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 10u, 42u, 99u, 1234u, 777777u));

}  // namespace
}  // namespace ms::rt
