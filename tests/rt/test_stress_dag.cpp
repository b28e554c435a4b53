// Randomized stress suite for the runtime: run the random task graphs of
// random_dag.hpp and check the structural invariants the scheduler must
// uphold no matter what:
//   * every action completes (no lost wakeups / deadlocks),
//   * dependency edges are respected on the virtual timeline,
//   * actions of one stream never overlap (in-order streams),
//   * H2D/D2H spans never overlap each other (serialized DMA),
//   * the whole run is bit-deterministic.
// The passivity harness (tests/integration/test_passivity.cpp) runs them too.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "random_dag.hpp"
#include "rt/context.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {
namespace {

class StressDag : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StressDag, InvariantsHold) {
  test::GraphSpec spec;
  spec.seed = GetParam();
  spec.partitions = 1 + static_cast<int>(spec.seed % 7);

  Context ctx(sim::SimConfig::phi_31sp());
  ctx.set_tracing(true);
  ctx.setup(spec.partitions);
  const BufferId buf = ctx.create_virtual_buffer(8 << 20);

  const auto graph = test::build_random_graph(ctx, buf, spec);
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

INSTANTIATE_TEST_SUITE_P(Seeds, StressDag,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 10u, 42u, 99u, 1234u, 777777u));

}  // namespace
}  // namespace ms::rt
