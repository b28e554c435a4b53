#pragma once

// Seeded random task graphs for the runtime: random streams, kinds, sizes
// and backward dependency edges (acyclic by construction).

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "rt/context.hpp"

namespace ms::test {

struct GraphSpec {
  std::uint32_t seed = 0;
  int partitions = 4;
  int actions = 120;
};

struct BuiltGraph {
  std::vector<rt::Event> events;
  std::vector<std::vector<std::size_t>> deps;  // indices of dependency actions
};

inline BuiltGraph build_random_graph(rt::Context& ctx, rt::BufferId buf, const GraphSpec& spec) {
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
    std::vector<rt::Event> deps;
    if (i > 0) {
      const int n = dep_count_pick(rng);
      std::uniform_int_distribution<std::size_t> dep_pick(0, idx - 1);
      for (int d = 0; d < n; ++d) {
        const std::size_t target = dep_pick(rng);
        g.deps[idx].push_back(target);
        deps.push_back(g.events[target]);
      }
    }

    rt::Stream& s = ctx.stream(stream_pick(rng));
    rt::Event ev;
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

}  // namespace ms::test
