// Proves the direct-issue zero-allocation steady state: once a warm-up pass
// has grown the action/state/edge pools and the engine heap, a
// hotspot-shaped grid of Stream::enqueue_kernel calls with up to five
// dependencies each, plus synchronize(), performs no heap allocation.
// Declared accesses may cost one allocation per kernel (the access list).
// Transfers split into DMA chunks (LinkSpec::dma_chunk_bytes) allocate
// nothing either: each chunk's continuation rides in the engine's event.
// The same grid bounds the pool memory each in-flight kernel holds.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "rt/context.hpp"
#include "sim/chunk_depot.hpp"

namespace ms::rt {
namespace {

/// A Hotspot-style stencil on one context: every step, each tile of a
/// side x side grid runs a kernel that waits for itself and its four
/// neighbours from the previous step.
struct Grid {
  explicit Grid(std::size_t tiles_per_side = 8, int step_count = 6)
      : side(tiles_per_side), steps(step_count), ctx(sim::SimConfig::phi_31sp()) {
    ctx.setup(4);
    ctx.set_tracing(false);
    buf = ctx.create_virtual_buffer(side * side * 64);
    prev.resize(side * side);
    cur.resize(side * side);
    deps.reserve(5);
  }

  /// One pass plus synchronize(); returns the number of kernels issued.
  std::size_t pass(bool declare) {
    const auto at = [this](std::size_t r, std::size_t c) { return r * side + c; };
    std::size_t kernels = 0;
    for (int step = 0; step < steps; ++step) {
      for (std::size_t t = 0; t < side * side; ++t) {
        const std::size_t r = t / side;
        const std::size_t c = t % side;
        deps.clear();
        if (step > 0) {
          deps.push_back(prev[t]);
          if (r > 0) deps.push_back(prev[at(r - 1, c)]);
          if (r + 1 < side) deps.push_back(prev[at(r + 1, c)]);
          if (c > 0) deps.push_back(prev[at(r, c - 1)]);
          if (c + 1 < side) deps.push_back(prev[at(r, c + 1)]);
        }
        KernelLaunch launch;
        launch.label = "stencil";
        launch.work.kind = sim::KernelKind::Stencil;
        launch.work.elems = 1e4;
        if (declare) {
          launch.reads(buf, t * 64, 64);
          launch.writes(buf, t * 64, 64);
        }
        cur[t] = ctx.stream(static_cast<int>(t % 4)).enqueue_kernel(std::move(launch), deps);
        ++kernels;
      }
      std::swap(prev, cur);
    }
    ctx.synchronize();
    return kernels;
  }

  const std::size_t side;
  const int steps;
  Context ctx;
  BufferId buf;
  std::vector<Event> prev, cur, deps;
};

TEST(DirectIssueAlloc, SteadyStateStencilAllocatesNothing) {
  Grid g;
  for (int i = 0; i < 3; ++i) (void)g.pass(/*declare=*/false);

  const std::size_t before = test::alloc_count();
  for (int i = 0; i < 10; ++i) (void)g.pass(/*declare=*/false);
  EXPECT_EQ(test::alloc_count() - before, 0u)
      << "steady-state direct issue with dependencies must not allocate";
}

TEST(DirectIssueAlloc, DeclaredAccessesCostAtMostOneAllocationPerKernel) {
  Grid g;
  for (int i = 0; i < 3; ++i) (void)g.pass(/*declare=*/true);

  const std::size_t before = test::alloc_count();
  std::size_t kernels = 0;
  for (int i = 0; i < 10; ++i) kernels += g.pass(/*declare=*/true);
  EXPECT_LE(test::alloc_count() - before, kernels);
}

// A pass keeps every kernel's Action node, state node and waiter edges live
// until its synchronize(). Once the Context is gone, every pool chunk it grew
// is parked in the chunk depot, so the parked bytes are the pool memory the
// pass needed.
TEST(Footprint, HotspotKernelHoldsAtMost224PoolBytes) {
  sim::detail::ChunkDepot::trim();
  std::size_t kernels = 0;
  {
    Grid g(/*tiles_per_side=*/16, /*step_count=*/16);  // 4.75 neighbours per tile on average
    kernels = g.pass(/*declare=*/false);
  }
  const double per_kernel =
      static_cast<double>(sim::detail::ChunkDepot::parked_bytes()) / static_cast<double>(kernels);
  EXPECT_LE(per_kernel, 224.0) << "pool bytes per in-flight kernel";
  EXPECT_GT(per_kernel, 0.0);
  sim::detail::ChunkDepot::trim();
}

TEST(DirectIssueAlloc, SteadyStateChunkedTransfersAllocateNothing) {
  auto cfg = sim::SimConfig::phi_31sp();
  cfg.link.dma_chunk_bytes = 64 << 10;
  Context ctx(cfg);
  ctx.setup(4);
  ctx.set_tracing(false);
  constexpr std::size_t kBytes = 1 << 20;  // 16 chunks per transfer
  const BufferId buf = ctx.create_virtual_buffer(4 * kBytes);
  const auto pass = [&] {
    for (int s = 0; s < 4; ++s) {
      const std::size_t offset = static_cast<std::size_t>(s) * kBytes;
      (void)ctx.stream(s).enqueue_h2d(buf, offset, kBytes);
      (void)ctx.stream(s).enqueue_d2h(buf, offset, kBytes);
    }
    ctx.synchronize();
  };
  for (int i = 0; i < 3; ++i) pass();

  const std::size_t before = test::alloc_count();
  for (int i = 0; i < 10; ++i) pass();
  EXPECT_EQ(test::alloc_count() - before, 0u)
      << "steady-state chunked transfers must not allocate";
}

}  // namespace
}  // namespace ms::rt
