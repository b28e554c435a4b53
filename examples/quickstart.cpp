// Quickstart: the mstream public API in one screen.
//
// Build a simulated Xeon Phi platform, partition it into four places with
// one stream each, and pipeline a tiled B[i] = A[i] + 1 across the streams:
// while one tile computes, the next tile's input crosses the (serialized)
// PCIe link. Everything is verified on the host afterwards, and the virtual
// timeline shows the overlap.

#include <cstdio>
#include <iostream>
#include <vector>

#include "kern/saxpy_iter.hpp"
#include "rt/context.hpp"
#include "rt/tile_plan.hpp"
#include "sim/sim_config.hpp"

int main() {
  using namespace ms;

  // 1. A platform (one simulated Phi 31SP) and a context with 4 partitions
  //    that records its timeline (step 6 draws it).
  rt::Context ctx(sim::SimConfig::phi_31sp());
  ctx.set_tracing(true);
  ctx.setup(/*partitions_per_device=*/4);

  // 2. Host data, registered as buffers (device instantiations are created
  //    automatically).
  constexpr std::size_t n = 1u << 20;
  std::vector<float> a(n, 41.0f);
  std::vector<float> b(n, 0.0f);
  const rt::BufferId ba = ctx.create_buffer(std::span<float>(a));
  const rt::BufferId bb = ctx.create_buffer(std::span<float>(b));

  // 3. Cut the work into 8 tiles and round-robin them over the streams:
  //    H2D -> kernel -> D2H per tile, each stream strictly in order,
  //    different streams overlapping wherever the hardware allows.
  const auto tiles = rt::split_even(n, 8);
  const sim::SimTime t0 = ctx.host_time();
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    rt::Stream& s = ctx.stream(static_cast<int>(t) % ctx.stream_count());
    const rt::Range r = tiles[t];
    s.enqueue_h2d(ba, r.begin * sizeof(float), r.size() * sizeof(float));

    sim::KernelWork work;
    work.kind = sim::KernelKind::Streaming;
    work.elems = kern::saxpy_elems(r.size(), 60);
    s.enqueue_kernel({"saxpy", work, [&ctx, ba, bb, r] {
                        kern::saxpy_iter(ctx.device_ptr<float>(ba, 0, r.begin),
                                         ctx.device_ptr<float>(bb, 0, r.begin), r.size(), 1.0f,
                                         60);
                      }});
    s.enqueue_d2h(bb, r.begin * sizeof(float), r.size() * sizeof(float));
  }

  // 4. Wait for everything and read the virtual clock.
  ctx.synchronize();
  const double elapsed_ms = (ctx.host_time() - t0).millis();

  // 5. The results are real: check them.
  std::size_t wrong = 0;
  for (const float x : b) {
    if (x != 42.0f) ++wrong;
  }
  std::printf("streamed pipeline finished in %.2f virtual ms; %zu of %zu results wrong\n",
              elapsed_ms, wrong, b.size());

  // 6. And the timeline shows the pipelining ('>' H2D, '#' kernel, '<' D2H):
  ctx.timeline().render_gantt(std::cout, 96);
  return wrong == 0 ? 0 : 1;
}
