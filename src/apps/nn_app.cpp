#include "apps/nn_app.hpp"

#include <limits>
#include <stdexcept>

#include "rt/tile_plan.hpp"

namespace ms::apps {

NnApp::Output NnApp::run_with_output(const sim::SimConfig& cfg, const NnConfig& nc) {
  const bool streamed = nc.common.streamed;
  const int tiles = streamed ? nc.tiles : 1;
  if (tiles < 1 || static_cast<std::size_t>(tiles) > nc.records) {
    throw std::invalid_argument("NnApp: invalid tile count");
  }
  if (nc.k == 0) {
    throw std::invalid_argument("NnApp: k must be positive");
  }

  rt::Context ctx(cfg);
  ctx.set_tracing(nc.common.tracing);
  ctx.setup(streamed ? nc.common.partitions : 1);
  const int streams = ctx.stream_count();

  std::vector<kern::LatLng> records;
  std::vector<float> dist;
  const rt::BufferId brec = app_buffer(ctx, nc.common.functional, records, nc.records, "records");
  const rt::BufferId bdist = app_buffer(ctx, nc.common.functional, dist, nc.records, "dist");
  if (nc.common.functional) {
    // Two interleaved uniform fields give lat/lng spread around the target.
    fill_uniform(std::span<float>(reinterpret_cast<float*>(records.data()), nc.records * 2), 7,
                 0.0f, 180.0f);
  }

  std::vector<kern::Neighbor> best;
  const auto ranges = rt::split_even(nc.records, static_cast<std::size_t>(tiles));

  // The per-tile upload/kernel/readback sweep is identical every iteration;
  // the host-side top-k merge below stays outside the captured phase.
  GraphPhase phase(ctx, nc.common.graph, "nn");

  Output out;
  out.result.ms = measure_ms(ctx, nc.common.protocol_iterations, [&](int) {
    best.assign(nc.k, kern::Neighbor{std::numeric_limits<float>::max(), 0});
    phase.run([&] {
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      rt::Stream& s = ctx.stream(static_cast<int>(t) % streams);
      const rt::Range r = ranges[t];
      s.enqueue_h2d(brec, r.begin * sizeof(kern::LatLng), r.size() * sizeof(kern::LatLng));

      sim::KernelWork work;
      work.kind = sim::KernelKind::Streaming;
      work.elems = kern::nn_elems(r.size());
      work.flops = kern::nn_flops(r.size());

      rt::KernelLaunch launch;
      launch.label = "nn-dist";
      launch.work = work;
      launch.reads(brec, r.begin * sizeof(kern::LatLng), r.size() * sizeof(kern::LatLng));
      launch.writes(bdist, r.begin * sizeof(float), r.size() * sizeof(float));
      if (nc.common.functional) {
        const kern::LatLng target = nc.target;
        launch.fn = [&ctx, brec, bdist, r, target] {
          const auto* recs = ctx.device_ptr<kern::LatLng>(brec, 0, r.begin);
          float* d = ctx.device_ptr<float>(bdist, 0, r.begin);
          kern::nn_distances(recs, d, r.size(), target);
        };
      }
      s.enqueue_kernel(std::move(launch));
      s.enqueue_d2h(bdist, r.begin * sizeof(float), r.size() * sizeof(float));
    }
    });
    ctx.synchronize();
    // Host-side top-k merge (the "master thread updates the list" step).
    // nn_topk builds per-chunk partial lists in parallel and merges them in
    // index order — the final list is exactly the sequential scan's.
    if (nc.common.functional) {
      for (const rt::Range& r : ranges) {
        kern::nn_topk(dist.data() + r.begin, r.size(), r.begin, best.data(), nc.k);
      }
    }
  });

  if (nc.common.functional) {
    double s = 0.0;
    for (const kern::Neighbor& nb : best) s += nb.dist;
    out.result.checksum = s;
    out.neighbors = std::move(best);
  }
  out.result.timeline = std::move(ctx.timeline());
  return out;
}

AppResult NnApp::run(const sim::SimConfig& cfg, const NnConfig& nc) {
  return run_with_output(cfg, nc).result;
}

}  // namespace ms::apps
