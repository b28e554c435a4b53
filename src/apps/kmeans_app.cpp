#include "apps/kmeans_app.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "kern/kmeans.hpp"
#include "rt/graph.hpp"
#include "rt/tile_plan.hpp"

namespace ms::apps {

AppResult KmeansApp::run(const sim::SimConfig& cfg, const KmeansConfig& kc) {
  const bool streamed = kc.common.streamed;
  const int tiles = streamed ? kc.tiles : 1;
  if (tiles < 1 || static_cast<std::size_t>(tiles) > kc.points) {
    throw std::invalid_argument("KmeansApp: invalid tile count");
  }

  rt::Context ctx(cfg);
  ctx.set_tracing(kc.common.tracing);
  ctx.setup(streamed ? kc.common.partitions : 1);
  const int streams = ctx.stream_count();

  const std::size_t n = kc.points;
  const std::size_t dims = kc.dims;
  const std::size_t k = kc.clusters;
  const std::size_t t_count = static_cast<std::size_t>(tiles);

  std::vector<float> points, centroids, sums;
  std::vector<std::int32_t> counts, membership;
  const rt::BufferId bpts = app_buffer(ctx, kc.common.functional, points, n * dims, "points");
  const rt::BufferId bcent =
      app_buffer(ctx, kc.common.functional, centroids, k * dims, "centroids");
  const rt::BufferId bsums =
      app_buffer(ctx, kc.common.functional, sums, t_count * k * dims, "partial-sums");
  const rt::BufferId bcounts =
      app_buffer(ctx, kc.common.functional, counts, t_count * k, "partial-counts");
  const rt::BufferId bmemb = app_buffer(ctx, kc.common.functional, membership, n, "membership");
  if (kc.common.functional) {
    fill_uniform(std::span<float>(points), 11, 0.0f, 10.0f);
    // Standard seeding: the first k points.
    std::memcpy(centroids.data(), points.data(), k * dims * sizeof(float));
    std::fill(membership.begin(), membership.end(), -1);
  }

  const auto ranges = rt::split_even(n, t_count);
  std::vector<float> seed_centroids = centroids;  // reset between protocol runs

  // One k-means iteration's device schedule is the replay-shaped phase: in
  // graph modes it is stream-captured once and replayed kc.iterations times
  // per protocol run, instead of re-enqueueing every action.
  GraphPhase phase(ctx, kc.common.graph, "kmeans");

  AppResult result;
  result.ms = measure_ms(ctx, kc.common.protocol_iterations, [&](int) {
    // In-place copy: the buffer registration pins the vector's storage.
    if (kc.common.functional) {
      std::copy(seed_centroids.begin(), seed_centroids.end(), centroids.begin());
    }

    // Points move once, pipelined with the first iteration's kernels.
    for (std::size_t t = 0; t < t_count; ++t) {
      ctx.stream(static_cast<int>(t) % streams)
          .enqueue_h2d(bpts, ranges[t].begin * dims * sizeof(float),
                       ranges[t].size() * dims * sizeof(float));
    }

    // One iteration's device schedule, as reusable pieces: enqueued directly
    // every iteration (the classic port) or captured once by the phase and
    // replayed (the graph modes).
    auto make_launch = [&](std::size_t t) {
      const rt::Range r = ranges[t];
      sim::KernelWork work;
      work.kind = sim::KernelKind::Generic;
      work.flops = kern::kmeans_assign_flops(r.size(), dims, k);
      // The assignment loop re-walks each point row once per centroid with
      // poor locality (AoS layout, branchy argmin), so the memory path
      // sees ~3 visits per (point, dim, centroid) triple.
      work.elems = 3.0 * static_cast<double>(r.size() * dims * k);
      // The per-launch, thread-private scratch that drives Fig. 9(c).
      work.temp_alloc_bytes = static_cast<double>(k * dims * sizeof(float));
      work.temp_alloc_per_thread = true;

      rt::KernelLaunch launch;
      launch.label = "kmeans-assign";
      launch.work = work;
      launch.reads(bpts, r.begin * dims * sizeof(float), r.size() * dims * sizeof(float));
      launch.reads(bcent, 0, k * dims * sizeof(float));
      launch.writes(bsums, t * k * dims * sizeof(float), k * dims * sizeof(float));
      launch.writes(bcounts, t * k * sizeof(std::int32_t), k * sizeof(std::int32_t));
      launch.writes(bmemb, r.begin * sizeof(std::int32_t), r.size() * sizeof(std::int32_t));
      if (kc.common.functional) {
        launch.fn = [&ctx, bpts, bcent, bsums, bcounts, bmemb, r, t, dims, k] {
          const float* pts = ctx.device_ptr<float>(bpts, 0, r.begin * dims);
          const float* cent = ctx.device_ptr<float>(bcent, 0);
          float* sum = ctx.device_ptr<float>(bsums, 0, t * k * dims);
          auto* cnt = ctx.device_ptr<std::int32_t>(bcounts, 0, t * k);
          auto* memb = ctx.device_ptr<std::int32_t>(bmemb, 0, r.begin);
          std::memset(sum, 0, k * dims * sizeof(float));
          std::memset(cnt, 0, k * sizeof(std::int32_t));
          kern::kmeans_assign(pts, cent, memb, r.size(), dims, k);
          kern::kmeans_accumulate(pts, memb, sum, cnt, r.size(), dims, k);
        };
      }
      return launch;
    };

    for (int it = 0; it < kc.iterations; ++it) {
      phase.run([&] {
        const rt::Event ev_c = ctx.stream(0).enqueue_h2d(bcent, 0, k * dims * sizeof(float));
        for (std::size_t t = 0; t < t_count; ++t) {
          rt::Stream& s = ctx.stream(static_cast<int>(t) % streams);
          s.enqueue_kernel(make_launch(t), {ev_c});
          s.enqueue_d2h(bsums, t * k * dims * sizeof(float), k * dims * sizeof(float));
          s.enqueue_d2h(bcounts, t * k * sizeof(std::int32_t), k * sizeof(std::int32_t));
        }
      });

      // The explicit per-iteration barrier that makes Kmeans non-overlappable.
      ctx.synchronize();

      if (kc.common.functional) {
        // Host reduction of per-tile partials into new centroids.
        std::vector<float> total_sums(k * dims, 0.0f);
        std::vector<std::int32_t> total_counts(k, 0);
        for (std::size_t t = 0; t < t_count; ++t) {
          for (std::size_t i = 0; i < k * dims; ++i) total_sums[i] += sums[t * k * dims + i];
          for (std::size_t i = 0; i < k; ++i) total_counts[i] += counts[t * k + i];
        }
        kern::kmeans_update(total_sums.data(), total_counts.data(), centroids.data(), k, dims);
      }
      // The host rewrites the centroids between iterations (the reduction
      // above; modeled but not executed in timing mode), so the next
      // iteration's centroid upload is not redundant.
      ctx.host_write(bcent, 0, k * dims * sizeof(float));
    }

    // Final membership readback.
    for (std::size_t t = 0; t < t_count; ++t) {
      ctx.stream(static_cast<int>(t) % streams)
          .enqueue_d2h(bmemb, ranges[t].begin * sizeof(std::int32_t),
                       ranges[t].size() * sizeof(std::int32_t));
    }
  });

  if (kc.common.functional) {
    double s = checksum(std::span<const float>(centroids));
    for (const std::int32_t m : membership) s += static_cast<double>(m);
    result.checksum = s;
  }
  result.timeline = std::move(ctx.timeline());
  return result;
}

}  // namespace ms::apps
