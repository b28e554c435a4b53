#include "apps/kmeans_async_app.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "kern/kmeans.hpp"
#include "rt/tile_plan.hpp"

namespace ms::apps {

AppResult KmeansAsyncApp::run(const sim::SimConfig& cfg, const KmeansConfig& kc) {
  const bool streamed = kc.common.streamed;
  const int tiles = streamed ? kc.tiles : 1;
  if (tiles < 1 || static_cast<std::size_t>(tiles) > kc.points) {
    throw std::invalid_argument("KmeansAsyncApp: invalid tile count");
  }
  if (kc.iterations < 1) {
    throw std::invalid_argument("KmeansAsyncApp: need at least one iteration");
  }

  rt::Context ctx(cfg);
  ctx.set_tracing(kc.common.tracing);
  ctx.setup(streamed ? kc.common.partitions : 1);
  const int streams = ctx.stream_count();

  const std::size_t n = kc.points;
  const std::size_t dims = kc.dims;
  const std::size_t k = kc.clusters;
  const std::size_t t_count = static_cast<std::size_t>(tiles);
  const std::size_t cent_elems = k * dims;

  // Double-buffered centroid and partial-sum slots: parity p = i % 2 holds
  // iteration i's inputs/outputs, so iteration i+1 can start while the host
  // still reduces iteration i-1.
  std::vector<float> points;
  std::vector<float> cent_host[2];
  std::vector<float> sums_host[2];
  std::vector<std::int32_t> counts_host[2];
  rt::BufferId bcent[2], bsums[2], bcounts[2];
  const rt::BufferId bpts = app_buffer(ctx, kc.common.functional, points, n * dims, "points");
  if (kc.common.functional) {
    fill_uniform(std::span<float>(points), 11, 0.0f, 10.0f);  // same data as the sync app
  }
  for (int p = 0; p < 2; ++p) {
    // Built piecewise: GCC 12's -Wrestrict false-positives on the
    // char* + std::string&& operator+ chain (PR105329).
    std::string tag = "[";
    tag += std::to_string(p);
    tag += ']';
    bcent[p] = app_buffer(ctx, kc.common.functional, cent_host[p], cent_elems,
                          std::string("centroids") += tag);
    bsums[p] = app_buffer(ctx, kc.common.functional, sums_host[p], t_count * cent_elems,
                          std::string("partial-sums") += tag);
    bcounts[p] = app_buffer(ctx, kc.common.functional, counts_host[p], t_count * k,
                            std::string("partial-counts") += tag);
    if (kc.common.functional) {
      std::memcpy(cent_host[p].data(), points.data(), cent_elems * sizeof(float));
    }
  }

  const auto ranges = rt::split_even(n, t_count);
  const std::vector<float> seed = cent_host[0];

  // Dedicated transfer stream: the centroid upload of iteration i+1 must
  // overlap iteration i's kernels instead of queueing behind tile 0's
  // kernel in a compute stream's FIFO.
  rt::Stream& io = ctx.add_stream(0, 0);

  AppResult result;
  result.ms = measure_ms(ctx, kc.common.protocol_iterations, [&](int) {
    if (kc.common.functional) {
      std::copy(seed.begin(), seed.end(), cent_host[0].begin());
      std::copy(seed.begin(), seed.end(), cent_host[1].begin());
    }

    for (std::size_t t = 0; t < t_count; ++t) {
      ctx.stream(static_cast<int>(t) % streams)
          .enqueue_h2d(bpts, ranges[t].begin * dims * sizeof(float),
                       ranges[t].size() * dims * sizeof(float));
    }

    // last_d2h[p][t]: the partials readback of the most recent iteration
    // with parity p on tile t.
    std::vector<rt::Event> last_d2h[2];
    last_d2h[0].assign(t_count, rt::Event{});
    last_d2h[1].assign(t_count, rt::Event{});

    for (int it = 0; it < kc.iterations; ++it) {
      const int par = it % 2;
      // The upload overwrites the same-parity device centroids, which the
      // kernels of iteration it-2 read; their readbacks postdate them, so
      // depending on those covers the write-after-read hazard.
      const rt::Event ev_c =
          io.enqueue_h2d(bcent[par], 0, cent_elems * sizeof(float), last_d2h[par]);

      for (std::size_t t = 0; t < t_count; ++t) {
        rt::Stream& s = ctx.stream(static_cast<int>(t) % streams);
        const rt::Range r = ranges[t];

        sim::KernelWork work;
        work.kind = sim::KernelKind::Generic;
        work.flops = kern::kmeans_assign_flops(r.size(), dims, k);
        work.elems = 3.0 * static_cast<double>(r.size() * dims * k);
        work.temp_alloc_bytes = static_cast<double>(cent_elems * sizeof(float));
        work.temp_alloc_per_thread = true;

        rt::KernelLaunch launch;
        launch.label = "kmeans-async-assign";
        launch.work = work;
        launch.reads(bpts, r.begin * dims * sizeof(float), r.size() * dims * sizeof(float));
        launch.reads(bcent[par], 0, cent_elems * sizeof(float));
        launch.writes(bsums[par], t * cent_elems * sizeof(float), cent_elems * sizeof(float));
        launch.writes(bcounts[par], t * k * sizeof(std::int32_t), k * sizeof(std::int32_t));
        if (kc.common.functional) {
          const rt::BufferId bc = bcent[par];
          const rt::BufferId bs = bsums[par];
          const rt::BufferId bn = bcounts[par];
          launch.fn = [&ctx, bpts, bc, bs, bn, r, t, dims, k, cent_elems] {
            const float* pts = ctx.device_ptr<float>(bpts, 0, r.begin * dims);
            const float* cent = ctx.device_ptr<float>(bc, 0);
            float* sum = ctx.device_ptr<float>(bs, 0, t * cent_elems);
            auto* cnt = ctx.device_ptr<std::int32_t>(bn, 0, t * k);
            std::vector<std::int32_t> memb(r.size());
            std::memset(sum, 0, cent_elems * sizeof(float));
            std::memset(cnt, 0, k * sizeof(std::int32_t));
            kern::kmeans_assign(pts, cent, memb.data(), r.size(), dims, k);
            kern::kmeans_accumulate(pts, memb.data(), sum, cnt, r.size(), dims, k);
          };
        }
        // The kernel must also wait for the previous same-parity readback of
        // this tile (it overwrites that slot's partials).
        s.enqueue_kernel(std::move(launch), {ev_c, last_d2h[par][t]});
        last_d2h[par][t] =
            s.enqueue_d2h(bsums[par], t * cent_elems * sizeof(float),
                          cent_elems * sizeof(float));
        last_d2h[par][t] = ctx.stream(static_cast<int>(t) % streams)
                               .enqueue_d2h(bcounts[par], t * k * sizeof(std::int32_t),
                                            k * sizeof(std::int32_t));
      }

      // The transformation: instead of a device-wide barrier, wait only for
      // the *previous* parity's readbacks; this iteration keeps running.
      if (it >= 1) {
        const int prev = 1 - par;
        for (std::size_t t = 0; t < t_count; ++t) ctx.wait(last_d2h[prev][t]);
        if (kc.common.functional) {
          std::vector<float> total(cent_elems, 0.0f);
          std::vector<std::int32_t> counts(k, 0);
          for (std::size_t t = 0; t < t_count; ++t) {
            for (std::size_t i = 0; i < cent_elems; ++i) {
              total[i] += sums_host[prev][t * cent_elems + i];
            }
            for (std::size_t i = 0; i < k; ++i) counts[i] += counts_host[prev][t * k + i];
          }
          // v(it-1) becomes the input of iteration it+1 (same parity slot).
          kern::kmeans_update(total.data(), counts.data(), cent_host[prev].data(), k, dims);
        }
        // The reduction rewrites the previous parity's host centroids
        // (modeled but not executed in timing mode): the next same-parity
        // upload is not redundant.
        ctx.host_write(bcent[prev], 0, cent_elems * sizeof(float));
      }
    }
  });

  if (kc.common.functional) {
    // Fingerprint: the two centroid slots (the last two iterations' views).
    result.checksum = checksum(std::span<const float>(cent_host[0])) +
                      checksum(std::span<const float>(cent_host[1]));
  }
  result.timeline = std::move(ctx.timeline());
  return result;
}

}  // namespace ms::apps
