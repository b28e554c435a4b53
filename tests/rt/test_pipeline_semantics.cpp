// Timing identities of the canonical H2D -> kernel -> D2H pipeline: the
// relations the paper's Fig. 1 sketch promises, verified exactly on the
// runtime (these are the semantics everything else builds on).

#include <gtest/gtest.h>

#include "rt/context.hpp"
#include "rt/tile_plan.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

sim::KernelWork elems(double n) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = n;
  return w;
}

struct PipelineTimes {
  double h2d;
  double kernel;
  double d2h;
  double serial;
};

PipelineTimes measure_parts(std::size_t bytes, double kernel_elems) {
  PipelineTimes out{};
  {
    Context ctx(cfg());
    const auto b = ctx.create_virtual_buffer(bytes);
    ctx.synchronize();
    const auto t0 = ctx.host_time();
    ctx.stream(0).enqueue_h2d(b, 0, bytes);
    ctx.synchronize();
    out.h2d = (ctx.host_time() - t0).millis();
  }
  {
    Context ctx(cfg());
    ctx.synchronize();
    const auto t0 = ctx.host_time();
    ctx.stream(0).enqueue_kernel({"k", elems(kernel_elems), {}});
    ctx.synchronize();
    out.kernel = (ctx.host_time() - t0).millis();
  }
  {
    Context ctx(cfg());
    const auto b = ctx.create_virtual_buffer(bytes);
    ctx.synchronize();
    const auto t0 = ctx.host_time();
    ctx.stream(0).enqueue_d2h(b, 0, bytes);
    ctx.synchronize();
    out.d2h = (ctx.host_time() - t0).millis();
  }
  {
    Context ctx(cfg());
    const auto b = ctx.create_virtual_buffer(bytes);
    ctx.synchronize();
    const auto t0 = ctx.host_time();
    ctx.stream(0).enqueue_h2d(b, 0, bytes);
    ctx.stream(0).enqueue_kernel({"k", elems(kernel_elems), {}});
    ctx.stream(0).enqueue_d2h(b, 0, bytes);
    ctx.synchronize();
    out.serial = (ctx.host_time() - t0).millis();
  }
  return out;
}

TEST(PipelineSemantics, SerialIsTheSumOfStages) {
  const auto t = measure_parts(8 << 20, 5e7);
  EXPECT_NEAR(t.serial, t.h2d + t.kernel + t.d2h, 0.15);
}

TEST(PipelineSemantics, TwoTaskOverlapStaysWithinTheoreticalBounds) {
  // Two equal tasks on two streams: the makespan must lie between the
  // one-task serial chain (perfect overlap of the other task) and two
  // serial chains (no overlap at all).
  const std::size_t bytes = 8 << 20;
  const double kelems = 5e7;
  const auto t = measure_parts(bytes, kelems);

  Context ctx(cfg());
  ctx.setup(2);
  const auto b = ctx.create_virtual_buffer(2 * bytes);
  ctx.synchronize();
  const auto t0 = ctx.host_time();
  for (int task = 0; task < 2; ++task) {
    auto& s = ctx.stream(task);
    const std::size_t off = static_cast<std::size_t>(task) * bytes;
    s.enqueue_h2d(b, off, bytes);
    s.enqueue_kernel({"k", elems(kelems), {}});
    s.enqueue_d2h(b, off, bytes);
  }
  ctx.synchronize();
  const double both = (ctx.host_time() - t0).millis();

  // Per-task times on half the device: kernel roughly doubles.
  EXPECT_GT(both, t.serial * 0.95);
  EXPECT_LT(both, 2.0 * (t.h2d + 2.0 * t.kernel + t.d2h));
}

TEST(PipelineSemantics, FourStreamPipelineApproachesTheLinkBound) {
  // Many small tasks, compute sized well under the transfer time: the
  // pipeline should finish close to the link busy time (transfer-bound).
  const std::size_t bytes = 32 << 20;
  Context ctx(cfg());
  ctx.setup(4);
  ctx.set_tracing(true);
  const auto b = ctx.create_virtual_buffer(bytes);
  ctx.synchronize();
  const auto ranges = split_even(bytes, 16);
  const auto t0 = ctx.host_time();
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    auto& s = ctx.stream(static_cast<int>(i) % 4);
    s.enqueue_h2d(b, ranges[i].begin, ranges[i].size());
    s.enqueue_kernel({"k", elems(1e5), {}});
    s.enqueue_d2h(b, ranges[i].begin, ranges[i].size());
  }
  ctx.synchronize();
  const double total = (ctx.host_time() - t0).millis();
  const double link_busy = (ctx.timeline().busy(trace::SpanKind::H2D) +
                            ctx.timeline().busy(trace::SpanKind::D2H))
                               .millis();
  EXPECT_GT(total, link_busy * 0.98);  // cannot beat the serialized link
  EXPECT_LT(total, link_busy * 1.25);  // and should not sit far above it
}

TEST(PipelineSemantics, DeeperTilingNeverBeatsTheLinkBound) {
  // Property over tile counts: the transfer-bound pipeline's makespan is
  // monotone-ish in overhead but always >= the pure link time.
  const std::size_t bytes = 16 << 20;
  Context probe(cfg());
  const double link_ms =
      2.0 * probe.platform().device(0).link().transfer_duration(bytes).millis();
  for (const int tiles : {1, 2, 8, 32, 128}) {
    Context ctx(cfg());
    ctx.setup(4);
    const auto b = ctx.create_virtual_buffer(bytes);
    ctx.synchronize();
    const auto ranges = split_even(bytes, static_cast<std::size_t>(tiles));
    const auto t0 = ctx.host_time();
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      auto& s = ctx.stream(static_cast<int>(i) % 4);
      s.enqueue_h2d(b, ranges[i].begin, ranges[i].size());
      s.enqueue_d2h(b, ranges[i].begin, ranges[i].size());
    }
    ctx.synchronize();
    EXPECT_GT((ctx.host_time() - t0).millis(), link_ms * 0.9) << tiles;
  }
}

TEST(PipelineSemantics, OverlapNeverExceedsEitherBusyTime) {
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(4);
  const auto b = ctx.create_virtual_buffer(16 << 20);
  ctx.synchronize();
  const auto ranges = split_even(std::size_t{16} << 20, 8);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    auto& s = ctx.stream(static_cast<int>(i) % 4);
    s.enqueue_h2d(b, ranges[i].begin, ranges[i].size());
    s.enqueue_kernel({"k", elems(2e7), {}});
  }
  ctx.synchronize();
  const auto& tl = ctx.timeline();
  const auto ov = tl.overlap(trace::SpanKind::H2D, trace::SpanKind::Kernel);
  EXPECT_LE(ov, tl.busy(trace::SpanKind::H2D));
  EXPECT_LE(ov, tl.busy(trace::SpanKind::Kernel));
}

}  // namespace
}  // namespace ms::rt
