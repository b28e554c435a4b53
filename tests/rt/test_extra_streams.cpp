#include <gtest/gtest.h>

#include <vector>

#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

sim::KernelWork work(double elems = 1e7) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = elems;
  return w;
}

TEST(ExtraStreams, AddStreamExtendsTheStreamList) {
  Context ctx(cfg());
  ctx.setup(4);
  Stream& io = ctx.add_stream(0, 0);
  EXPECT_EQ(ctx.stream_count(), 5);
  EXPECT_EQ(io.index(), 4);
  EXPECT_EQ(io.device(), 0);
  EXPECT_EQ(io.partition(), 0);
  EXPECT_EQ(&ctx.stream(4), &io);
}

TEST(ExtraStreams, InvalidPlacementThrows) {
  Context ctx(cfg());
  ctx.setup(2);
  EXPECT_THROW((void)ctx.add_stream(0, 2), Error);
  EXPECT_THROW((void)ctx.add_stream(1, 0), Error);
  EXPECT_THROW((void)ctx.add_stream(-1, 0), Error);
}

TEST(ExtraStreams, SharesThePartitionComputeResource) {
  // Two streams on the same partition: their kernels serialize.
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(2);
  Stream& extra = ctx.add_stream(0, 0);
  ctx.stream(0).enqueue_kernel({"a", work(), {}});
  extra.enqueue_kernel({"b", work(), {}});
  ctx.synchronize();
  EXPECT_EQ(ctx.timeline().overlap(trace::SpanKind::Kernel, trace::SpanKind::Kernel),
            sim::SimTime::zero());
}

TEST(ExtraStreams, TransferStreamUnblocksUploads) {
  // The motivating use: a transfer on a dedicated stream proceeds while the
  // partition's compute stream is busy; on the compute stream it would wait.
  const std::size_t bytes = 8 << 20;

  Context blocked(cfg());
  blocked.set_tracing(true);
  blocked.setup(1);
  const auto b1 = blocked.create_virtual_buffer(bytes);
  blocked.stream(0).enqueue_kernel({"busy", work(1e9), {}});
  blocked.stream(0).enqueue_h2d(b1, 0, bytes);
  blocked.synchronize();
  const auto blocked_h2d_start = blocked.timeline().spans().back().start;

  Context freed(cfg());
  freed.set_tracing(true);
  freed.setup(1);
  const auto b2 = freed.create_virtual_buffer(bytes);
  Stream& io = freed.add_stream(0, 0);
  freed.stream(0).enqueue_kernel({"busy", work(1e9), {}});
  io.enqueue_h2d(b2, 0, bytes);
  freed.synchronize();
  const auto freed_h2d_start = freed.timeline().spans().back().start;

  EXPECT_LT(freed_h2d_start.millis(), blocked_h2d_start.millis() * 0.2);
}

TEST(ExtraStreams, SetupInvalidatesExtraStreams) {
  Context ctx(cfg());
  ctx.setup(2);
  ctx.add_stream(0, 1);
  EXPECT_EQ(ctx.stream_count(), 3);
  ctx.setup(2);
  EXPECT_EQ(ctx.stream_count(), 2);
}

TEST(ContextWait, NullEventReturnsImmediately) {
  Context ctx(cfg());
  const auto t0 = ctx.host_time();
  ctx.wait(Event{});
  EXPECT_EQ(ctx.host_time(), t0);
}

TEST(ContextWait, BlocksUntilEventOnly) {
  // wait(e) must complete e but may leave unrelated later work pending.
  Context ctx(cfg());
  ctx.setup(2);
  const Event fast = ctx.stream(0).enqueue_kernel({"fast", work(1e5), {}});
  ctx.stream(1).enqueue_kernel({"slow", work(1e9), {}});
  ctx.wait(fast);
  EXPECT_TRUE(fast.done());
  EXPECT_FALSE(ctx.stream(1).idle());  // the slow kernel is still in flight
  ctx.synchronize();
}

TEST(ContextWait, AdvancesHostClockToEventTime) {
  Context ctx(cfg());
  const Event e = ctx.stream(0).enqueue_kernel({"k", work(1e8), {}});
  ctx.wait(e);
  EXPECT_GE(ctx.host_time(), e.time());
}

TEST(ContextWait, CompletedEventStillChargesSyncOnly) {
  Context ctx(cfg());
  const Event e = ctx.stream(0).enqueue_kernel({"k", work(1e5), {}});
  ctx.synchronize();
  const auto t0 = ctx.host_time();
  ctx.wait(e);
  // Already done: only the small sync overhead is charged.
  EXPECT_LT((ctx.host_time() - t0).micros(), 100.0);
}

TEST(ContextWait, EnablesHostComputeOverlap) {
  // The async-Kmeans pattern: wait for stage 1, do host work "while" stage 2
  // continues, then wait for stage 2 — total time ~ stage2, not stage1+stage2.
  Context ctx(cfg());
  ctx.setup(2);
  const Event first = ctx.stream(0).enqueue_kernel({"s1", work(1e8), {}});
  const Event second = ctx.stream(1).enqueue_kernel({"s2", work(2e8), {}});
  ctx.wait(first);
  const auto mid = ctx.host_time();
  ctx.wait(second);
  EXPECT_GT(second.time(), first.time());
  // The second wait advanced less than the second kernel's full duration —
  // it was already partially done while we "reduced" after the first.
  EXPECT_LT((ctx.host_time() - mid).micros(), 2.0 * (second.time() - first.time()).micros());
}

}  // namespace
}  // namespace ms::rt
