#include "rt/stream.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

sim::KernelWork small_kernel() {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = 1e6;
  return w;
}

TEST(Stream, H2dMovesBytesToDeviceShadow) {
  Context ctx(cfg());
  std::vector<float> host{1.0f, 2.0f, 3.0f, 4.0f};
  const auto buf = ctx.create_buffer(std::span<float>(host));
  ctx.stream(0).enqueue_h2d(buf, 0, 16);
  ctx.synchronize();
  const float* dev = ctx.device_ptr<float>(buf, 0);
  EXPECT_FLOAT_EQ(dev[0], 1.0f);
  EXPECT_FLOAT_EQ(dev[3], 4.0f);
}

TEST(Stream, D2hMovesBytesBack) {
  Context ctx(cfg());
  std::vector<float> host(4, 0.0f);
  const auto buf = ctx.create_buffer(std::span<float>(host));
  float* dev = ctx.device_ptr<float>(buf, 0);
  dev[2] = 42.0f;
  ctx.stream(0).enqueue_d2h(buf, 0, 16);
  ctx.synchronize();
  EXPECT_FLOAT_EQ(host[2], 42.0f);
}

TEST(Stream, PartialTransferRespectsOffset) {
  Context ctx(cfg());
  std::vector<float> host{1.0f, 2.0f, 3.0f, 4.0f};
  const auto buf = ctx.create_buffer(std::span<float>(host));
  ctx.stream(0).enqueue_h2d(buf, 8, 8);  // elements 2..3 only
  ctx.synchronize();
  const float* dev = ctx.device_ptr<float>(buf, 0);
  EXPECT_FLOAT_EQ(dev[0], 0.0f);  // untouched (device memory zero-filled)
  EXPECT_FLOAT_EQ(dev[2], 3.0f);
}

TEST(Stream, DeviceDataIsDistinctFromHost) {
  // Forgetting a transfer must be observable: the kernel sees zeros.
  Context ctx(cfg());
  std::vector<float> host{7.0f};
  const auto buf = ctx.create_buffer(std::span<float>(host));
  float seen = -1.0f;
  KernelLaunch k{"probe", small_kernel(), [&] { seen = *ctx.device_ptr<float>(buf, 0); }};
  ctx.stream(0).enqueue_kernel(std::move(k));
  ctx.synchronize();
  EXPECT_FLOAT_EQ(seen, 0.0f);
}

TEST(Stream, InStreamActionsExecuteInOrder) {
  Context ctx(cfg());
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ctx.stream(0).enqueue_kernel({"k", small_kernel(), [&order, i] { order.push_back(i); }});
  }
  ctx.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Stream, InStreamActionsDoNotOverlapInTime) {
  Context ctx(cfg());
  ctx.set_tracing(true);
  for (int i = 0; i < 4; ++i) ctx.stream(0).enqueue_kernel({"k", small_kernel(), {}});
  ctx.synchronize();
  const auto& spans = ctx.timeline().spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start, spans[i - 1].end);
  }
}

TEST(Stream, KernelsOnDifferentPartitionsOverlap) {
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(2);
  ctx.stream(0).enqueue_kernel({"a", small_kernel(), {}});
  ctx.stream(1).enqueue_kernel({"b", small_kernel(), {}});
  ctx.synchronize();
  EXPECT_GT(ctx.timeline().overlap(trace::SpanKind::Kernel, trace::SpanKind::Kernel),
            sim::SimTime::zero());
}

TEST(Stream, TransferOverlapsKernelOfOtherStream) {
  // The core temporal-sharing claim: H2D on stream 1 while stream 0 computes.
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(2);
  std::vector<float> data(1 << 20, 1.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  sim::KernelWork big = small_kernel();
  big.elems = 1e8;
  ctx.stream(0).enqueue_kernel({"compute", big, {}});
  ctx.stream(1).enqueue_h2d(buf, 0, data.size() * sizeof(float));
  ctx.synchronize();
  EXPECT_GT(ctx.timeline().overlap(trace::SpanKind::Kernel, trace::SpanKind::H2D),
            sim::SimTime::zero());
}

TEST(Stream, TransfersNeverOverlapEachOther) {
  // Paper finding #1, at the runtime level: even from different streams,
  // H2D and D2H serialise on the DMA engine.
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(2);
  std::vector<float> data(1 << 20, 1.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  const std::size_t bytes = data.size() * sizeof(float);
  ctx.stream(0).enqueue_h2d(buf, 0, bytes / 2);
  ctx.stream(1).enqueue_d2h(buf, bytes / 2, bytes / 2);
  ctx.synchronize();
  EXPECT_EQ(ctx.timeline().overlap(trace::SpanKind::H2D, trace::SpanKind::D2H),
            sim::SimTime::zero());
}

TEST(Stream, SynchronizeWaitsForThisStreamOnly) {
  Context ctx(cfg());
  ctx.setup(2);
  int done0 = 0;
  ctx.stream(0).enqueue_kernel({"k0", small_kernel(), [&] { done0 = 1; }});
  ctx.stream(0).synchronize();
  EXPECT_EQ(done0, 1);
  EXPECT_TRUE(ctx.stream(0).idle());
}

TEST(Stream, ZeroLengthTransferThrows) {
  Context ctx(cfg());
  std::vector<float> data(4, 0.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  EXPECT_THROW(ctx.stream(0).enqueue_h2d(buf, 0, 0), Error);
}

TEST(Stream, OutOfRangeTransferThrows) {
  Context ctx(cfg());
  std::vector<float> data(4, 0.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  EXPECT_THROW(ctx.stream(0).enqueue_h2d(buf, 0, 17), Error);
  EXPECT_THROW(ctx.stream(0).enqueue_d2h(buf, 16, 1), Error);
}

TEST(Stream, LastEventTracksMostRecentAction) {
  // A dependency-free barrier is the stream's "last event": it completes
  // once every earlier action of the stream has.
  Context ctx(cfg());
  std::vector<float> data(4, 0.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  const Event e = ctx.stream(0).enqueue_h2d(buf, 0, 16);
  const Event tail = ctx.stream(0).enqueue_barrier();
  EXPECT_TRUE(tail.valid());
  EXPECT_FALSE(e.done());
  EXPECT_FALSE(tail.done());
  ctx.synchronize();
  EXPECT_TRUE(e.done());
  EXPECT_GT(e.time(), sim::SimTime::zero());
  EXPECT_GE(tail.time(), e.time());
}

TEST(Stream, PendingCountsQueuedActions) {
  Context ctx(cfg());
  std::vector<float> data(4, 0.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  EXPECT_EQ(ctx.stream(0).pending(), 0u);
  ctx.stream(0).enqueue_h2d(buf, 0, 16);
  ctx.stream(0).enqueue_d2h(buf, 0, 16);
  EXPECT_EQ(ctx.stream(0).pending(), 2u);
  ctx.synchronize();
  EXPECT_EQ(ctx.stream(0).pending(), 0u);
}

TEST(Stream, KernelDurationScalesWithPartitionWidth) {
  // The same kernel takes ~4x longer on a quarter of the device.
  sim::KernelWork w = small_kernel();
  w.elems = 1e8;

  Context full(cfg());
  full.set_tracing(true);
  full.stream(0).enqueue_kernel({"k", w, {}});
  full.synchronize();
  const auto t_full = full.timeline().spans()[0].duration();

  Context quarter(cfg());
  quarter.set_tracing(true);
  quarter.setup(4);
  quarter.stream(0).enqueue_kernel({"k", w, {}});
  quarter.synchronize();
  const auto t_quarter = quarter.timeline().spans()[0].duration();

  EXPECT_NEAR(t_quarter / t_full, 4.0, 0.3);
}

}  // namespace
}  // namespace ms::rt
