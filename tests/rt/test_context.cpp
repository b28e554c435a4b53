#include "rt/context.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rt/errors.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

TEST(Context, StartsWithOneStreamPerDevice) {
  Context ctx(cfg());
  EXPECT_EQ(ctx.device_count(), 1);
  EXPECT_EQ(ctx.stream_count(), 1);
  EXPECT_EQ(ctx.partitions_per_device(), 1);
}

TEST(Context, SetupCreatesOneStreamPerPartition) {
  Context ctx(cfg());
  ctx.setup(4);
  EXPECT_EQ(ctx.stream_count(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ctx.stream(i).index(), i);
    EXPECT_EQ(ctx.stream(i).device(), 0);
    EXPECT_EQ(ctx.stream(i).partition(), i);
  }
}

TEST(Context, SetupChargesHostTime) {
  Context ctx(cfg());
  const auto t0 = ctx.host_time();
  ctx.setup(8);
  EXPECT_GT(ctx.host_time(), t0);
}

TEST(Context, SetupRepartitionsDevice) {
  Context ctx(cfg());
  ctx.setup(7);
  EXPECT_EQ(ctx.platform().device(0).partitions(), 7);
  EXPECT_EQ(ctx.platform().device(0).partition(0).threads(), 32);
}

TEST(Context, StreamIndexOutOfRangeThrows) {
  Context ctx(cfg());
  ctx.setup(2);
  EXPECT_THROW((void)ctx.stream(2), Error);
  EXPECT_THROW((void)ctx.stream(-1), Error);
  EXPECT_THROW((void)ctx.stream(0, 2), Error);
  EXPECT_THROW((void)ctx.stream(1, 0), Error);
}

TEST(Context, SetupWithInvalidPartitionCountThrows) {
  Context ctx(cfg());
  EXPECT_THROW(ctx.setup(0), Error);
}

TEST(Context, SynchronizeOnEmptyContextAdvancesClockOnly) {
  Context ctx(cfg());
  const auto t0 = ctx.host_time();
  ctx.synchronize();
  EXPECT_GT(ctx.host_time(), t0);  // sync overhead
}

TEST(Context, HostTimeMonotone) {
  Context ctx(cfg());
  std::vector<float> data(1024, 1.0f);
  auto prev = ctx.host_time();
  const auto buf = ctx.create_buffer(std::span<float>(data));
  EXPECT_GT(ctx.host_time(), prev);
  prev = ctx.host_time();
  ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  EXPECT_GT(ctx.host_time(), prev);
  prev = ctx.host_time();
  ctx.synchronize();
  EXPECT_GE(ctx.host_time(), prev);
}

TEST(Context, SetupWhileStreamsBusyThrows) {
  Context ctx(cfg());
  std::vector<float> data(1024, 1.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  EXPECT_THROW(ctx.setup(2), Error);
  ctx.synchronize();
  EXPECT_NO_THROW(ctx.setup(2));
}

TEST(Context, RecordsNoTimelineByDefault) {
  // A context built outside an app (hBench, the C API, ablations) has no
  // observer: nothing keeps a span per action that nobody reads.
  Context ctx(cfg());
  ctx.setup(2);
  EXPECT_FALSE(ctx.tracing());
  const auto buf = ctx.create_virtual_buffer(1 << 16);
  for (int i = 0; i < 16; ++i) {
    const Event up = ctx.stream(i % 2).enqueue_h2d(buf, 0, 1 << 16);
    ctx.stream(i % 2).enqueue_kernel(KernelLaunch("k", sim::KernelWork{}), {up});
    ctx.stream(i % 2).enqueue_barrier();
  }
  ctx.synchronize();
  EXPECT_EQ(ctx.timeline().size(), 0u);
}

TEST(Context, TracingToggleSuppressesSpans) {
  Context ctx(cfg());
  ctx.set_tracing(false);
  std::vector<float> data(64, 0.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  ctx.stream(0).enqueue_h2d(buf, 0, 256);
  ctx.synchronize();
  EXPECT_TRUE(ctx.timeline().empty());
  ctx.set_tracing(true);
  ctx.stream(0).enqueue_h2d(buf, 0, 256);
  ctx.synchronize();
  EXPECT_EQ(ctx.timeline().size(), 1u);
}

TEST(Context, MultiDeviceStreamLayout) {
  Context ctx(sim::SimConfig::phi_31sp_x2());
  ctx.setup(3);
  EXPECT_EQ(ctx.device_count(), 2);
  EXPECT_EQ(ctx.stream_count(), 6);
  EXPECT_EQ(ctx.stream(4).device(), 1);
  EXPECT_EQ(ctx.stream(4).partition(), 1);
  EXPECT_EQ(ctx.stream(1, 2).index(), 5);
}

}  // namespace
}  // namespace ms::rt
