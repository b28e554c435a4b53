#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "sim/chunk_depot.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

TEST(Buffers, CreateReportsSizeAndBacking) {
  Context ctx(cfg());
  std::vector<double> data(100, 0.0);
  const auto id = ctx.create_buffer(std::span<double>(data));
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(ctx.buffer_size(id), 800u);
  EXPECT_TRUE(ctx.buffer_backed(id));
}

// A destroyed Context parks its backed buffers' device shadows in the chunk
// depot, and the next Context's buffer of the same size takes one from there:
// the shape of a functional sweep, which otherwise faults every shadow in
// afresh at every point.
TEST(DeviceMemory, SecondContextReusesParkedShadows) {
  sim::detail::ChunkDepot::trim();
  std::vector<float> host(3001, 1.5f);  // a size nothing else allocates
  const std::size_t bytes = host.size() * sizeof(float);
  const std::byte* first = nullptr;
  {
    Context ctx(cfg());
    const auto id = ctx.create_buffer(std::span<float>(host));
    ctx.stream(0).enqueue_h2d(id, 0, bytes);
    ctx.synchronize();
    first = ctx.device_data(id, 0);
  }
  EXPECT_GE(sim::detail::ChunkDepot::parked_bytes(), bytes);
  {
    Context ctx(cfg());
    const std::size_t parked = sim::detail::ChunkDepot::parked_bytes();
    const auto id = ctx.create_buffer(std::span<float>(host));
    EXPECT_EQ(parked - sim::detail::ChunkDepot::parked_bytes(), bytes);
    EXPECT_EQ(ctx.device_data(id, 0), first);
    const std::byte* shadow = ctx.device_data(id, 0);
    EXPECT_TRUE(std::all_of(shadow, shadow + bytes, [](std::byte b) { return b == std::byte{0}; }));
  }
  sim::detail::ChunkDepot::trim();
}

TEST(Buffers, VirtualBufferHasSizeButNoStorage) {
  Context ctx(cfg());
  const auto id = ctx.create_virtual_buffer(1 << 20);
  EXPECT_EQ(ctx.buffer_size(id), 1u << 20);
  EXPECT_FALSE(ctx.buffer_backed(id));
  EXPECT_THROW((void)ctx.device_data(id, 0), Error);
}

TEST(Buffers, VirtualBufferTransfersAreCostedButMoveNothing) {
  Context ctx(cfg());
  ctx.set_tracing(true);
  const auto id = ctx.create_virtual_buffer(1 << 20);
  const auto t0 = ctx.host_time();
  ctx.stream(0).enqueue_h2d(id, 0, 1 << 20);
  ctx.synchronize();
  EXPECT_GT((ctx.host_time() - t0).micros(), 100.0);  // ~156 us of DMA
  EXPECT_EQ(ctx.timeline().count(trace::SpanKind::H2D), 1u);
}

TEST(Buffers, DistinctBuffersGetDistinctIdsAndStorage) {
  Context ctx(cfg());
  std::vector<float> a(16, 1.0f), b(16, 2.0f);
  const auto ia = ctx.create_buffer(std::span<float>(a));
  const auto ib = ctx.create_buffer(std::span<float>(b));
  EXPECT_NE(ia, ib);
  EXPECT_NE(ctx.device_data(ia, 0), ctx.device_data(ib, 0));
}

TEST(Buffers, CreateChargesDeviceAllocation) {
  Context ctx(cfg());
  std::vector<float> a(16, 1.0f);
  const std::size_t before = ctx.platform().device(0).memory().bytes_in_use();
  ctx.create_buffer(std::span<float>(a));
  EXPECT_EQ(ctx.platform().device(0).memory().bytes_in_use(), before + 64);
}

TEST(Buffers, DestroyReleasesDeviceMemory) {
  Context ctx(cfg());
  std::vector<float> a(16, 1.0f);
  const std::size_t before = ctx.platform().device(0).memory().bytes_in_use();
  const auto id = ctx.create_buffer(std::span<float>(a));
  ctx.destroy_buffer(id);
  EXPECT_EQ(ctx.platform().device(0).memory().bytes_in_use(), before);
  EXPECT_THROW((void)ctx.buffer_size(id), Error);
}

TEST(Buffers, DestroyUnknownThrows) {
  Context ctx(cfg());
  EXPECT_THROW(ctx.destroy_buffer(BufferId{99}), Error);
}

TEST(Buffers, DestroyWhileInFlightThrows) {
  Context ctx(cfg());
  std::vector<float> a(1024, 1.0f);
  const auto id = ctx.create_buffer(std::span<float>(a));
  ctx.stream(0).enqueue_h2d(id, 0, 4096);
  EXPECT_THROW(ctx.destroy_buffer(id), Error);
  ctx.synchronize();
  EXPECT_NO_THROW(ctx.destroy_buffer(id));
}

TEST(Buffers, NullHostPointerThrows) {
  Context ctx(cfg());
  EXPECT_THROW(ctx.create_buffer(nullptr, 100), Error);
  std::vector<float> a(1);
  EXPECT_THROW(ctx.create_buffer(a.data(), 0), Error);
  EXPECT_THROW(ctx.create_virtual_buffer(0), Error);
}

TEST(Buffers, UnknownHandleInTransfersThrows) {
  Context ctx(cfg());
  EXPECT_THROW(ctx.stream(0).enqueue_h2d(BufferId{123}, 0, 4), Error);
}

TEST(Buffers, MultiDeviceInstantiationsAreIndependent) {
  Context ctx(sim::SimConfig::phi_31sp_x2());
  ctx.setup(1);
  std::vector<float> a{5.0f};
  const auto id = ctx.create_buffer(std::span<float>(a));
  ctx.stream(0, 0).enqueue_h2d(id, 0, 4);  // device 0 only
  ctx.synchronize();
  EXPECT_FLOAT_EQ(*ctx.device_ptr<float>(id, 0), 5.0f);
  EXPECT_FLOAT_EQ(*ctx.device_ptr<float>(id, 1), 0.0f);  // stale on card 1
}

TEST(Buffers, DeviceOutOfMemorySurfacesAsBadAlloc) {
  sim::SimConfig small = cfg();
  small.device.memory_bytes = 1024;
  Context ctx(small);
  std::vector<float> a(512, 0.0f);  // 2 KiB > 1 KiB card
  EXPECT_THROW(ctx.create_buffer(std::span<float>(a)), std::bad_alloc);
}

TEST(Buffers, RoundTripPreservesData) {
  Context ctx(cfg());
  std::vector<double> out(256);
  std::vector<double> in(256);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<double>(i) * 0.5;
  const auto bin = ctx.create_buffer(std::span<double>(in));
  const auto bout = ctx.create_buffer(std::span<double>(out));
  ctx.stream(0).enqueue_h2d(bin, 0, 2048);
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = 256;
  ctx.stream(0).enqueue_kernel({"copy", w, [&] {
                                  const double* src = ctx.device_ptr<double>(bin, 0);
                                  double* dst = ctx.device_ptr<double>(bout, 0);
                                  for (int i = 0; i < 256; ++i) dst[i] = src[i] * 2.0;
                                }});
  ctx.stream(0).enqueue_d2h(bout, 0, 2048);
  ctx.synchronize();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i));
  }
}

}  // namespace
}  // namespace ms::rt
