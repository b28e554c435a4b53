#include <gtest/gtest.h>

#include <vector>

#include "rt/context.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {
namespace {

sim::SimConfig chunked_cfg(std::size_t chunk) {
  auto c = sim::SimConfig::phi_31sp();
  c.link.dma_chunk_bytes = chunk;
  return c;
}

TEST(DmaChunking, OffByDefault) {
  EXPECT_EQ(sim::SimConfig::phi_31sp().link.dma_chunk_bytes, 0u);
}

TEST(DmaChunking, TotalDurationMatchesUnchunkedTransfer) {
  // One lone transfer: chunking must not change its end-to-end time (same
  // bytes over the same bandwidth, latency charged once).
  const std::size_t bytes = 8 << 20;

  Context plain(sim::SimConfig::phi_31sp());
  const auto b1 = plain.create_virtual_buffer(bytes);
  plain.synchronize();
  const auto p0 = plain.host_time();
  plain.stream(0).enqueue_h2d(b1, 0, bytes);
  plain.synchronize();

  Context chunked(chunked_cfg(1 << 20));
  const auto b2 = chunked.create_virtual_buffer(bytes);
  chunked.synchronize();
  const auto c0 = chunked.host_time();
  chunked.stream(0).enqueue_h2d(b2, 0, bytes);
  chunked.synchronize();

  EXPECT_NEAR((plain.host_time() - p0).micros(), (chunked.host_time() - c0).micros(), 1.0);
}

TEST(DmaChunking, SmallTransferInterleavesIntoLargeOne) {
  // A big upload starts first; a tiny readback becomes ready shortly after.
  // Unchunked, the readback waits the full upload; chunked, it slots in at
  // the next chunk boundary.
  const std::size_t big = 32 << 20;  // ~4.9 ms on the link
  const std::size_t tiny = 4096;

  auto run = [&](const sim::SimConfig& cfg) {
    Context ctx(cfg);
    ctx.setup(2);
    const auto buf = ctx.create_virtual_buffer(big);
    ctx.synchronize();
    const sim::SimTime t0 = ctx.host_time();
    ctx.stream(0).enqueue_h2d(buf, 0, big);
    const Event done = ctx.stream(1).enqueue_d2h(buf, 0, tiny);
    ctx.synchronize();
    return (done.time() - t0).millis();
  };

  const double blocked = run(sim::SimConfig::phi_31sp());
  const double interleaved = run(chunked_cfg(1 << 20));
  EXPECT_GT(blocked, 4.5);        // waited for the whole upload
  EXPECT_LT(interleaved, 0.5);    // slotted in after ~1 chunk
}

TEST(DmaChunking, FunctionalPayloadStillDeliversAllBytes) {
  Context ctx(chunked_cfg(1 << 10));
  std::vector<float> host(4096);
  for (std::size_t i = 0; i < host.size(); ++i) host[i] = static_cast<float>(i);
  const auto buf = ctx.create_buffer(std::span<float>(host));
  ctx.stream(0).enqueue_h2d(buf, 0, host.size() * sizeof(float));
  ctx.synchronize();
  const float* dev = ctx.device_ptr<float>(buf, 0);
  for (std::size_t i = 0; i < host.size(); ++i) {
    ASSERT_FLOAT_EQ(dev[i], static_cast<float>(i));
  }
}

TEST(DmaChunking, TimelineRecordsOneSpanPerTransfer) {
  Context ctx(chunked_cfg(1 << 20));
  ctx.set_tracing(true);
  const auto buf = ctx.create_virtual_buffer(8 << 20);
  ctx.stream(0).enqueue_h2d(buf, 0, 8 << 20);
  ctx.synchronize();
  EXPECT_EQ(ctx.timeline().count(trace::SpanKind::H2D), 1u);
  EXPECT_EQ(ctx.timeline().spans()[0].bytes, 8u << 20);
}

TEST(DmaChunking, InStreamOrderPreserved) {
  // The chunked transfer still completes before the same stream's next
  // action starts.
  Context ctx(chunked_cfg(1 << 20));
  const auto buf = ctx.create_virtual_buffer(8 << 20);
  const Event t = ctx.stream(0).enqueue_h2d(buf, 0, 8 << 20);
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = 1e5;
  const Event k = ctx.stream(0).enqueue_kernel({"k", w, {}});
  ctx.synchronize();
  EXPECT_GE(k.time(), t.time());
}

TEST(DmaChunking, StillSerializesDirections) {
  // Chunking interleaves requests but the engine is still half duplex: the
  // total time of an 8/8 pattern stays the sum, not the max.
  auto cfg = chunked_cfg(1 << 20);
  Context ctx(cfg);
  ctx.setup(2);
  const auto buf = ctx.create_virtual_buffer(16 << 20);
  ctx.synchronize();
  const auto t0 = ctx.host_time();
  ctx.stream(0).enqueue_h2d(buf, 0, 8 << 20);
  ctx.stream(1).enqueue_d2h(buf, 8 << 20, 8 << 20);
  ctx.synchronize();
  EXPECT_NEAR((ctx.host_time() - t0).millis(), 2.5, 0.3);  // 16 MiB serialized
}

}  // namespace
}  // namespace ms::rt
