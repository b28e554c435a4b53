// The chunk depot is one per process: chunks parked by any thread serve
// acquisitions on every other, and the parked-bytes cap holds process-wide.

#include "sim/chunk_depot.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace ms::sim::detail {
namespace {

TEST(ChunkDepot, ChunkParkedByOneThreadServesAnother) {
  ChunkDepot::trim();
  constexpr std::size_t kBytes = 12345;  // a size no pool uses
  const std::byte* parked = nullptr;
  std::thread([&] {
    auto chunk = ChunkDepot::acquire(kBytes);
    parked = chunk.get();
    ChunkDepot::release(std::move(chunk), kBytes);
  }).join();
  // The parking thread is gone; its chunk is still there for this one.
  EXPECT_EQ(ChunkDepot::parked_bytes(), kBytes);
  auto chunk = ChunkDepot::acquire(kBytes);
  EXPECT_EQ(chunk.get(), parked);
  EXPECT_EQ(ChunkDepot::parked_bytes(), 0u);
  ChunkDepot::release(std::move(chunk), kBytes);
  ChunkDepot::trim();
  EXPECT_EQ(ChunkDepot::parked_bytes(), 0u);
}

TEST(ChunkDepot, ConcurrentTrafficRecyclesEveryChunk) {
  ChunkDepot::trim();
  constexpr std::size_t kBytes = 4096;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 500; ++i) {
        auto chunk = ChunkDepot::acquire(kBytes);
        chunk[0] = std::byte{1};
        ChunkDepot::release(std::move(chunk), kBytes);
      }
    });
  }
  for (auto& t : threads) t.join();
  // At most one chunk per thread was ever out at once, and all came back.
  const std::size_t parked = ChunkDepot::parked_bytes();
  EXPECT_GE(parked, kBytes);
  EXPECT_LE(parked, kThreads * kBytes);
  EXPECT_EQ(parked % kBytes, 0u);
  ChunkDepot::trim();
}

TEST(ChunkDepot, CapHoldsAcrossThreads) {
  ChunkDepot::trim();
  constexpr std::size_t kBytes = 9u << 20;  // two exceed the 16 MiB cap
  ChunkDepot::release(ChunkDepot::acquire(kBytes), kBytes);
  std::thread([] { ChunkDepot::release(ChunkDepot::acquire(kBytes), kBytes); }).join();
  std::thread([] {
    auto a = ChunkDepot::acquire(kBytes);
    auto b = ChunkDepot::acquire(kBytes);
    ChunkDepot::release(std::move(a), kBytes);
    ChunkDepot::release(std::move(b), kBytes);  // over the cap: freed
  }).join();
  EXPECT_EQ(ChunkDepot::parked_bytes(), kBytes);
  ChunkDepot::trim();
}

}  // namespace
}  // namespace ms::sim::detail
