#include "sim/device_memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>

#include "sim/chunk_depot.hpp"

namespace ms::sim {
namespace {

TEST(DeviceMemory, AllocateReturnsDistinctHandles) {
  DeviceMemory mem(1 << 20);
  const auto a = mem.allocate(100);
  const auto b = mem.allocate(100);
  EXPECT_NE(a, b);
  EXPECT_NE(a, DeviceMemory::null_handle);
}

TEST(DeviceMemory, StorageIsZeroInitialized) {
  DeviceMemory mem(1 << 20);
  const auto h = mem.allocate(64);
  const std::byte* p = mem.data(h);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(p[i], std::byte{0});
}

TEST(DeviceMemory, DataIsWritableAndStable) {
  DeviceMemory mem(1 << 20);
  const auto h = mem.allocate(16);
  std::memset(mem.data(h), 0xAB, 16);
  // Another allocation must not disturb the first block's contents.
  const auto h2 = mem.allocate(1024);
  (void)h2;
  EXPECT_EQ(static_cast<unsigned char>(mem.data(h)[7]), 0xAB);
}

TEST(DeviceMemory, TracksUsage) {
  DeviceMemory mem(4096);
  const auto a = mem.allocate(1000);
  EXPECT_EQ(mem.bytes_in_use(), 1000u);
  EXPECT_EQ(mem.live_allocations(), 1u);
  mem.free(a);
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  EXPECT_EQ(mem.live_allocations(), 0u);
  EXPECT_EQ(mem.total_allocations(), 1u);
}

TEST(DeviceMemory, OutOfMemoryThrowsBadAlloc) {
  DeviceMemory mem(1024);
  mem.allocate(1000);
  EXPECT_THROW(mem.allocate(100), std::bad_alloc);
  // Exactly filling the card is fine.
  EXPECT_NO_THROW(mem.allocate(24));
}

TEST(DeviceMemory, HugeRequestAfterAnAllocationThrowsBadAlloc) {
  // `in_use + bytes` would wrap to a small number and pass a naive check.
  DeviceMemory mem(1024);
  mem.allocate(16);
  EXPECT_THROW(mem.allocate(SIZE_MAX - 7), std::bad_alloc);
  EXPECT_EQ(mem.bytes_in_use(), 16u);
  EXPECT_EQ(mem.live_allocations(), 1u);
}

TEST(DeviceMemory, RecycledBlockIsZeroed) {
  // Shadow blocks are recycled through the chunk depot; a block that held
  // another card's data must still come back zero-initialized.
  detail::ChunkDepot::trim();
  constexpr std::size_t kBytes = 4093;  // a size nothing else allocates
  const std::byte* scribbled = nullptr;
  {
    DeviceMemory mem(1 << 20);
    const auto h = mem.allocate(kBytes);
    std::memset(mem.data(h), 0xCD, kBytes);
    scribbled = mem.data(h);
    mem.free(h);
  }
  DeviceMemory mem(1 << 20);
  const auto h = mem.allocate(kBytes);
  EXPECT_EQ(mem.data(h), scribbled);  // the parked block, not a fresh one
  for (std::size_t i = 0; i < kBytes; ++i) ASSERT_EQ(mem.data(h)[i], std::byte{0}) << i;
  mem.free(h);
  detail::ChunkDepot::trim();
}

TEST(DeviceMemory, FreeingReleasesCapacity) {
  DeviceMemory mem(1024);
  const auto a = mem.allocate(1024);
  mem.free(a);
  EXPECT_NO_THROW(mem.allocate(1024));
}

TEST(DeviceMemory, DoubleFreeThrows) {
  DeviceMemory mem(1024);
  const auto a = mem.allocate(10);
  mem.free(a);
  EXPECT_THROW(mem.free(a), std::invalid_argument);
}

TEST(DeviceMemory, UnknownHandleThrowsEverywhere) {
  DeviceMemory mem(1024);
  EXPECT_THROW((void)mem.data(42), std::invalid_argument);
  EXPECT_THROW((void)mem.size(42), std::invalid_argument);
  EXPECT_THROW(mem.free(42), std::invalid_argument);
  EXPECT_FALSE(mem.valid(42));
}

TEST(DeviceMemory, SizeReportsAllocationSize) {
  DeviceMemory mem(1 << 20);
  const auto h = mem.allocate(12345);
  EXPECT_EQ(mem.size(h), 12345u);
  EXPECT_TRUE(mem.valid(h));
}

TEST(DeviceMemory, ZeroByteAllocationIsLegal) {
  DeviceMemory mem(16);
  const auto h = mem.allocate(0);
  EXPECT_TRUE(mem.valid(h));
  EXPECT_EQ(mem.size(h), 0u);
}

}  // namespace
}  // namespace ms::sim
