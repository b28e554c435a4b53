// The functional checksums of mm, cf and lu at sizes where every dense tile
// kernel runs its fringe paths, pinned bit for bit. perfbench's golden file
// covers these apps only at dim 128, where every tile edge is a multiple of
// 4 and of the row band, so no fringe runs there. Here each tile edge is
// over one 64-row band and leaves a remainder mod 4 (and mod 8): mm's tiles
// are 75 x 75 with k = 150, cf's 105 x 105, lu's 74 x 74 on a 3 x 3 grid.
// The values were recorded before the kernels were vectorized; a kernel
// that changes any element's operation order moves them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "apps/registry.hpp"
#include "kern/par.hpp"

namespace ms::apps {
namespace {

std::string hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_checksum(std::string_view app, AppPoint point, double want) {
  CommonConfig common;
  common.partitions = 4;
  common.protocol_iterations = 1;
  for (const int threads : {1, 2}) {
    kern::par::ThreadScope scope(threads);
    const double got = find_app(app)->run(sim::SimConfig::phi_31sp(), common, point).checksum;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << app << " threads=" << threads << ": " << hex(got) << " != " << hex(want);
  }
}

TEST(PinnedChecksum, Mm) { expect_checksum("mm", {4, 150}, 0x1.8038ecb3177ccp+5); }

TEST(PinnedChecksum, Cf) { expect_checksum("cf", {4, 210}, 0x1.cec842f204999p+11); }

TEST(PinnedChecksum, Lu) { expect_checksum("lu", {9, 222}, 0x1.d4f44ce7ec77p+15); }

}  // namespace
}  // namespace ms::apps
