// Seeded-hazard fixtures: hand-built GraphRecords (same builder API the
// runtime recorder uses) with exactly one planted defect each, asserting the
// analyzer reports the exact hazard kind, the two actions involved, and the
// missing edge — plus matching clean-graph negatives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/record.hpp"
#include "analyze/report.hpp"

namespace {

using ms::analyze::analyze;
using ms::analyze::GraphRecord;
using ms::analyze::HazardKind;
using ms::analyze::NodeKind;
using ms::rt::AccessMode;
using ms::rt::BufferAccess;
using ms::rt::BufferId;
using ms::rt::MemRange;

constexpr BufferId kBuf{1};

TEST(Fixtures, MissingEventEdgeIsRaw) {
  GraphRecord g;
  g.declare_buffer(kBuf, 4096, "grid");
  // Stream 0 uploads; stream 1's kernel reads the uploaded device bytes
  // without the event edge that should order it after the upload.
  const auto up = g.add_h2d(0, 0, kBuf, 0, 4096);
  const auto k = g.add_kernel(1, 0, "stencil", {{kBuf, AccessMode::Read, MemRange::flat(0, 4096)}});

  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  const auto& h = a.hazards[0];
  EXPECT_EQ(h.kind, HazardKind::RaceRAW);
  EXPECT_EQ(h.buffer, kBuf.value);
  EXPECT_EQ(h.buffer_name, "grid");
  EXPECT_EQ(h.space, 0);
  EXPECT_EQ(h.first.id, up);
  EXPECT_EQ(h.second.id, k);
  EXPECT_EQ(h.first.stream, 0);
  EXPECT_EQ(h.second.stream, 1);
  EXPECT_NE(h.message.find("missing edge"), std::string::npos);
  EXPECT_NE(h.message.find("stencil"), std::string::npos);
  EXPECT_NE(h.message.find("grid"), std::string::npos);
}

TEST(Fixtures, EventEdgeMakesItClean) {
  GraphRecord g;
  g.declare_buffer(kBuf, 4096);
  const auto up = g.add_h2d(0, 0, kBuf, 0, 4096);
  g.add_kernel(1, 0, "stencil", {{kBuf, AccessMode::Read, MemRange::flat(0, 4096)}}, {up});
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Fixtures, WarOnOverlappingTileRanges) {
  // Row-major 8x8 plane of 8-byte elements. A kernel on stream 0 reads the
  // tile rows [0,4) x cols [0,5); an unordered kernel on stream 1 writes
  // rows [2,6) x cols [4,8) — the two tiles share column 4 of rows 2..3.
  GraphRecord g;
  g.declare_buffer(kBuf, 8 * 8 * 8, "plane");
  const auto rd =
      g.add_kernel(0, 0, "reader", {{kBuf, AccessMode::Read, MemRange::tile(0, 4, 0, 5, 8, 8)}});
  const auto wr =
      g.add_kernel(1, 0, "writer", {{kBuf, AccessMode::Write, MemRange::tile(2, 6, 4, 8, 8, 8)}});

  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  EXPECT_EQ(a.hazards[0].kind, HazardKind::RaceWAR);
  EXPECT_EQ(a.hazards[0].first.id, rd);
  EXPECT_EQ(a.hazards[0].second.id, wr);
}

TEST(Fixtures, ColumnDisjointTilesAreClean) {
  // Same rows, disjoint column bands: the bounding byte intervals interleave
  // but no row run overlaps — the exact strided walk must say clean.
  GraphRecord g;
  g.declare_buffer(kBuf, 8 * 8 * 8);
  g.add_kernel(0, 0, "left", {{kBuf, AccessMode::Write, MemRange::tile(0, 8, 0, 4, 8, 8)}});
  g.add_kernel(1, 0, "right", {{kBuf, AccessMode::Write, MemRange::tile(0, 8, 4, 8, 8, 8)}});
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Fixtures, D2hBeforeKernelWriteIsUseBeforeWrite) {
  GraphRecord g;
  g.declare_buffer(kBuf, 1024, "out");
  // The readback is enqueued (and FIFO-ordered) *before* the kernel that
  // produces the bytes — on one stream, so there is no race, just a read of
  // device bytes nothing has written yet.
  const auto down = g.add_d2h(0, 0, kBuf, 0, 1024);
  g.add_kernel(0, 0, "producer", {{kBuf, AccessMode::Write, MemRange::flat(0, 1024)}});

  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  EXPECT_EQ(a.hazards[0].kind, HazardKind::UseBeforeWrite);
  EXPECT_EQ(a.hazards[0].second.id, down);
  EXPECT_NE(a.hazards[0].message.find("never written"), std::string::npos);
}

TEST(Fixtures, KernelThenD2hIsClean) {
  GraphRecord g;
  g.declare_buffer(kBuf, 1024);
  g.add_kernel(0, 0, "producer", {{kBuf, AccessMode::Write, MemRange::flat(0, 1024)}});
  g.add_d2h(0, 0, kBuf, 0, 1024);
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Fixtures, AssumeResidentSuppressesUseBeforeWrite) {
  GraphRecord g;
  g.declare_buffer(kBuf, 1024);
  g.assume_device_resident(kBuf);
  g.add_d2h(0, 0, kBuf, 0, 1024);
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Fixtures, DoubleFree) {
  GraphRecord g;
  g.declare_buffer(kBuf, 64, "victim");
  g.add_h2d(0, 0, kBuf, 0, 64);
  const auto f1 = g.add_free(kBuf);
  const auto f2 = g.add_free(kBuf);

  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  EXPECT_EQ(a.hazards[0].kind, HazardKind::DoubleFree);
  EXPECT_EQ(a.hazards[0].first.id, f1);
  EXPECT_EQ(a.hazards[0].second.id, f2);
}

TEST(Fixtures, UseAfterFree) {
  GraphRecord g;
  g.declare_buffer(kBuf, 64, "victim");
  const auto f = g.add_free(kBuf);
  const auto use = g.add_h2d(0, 0, kBuf, 0, 64);

  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  EXPECT_EQ(a.hazards[0].kind, HazardKind::UseAfterFree);
  EXPECT_EQ(a.hazards[0].first.id, f);
  EXPECT_EQ(a.hazards[0].second.id, use);
}

TEST(Fixtures, TwoStreamWaitCycleIsDeadlock) {
  // Dep ids resolve at analysis time, so a fixture can express the mutual
  // wait the runtime's enqueue-ordered events cannot: node 1 waits on node 2
  // and vice versa.
  GraphRecord g;
  g.declare_buffer(kBuf, 64);
  const auto a1 = g.add_kernel(0, 0, "left", {}, {2});
  const auto a2 = g.add_kernel(1, 0, "right", {}, {a1});

  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);
  const auto& h = a.hazards[0];
  EXPECT_EQ(h.kind, HazardKind::Deadlock);
  // Cycle printed as a stream/action chain with the first node repeated.
  ASSERT_GE(h.cycle.size(), 3u);
  EXPECT_EQ(h.cycle.front().id, h.cycle.back().id);
  bool saw1 = false;
  bool saw2 = false;
  for (const auto& n : h.cycle) {
    saw1 = saw1 || n.id == a1;
    saw2 = saw2 || n.id == a2;
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
  EXPECT_NE(h.message.find("cycle"), std::string::npos);
}

TEST(Fixtures, RaceReportIsCappedAndSorted) {
  // 11 writers on stream 0 and 11 on stream 1, all over the same bytes:
  // 121 unordered cross-stream WAW pairs. The scan visits them in enqueue
  // order and stops at 100, so the pairs of the last writer on stream 0 and
  // all but the first of its predecessor's are dropped.
  GraphRecord g;
  g.declare_buffer(kBuf, 64);
  const BufferAccess w{kBuf, AccessMode::Write, MemRange::flat(0, 64)};
  std::vector<std::uint64_t> left;
  std::vector<std::uint64_t> right;
  for (int i = 0; i < 11; ++i) left.push_back(g.add_kernel(0, 0, "left", {w}));
  for (int i = 0; i < 11; ++i) right.push_back(g.add_kernel(1, 0, "right", {w}));

  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.hazards.begin(), a.hazards.end(), [](const auto& x, const auto& y) {
    return std::tuple(x.second.id, x.first.id, static_cast<int>(x.kind)) <
           std::tuple(y.second.id, y.first.id, static_cast<int>(y.kind));
  }));
  std::size_t from_tenth = 0;
  for (const auto& h : a.hazards) {
    EXPECT_EQ(h.kind, HazardKind::RaceWAW);
    EXPECT_NE(h.first.id, left[10]);
    if (h.first.id == left[9]) {
      ++from_tenth;
      EXPECT_EQ(h.second.id, right[0]);
    }
  }
  EXPECT_EQ(from_tenth, 1u);
}

TEST(Fixtures, FifoOrdersSameStream) {
  // Overlapping writes on one stream: FIFO is a real ordering edge.
  GraphRecord g;
  g.declare_buffer(kBuf, 256);
  g.add_h2d(0, 0, kBuf, 0, 256);
  g.add_h2d(0, 0, kBuf, 0, 256);
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Fixtures, HostSyncJoinsEverythingBefore) {
  // Stream 0 uploads; the host blocks on that upload; stream 1's kernel is
  // enqueued after the join, so it needs no explicit event edge.
  GraphRecord g;
  g.declare_buffer(kBuf, 128);
  const auto up = g.add_h2d(0, 0, kBuf, 0, 128);
  g.add_host_sync({up});
  g.add_kernel(1, 0, "late", {{kBuf, AccessMode::Read, MemRange::flat(0, 128)}});
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Fixtures, TransitiveOrderIsEnough) {
  // up -> k1 (event), k1 -> k2 (event); k2 vs up must be ordered through the
  // vector clocks even though there is no direct edge.
  GraphRecord g;
  g.declare_buffer(kBuf, 512);
  const auto up = g.add_h2d(0, 0, kBuf, 0, 512);
  const auto k1 =
      g.add_kernel(1, 0, "mid", {{kBuf, AccessMode::ReadWrite, MemRange::flat(0, 512)}}, {up});
  g.add_kernel(2, 0, "last", {{kBuf, AccessMode::ReadWrite, MemRange::flat(0, 512)}}, {k1});
  EXPECT_TRUE(analyze(g).clean());
}

TEST(Fixtures, WawClassifiedWhenBothWrite) {
  GraphRecord g;
  g.declare_buffer(kBuf, 64);
  g.add_h2d(0, 0, kBuf, 0, 64);
  g.add_h2d(1, 0, kBuf, 0, 64);
  const auto a = analyze(g);
  // Device-space WAW between the two uploads, host-space is read/read.
  ASSERT_EQ(a.hazards.size(), 1u);
  EXPECT_EQ(a.hazards[0].kind, HazardKind::RaceWAW);
}

TEST(Fixtures, SegmentResetDropsOldNodesButKeepsCoverage) {
  GraphRecord g;
  g.declare_buffer(kBuf, 256);
  g.add_h2d(0, 0, kBuf, 0, 256);
  ms::analyze::Coverage cover;
  EXPECT_TRUE(analyze(g, &cover).clean());
  g.reset_segment();
  // Next segment reads the bytes the previous segment wrote: the carried
  // coverage must keep use-before-write quiet.
  g.add_d2h(1, 0, kBuf, 0, 256);
  EXPECT_TRUE(analyze(g, &cover).clean());
  // Without the carry, the same segment is a use-before-write.
  EXPECT_EQ(analyze(g).hazards.size(), 1u);
}

TEST(Reports, JsonShapeAndDotSubgraph) {
  GraphRecord g;
  g.declare_buffer(kBuf, 4096, "grid");
  g.add_h2d(0, 0, kBuf, 0, 4096);
  g.add_kernel(1, 0, "stencil", {{kBuf, AccessMode::Read, MemRange::flat(0, 4096)}});
  const auto a = analyze(g);
  ASSERT_EQ(a.hazards.size(), 1u);

  const std::string json = ms::analyze::json_report(a);
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("\"race-raw\""), std::string::npos);
  EXPECT_NE(json.find("\"grid\""), std::string::npos);

  const std::string dot = ms::analyze::dot_racy_subgraph(a, g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("stencil"), std::string::npos);
  EXPECT_NE(dot.find("race-raw"), std::string::npos);  // the dashed missing-edge label

  const std::string text = ms::analyze::text_report(a);
  EXPECT_NE(text.find("1 hazard"), std::string::npos);
}

TEST(Reports, CleanText) {
  GraphRecord g;
  g.declare_buffer(kBuf, 64);
  g.add_h2d(0, 0, kBuf, 0, 64);
  const auto a = analyze(g);
  EXPECT_NE(ms::analyze::text_report(a).find("clean"), std::string::npos);
  EXPECT_NE(ms::analyze::json_report(a).find("\"clean\": true"), std::string::npos);
}

}  // namespace
