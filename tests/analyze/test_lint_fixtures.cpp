// Seeded anti-pattern fixtures for the performance linter: hand-built
// GraphRecords (same builder API the runtime recorder uses), one per rule id,
// asserting the exact rule, offending actions, and fix-it — plus negatives
// showing each rule's gate, and hand-computed critical-path bound checks.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "analyze/perf_lint.hpp"
#include "analyze/record.hpp"
#include "sim/pcie_link.hpp"
#include "sim/sim_config.hpp"

namespace {

using ms::analyze::GraphRecord;
using ms::analyze::lint;
using ms::analyze::LintCarry;
using ms::analyze::LintFinding;
using ms::analyze::LintReport;
using ms::analyze::LintSeverity;
using ms::rt::AccessMode;
using ms::rt::BufferId;
using ms::rt::MemRange;
using ms::sim::SimConfig;
using ms::sim::SimTime;
namespace rule = ms::analyze::rule;

constexpr BufferId kA{1};
constexpr BufferId kB{2};
constexpr std::size_t kMiB = 1u << 20;

SimConfig config() { return SimConfig::phi_31sp(); }

std::vector<std::string> rules_of(const LintReport& r) {
  std::vector<std::string> out;
  out.reserve(r.findings.size());
  for (const LintFinding& f : r.findings) out.push_back(f.rule);
  return out;
}

/// rules_of(r) without the findings of rule `skip` (a rule that legitimately
/// fires on a fixture built to probe another one).
std::vector<std::string> rules_except(const LintReport& r, std::string_view skip) {
  std::vector<std::string> out = rules_of(r);
  std::erase(out, skip);
  return out;
}

// --- critical-path / link bound ---------------------------------------------

TEST(LintBound, HandComputedChain) {
  // One stream: 1 MiB up -> 500 us kernel -> 1 MiB down. The FIFO chain is
  // the critical path; the serialized link only holds the two transfers.
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "payload");
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_kernel(0, 0, "work", {{kA, AccessMode::ReadWrite, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(500));
  g.add_d2h(0, 0, kA, 0, kMiB);

  const SimConfig cfg = config();
  const SimTime floor = ms::sim::transfer_floor(cfg.link, kMiB);
  const LintReport r = lint(g, cfg);
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.devices[0].device, 0);
  EXPECT_EQ(r.devices[0].h2d, floor);
  EXPECT_EQ(r.devices[0].d2h, floor);
  EXPECT_EQ(r.devices[0].link, floor + floor);  // half-duplex: sum
  EXPECT_EQ(r.devices[0].path, floor + SimTime::micros(500) + floor);
  EXPECT_EQ(r.bound, r.devices[0].path);  // path dominates the link here
}

TEST(LintBound, WaitCycleIsCyclicWithNoFindings) {
  // The wait cycle of Fixtures.TwoStreamWaitCycleIsDeadlock: the linter
  // shares the hazard analyzer's order, sees the cycle, and bounds nothing.
  GraphRecord g;
  g.declare_buffer(kA, 64);
  const auto left = g.add_kernel(0, 0, "left", {}, {2});
  g.add_kernel(1, 0, "right", {}, {left});

  const LintReport r = lint(g, config());
  EXPECT_TRUE(r.cyclic);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.bound, SimTime::zero());
}

TEST(LintBound, SerializedLinkDominatesParallelStreams) {
  // Two streams move 1 MiB each way with no ordering: the DAG paths are one
  // transfer long, but the half-duplex engine must still run all four
  // transfers back to back (paper Fig. 5).
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, 4 * kMiB, "a");
  g.declare_buffer(kB, 4 * kMiB, "b");
  g.assume_device_resident(kB);
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_h2d(0, 0, kA, kMiB, kMiB);
  g.add_d2h(1, 0, kB, 0, kMiB);
  g.add_d2h(1, 0, kB, kMiB, kMiB);

  const SimConfig cfg = config();
  const SimTime floor = ms::sim::transfer_floor(cfg.link, kMiB);
  const LintReport r = lint(g, cfg);
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.devices[0].path, floor + floor);  // two-deep FIFO chains
  EXPECT_EQ(r.devices[0].link, 4.0 * floor);
  EXPECT_EQ(r.bound, 4.0 * floor);  // link occupancy is the binding floor
}

TEST(LintBound, DuplexLinkTakesMaxOfDirections) {
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, 4 * kMiB, "a");
  g.assume_device_resident(kA);
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_d2h(1, 0, kA, kMiB, 2 * kMiB);

  SimConfig cfg = config();
  cfg.link.full_duplex = true;
  const LintReport r = lint(g, cfg);
  ASSERT_EQ(r.devices.size(), 1u);
  EXPECT_EQ(r.devices[0].link, r.devices[0].d2h);  // max(h2d, d2h)
  EXPECT_TRUE(r.clean()) << r.findings.front().message;
}

// --- duplex-serialization ----------------------------------------------------

GraphRecord duplex_record(int per_direction) {
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, 8 * kMiB, "up");
  g.declare_buffer(kB, 8 * kMiB, "down");
  g.assume_device_resident(kB);
  for (int i = 0; i < per_direction; ++i) {
    g.add_h2d(0, 0, kA, static_cast<std::size_t>(i) * kMiB, kMiB);
    g.add_d2h(1, 0, kB, static_cast<std::size_t>(i) * kMiB, kMiB);
  }
  return g;
}

TEST(LintRules, DuplexSerialization) {
  const GraphRecord g = duplex_record(4);
  const LintReport r = lint(g, config());
  ASSERT_EQ(rules_of(r), std::vector<std::string>{std::string(rule::kDuplexSerialization)});
  const LintFinding& f = r.findings[0];
  EXPECT_EQ(f.severity, LintSeverity::Warning);
  EXPECT_EQ(f.device, 0);
  ASSERT_EQ(f.actions.size(), 2u);
  EXPECT_EQ(f.actions[0].kind, ms::analyze::NodeKind::H2D);
  EXPECT_EQ(f.actions[1].kind, ms::analyze::NodeKind::D2H);
  EXPECT_NE(f.message.find("Fig. 5"), std::string::npos);
  EXPECT_NE(f.fixit.find("max(h2d, d2h)"), std::string::npos);
}

TEST(LintRules, DuplexNeedsUnorderedPair) {
  // Same volumes, but every D2H is ordered after every H2D via one event
  // edge: the directions never contend, so the rule stays quiet.
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, 8 * kMiB, "up");
  g.declare_buffer(kB, 8 * kMiB, "down");
  g.assume_device_resident(kB);
  std::uint64_t last = 0;
  for (int i = 0; i < 4; ++i) {
    last = g.add_h2d(0, 0, kA, static_cast<std::size_t>(i) * kMiB, kMiB);
  }
  for (int i = 0; i < 4; ++i) {
    g.add_d2h(1, 0, kB, static_cast<std::size_t>(i) * kMiB, kMiB, {last});
  }
  // The serializing edge is deliberate here; skip the (correct)
  // false-dependency verdict on it to isolate the duplex gate.
  EXPECT_TRUE(rules_except(lint(g, config()), rule::kFalseDependency).empty());
}

TEST(LintRules, DuplexNeedsLinkBoundSegment) {
  // One tiny transfer each way: unordered duplex exists, but the segment is
  // micro-scale (link << duplex_min_link) — launch-overhead noise, not a
  // restructuring target.
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, kMiB, "up");
  g.declare_buffer(kB, kMiB, "down");
  g.assume_device_resident(kB);
  g.add_h2d(0, 0, kA, 0, 4096);
  g.add_d2h(1, 0, kB, 0, 4096);
  EXPECT_TRUE(lint(g, config()).clean());
}

TEST(LintRules, DuplexDisabledOnFullDuplexLink) {
  GraphRecord g = duplex_record(4);
  SimConfig cfg = config();
  cfg.link.full_duplex = true;
  EXPECT_TRUE(lint(g, cfg).clean());
}

// --- false-dependency --------------------------------------------------------

TEST(LintRules, FalseDependency) {
  // Stream 1's upload waits on stream 0's upload although they touch
  // different buffers; nothing else orders them, so the edge only blocks
  // overlap.
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, kMiB, "a");
  g.declare_buffer(kB, kMiB, "b");
  const auto first = g.add_h2d(0, 0, kA, 0, kMiB);
  const auto second = g.add_h2d(1, 0, kB, 0, kMiB, {first});

  const LintReport r = lint(g, config());
  ASSERT_EQ(rules_of(r), std::vector<std::string>{std::string(rule::kFalseDependency)});
  const LintFinding& f = r.findings[0];
  EXPECT_EQ(f.severity, LintSeverity::Warning);
  ASSERT_EQ(f.actions.size(), 2u);
  EXPECT_EQ(f.actions[0].id, first);
  EXPECT_EQ(f.actions[1].id, second);
  EXPECT_NE(f.fixit.find("drop"), std::string::npos);
}

TEST(LintRules, TransitiveCarrierEdgeIsNotFalse) {
  // The kA-disjoint edge onto stream 1 carries ordering for the *later*
  // stream-1 reader of kA (FIFO): removing it would race, so it stays.
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, kMiB, "a");
  g.declare_buffer(kB, kMiB, "b");
  const auto w = g.add_kernel(0, 0, "producer",
                              {{kA, AccessMode::Write, MemRange::flat(0, kMiB)}});
  g.add_kernel(1, 0, "middle", {{kB, AccessMode::Read, MemRange::flat(0, kMiB)}}, {w});
  g.add_kernel(1, 0, "consumer", {{kA, AccessMode::Read, MemRange::flat(0, kMiB)}});
  g.assume_device_resident(kB);
  EXPECT_TRUE(lint(g, config()).clean());
}

TEST(LintRules, CoveredEdgeIsNotReported) {
  // The host already waited on the producer, so the explicit belt-and-braces
  // event edge constrains nothing: not an overlap blocker.
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, kMiB, "a");
  g.declare_buffer(kB, kMiB, "b");
  const auto first = g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_host_sync({first});
  g.add_h2d(1, 0, kB, 0, kMiB, {first});
  EXPECT_TRUE(lint(g, config()).clean());
}

TEST(LintRules, FalseDependencySkippedOnRacySegments) {
  GraphRecord g;
  g.stream_count = 3;
  g.declare_buffer(kA, kMiB, "a");
  g.declare_buffer(kB, kMiB, "b");
  const auto first = g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_h2d(1, 0, kB, 0, kMiB, {first});
  // An unrelated race elsewhere in the segment: "provably unordered" means
  // nothing, so the rule must not fire.
  g.add_kernel(1, 0, "w1", {{kB, AccessMode::Write, MemRange::flat(0, 64)}});
  g.add_kernel(2, 0, "w2", {{kB, AccessMode::Write, MemRange::flat(0, 64)}});
  EXPECT_TRUE(lint(g, config(), nullptr, /*hazard_count=*/1).clean());
}

// --- single-stream-pipeline --------------------------------------------------

TEST(LintRules, SingleStreamPipeline) {
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "a");
  for (int round = 0; round < 3; ++round) {
    g.add_h2d(0, 0, kA, 0, kMiB);
    g.add_kernel(0, 0, "exe", {{kA, AccessMode::ReadWrite, MemRange::flat(0, kMiB)}}, {},
                 SimTime::micros(100));
    g.add_d2h(0, 0, kA, 0, kMiB);
  }
  const LintReport r = lint(g, config());
  ASSERT_EQ(rules_of(r), std::vector<std::string>{std::string(rule::kSingleStreamPipeline)});
  EXPECT_EQ(r.findings[0].device, 0);
  EXPECT_NE(r.findings[0].fixit.find("setup(P >= 2)"), std::string::npos);
}

TEST(LintRules, PipelineRoundsAccumulateAcrossSegments) {
  // The baseline apps synchronize once per iteration, so each segment holds
  // exactly one round; only the carry shows the repetition.
  LintCarry carry;
  const SimConfig cfg = config();
  std::vector<LintFinding> all;
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "a");
  for (int seg = 0; seg < 3; ++seg) {
    g.add_h2d(0, 0, kA, 0, kMiB);
    g.add_kernel(0, 0, "exe", {{kA, AccessMode::ReadWrite, MemRange::flat(0, kMiB)}}, {},
                 SimTime::micros(100));
    g.add_d2h(0, 0, kA, 0, kMiB);
    const LintReport r = lint(g, cfg, &carry);
    for (const LintFinding& f : r.findings) all.push_back(f);
    g.reset_segment();
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].rule, rule::kSingleStreamPipeline);
}

TEST(LintRules, TwoStreamPipelineIsClean) {
  // Compute-bound two-stream pipeline (500 us kernels keep the per-stream
  // path above the link occupancy, so duplex-serialization stays out too).
  GraphRecord g;
  g.stream_count = 2;
  g.declare_buffer(kA, 2 * kMiB, "a");
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < 2; ++s) {
      const std::size_t off = static_cast<std::size_t>(s) * kMiB;
      g.add_h2d(s, 0, kA, off, kMiB);
      g.add_kernel(s, 0, "exe", {{kA, AccessMode::ReadWrite, MemRange::flat(off, kMiB)}}, {},
                   SimTime::micros(500));
      g.add_d2h(s, 0, kA, off, kMiB);
    }
  }
  EXPECT_TRUE(lint(g, config()).clean());
}

// --- split-core-partition ----------------------------------------------------

TEST(LintRules, SplitCorePartition) {
  GraphRecord g;
  g.partitions = 3;  // 56 usable cores: 3 does not divide them
  g.declare_buffer(kA, kMiB, "a");
  g.assume_device_resident(kA);
  g.add_kernel(0, 0, "exe", {{kA, AccessMode::Read, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  const LintReport r = lint(g, config());
  ASSERT_EQ(rules_of(r), std::vector<std::string>{std::string(rule::kSplitCorePartition)});
  EXPECT_NE(r.findings[0].message.find("3 partitions"), std::string::npos);
  // Nearest aligned neighbours of 3 in {2,4,7,8,14,28,56}.
  EXPECT_NE(r.findings[0].fixit.find("2 or 4"), std::string::npos);
}

TEST(LintRules, AlignedPartitionsAreClean) {
  for (const int p : {1, 2, 4, 7, 8, 14, 28, 56}) {
    GraphRecord g;
    g.partitions = p;
    g.declare_buffer(kA, kMiB, "a");
    g.assume_device_resident(kA);
    g.add_kernel(0, 0, "exe", {{kA, AccessMode::Read, MemRange::flat(0, kMiB)}}, {},
                 SimTime::micros(100));
    EXPECT_TRUE(lint(g, config()).clean()) << "P=" << p;
  }
}

TEST(LintRules, CheckPartitionShapeMatchesRule) {
  const ms::sim::CoprocessorSpec spec = ms::sim::SimConfig::phi_31sp().device;
  EXPECT_TRUE(ms::analyze::check_partition_shape(spec, 28).empty());
  const auto bad = ms::analyze::check_partition_shape(spec, 5);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rule, rule::kSplitCorePartition);
  // Out-of-range shapes are the PartitionTable ctor's domain, not a finding.
  EXPECT_TRUE(ms::analyze::check_partition_shape(spec, 0).empty());
  EXPECT_TRUE(ms::analyze::check_partition_shape(spec, 100000).empty());
}

// --- sub-knee-transfer -------------------------------------------------------

TEST(LintRules, SubKneeTransfer) {
  // Eight distinct 32 KiB chunks: each sits below half the ~82.5 KiB knee of
  // the 31SP link, and together they move enough bytes to matter.
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "tiles");
  const std::size_t chunk = 32u << 10;
  for (std::size_t i = 0; i < 8; ++i) g.add_h2d(0, 0, kA, i * chunk, chunk);
  const LintReport r = lint(g, config());
  ASSERT_EQ(rules_of(r), std::vector<std::string>{std::string(rule::kSubKneeTransfer)});
  const LintFinding& f = r.findings[0];
  EXPECT_EQ(f.severity, LintSeverity::Note);
  EXPECT_EQ(f.buffer_name, "tiles");
  EXPECT_NE(f.message.find("8 distinct H2D chunks"), std::string::npos);
  EXPECT_NE(f.fixit.find("coalesce"), std::string::npos);
}

TEST(LintRules, RepeatedControlBlockIsNotSubKnee) {
  // The same tiny range re-uploaded many times is one distinct shape, not
  // death-by-a-thousand-tiles. (Skip redundant-h2d: that rule *does*
  // legitimately fire here.)
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "ctl");
  LintCarry carry;
  for (int i = 0; i < 16; ++i) g.add_h2d(0, 0, kA, 0, 4096);
  EXPECT_TRUE(rules_except(lint(g, config(), &carry), rule::kRedundantH2D).empty());
}

TEST(LintRules, AboveKneeChunksAreClean) {
  GraphRecord g;
  g.declare_buffer(kA, 8 * kMiB, "tiles");
  const std::size_t chunk = 256u << 10;  // well above the knee
  for (std::size_t i = 0; i < 8; ++i) g.add_h2d(0, 0, kA, i * chunk, chunk);
  EXPECT_TRUE(lint(g, config()).clean());
}

// --- redundant-h2d -----------------------------------------------------------

TEST(LintRules, RedundantH2D) {
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "weights");
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_kernel(0, 0, "consume", {{kA, AccessMode::Read, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  const auto second = g.add_h2d(0, 0, kA, 0, kMiB);  // nothing changed in between

  const LintReport r = lint(g, config());
  ASSERT_EQ(rules_of(r), std::vector<std::string>{std::string(rule::kRedundantH2D)});
  const LintFinding& f = r.findings[0];
  EXPECT_EQ(f.severity, LintSeverity::Note);
  EXPECT_EQ(f.buffer, kA.value);
  EXPECT_EQ(f.buffer_name, "weights");
  ASSERT_EQ(f.actions.size(), 1u);
  EXPECT_EQ(f.actions[0].id, second);
  EXPECT_NE(f.fixit.find("host_write"), std::string::npos);
}

TEST(LintRules, HostWriteMakesReuploadMeaningful) {
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "weights");
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_kernel(0, 0, "consume", {{kA, AccessMode::Read, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  g.add_host_write(kA, 0, kMiB);  // host mutated the bytes
  g.add_h2d(0, 0, kA, 0, kMiB);
  EXPECT_TRUE(lint(g, config()).clean());
}

TEST(LintRules, KernelWriteMakesReuploadMeaningful) {
  // The device copy diverged; re-uploading restores host values.
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "state");
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_kernel(0, 0, "mutate", {{kA, AccessMode::ReadWrite, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  g.add_h2d(0, 0, kA, 0, kMiB);
  EXPECT_TRUE(lint(g, config()).clean());
}

TEST(LintRules, RedundancyTracksAcrossSegments) {
  // The iteration-loop shape: upload in segment 1, re-upload in segment 2.
  LintCarry carry;
  const SimConfig cfg = config();
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "weights");
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_kernel(0, 0, "consume", {{kA, AccessMode::Read, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  EXPECT_TRUE(lint(g, cfg, &carry).clean());

  g.reset_segment();
  g.add_h2d(0, 0, kA, 0, kMiB);
  const LintReport r2 = lint(g, cfg, &carry);
  ASSERT_EQ(rules_of(r2), std::vector<std::string>{std::string(rule::kRedundantH2D)});
}

// --- dead-action -------------------------------------------------------------

TEST(LintRules, DeadAction) {
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "in");
  g.declare_buffer(kB, kMiB, "out");
  g.add_h2d(0, 0, kA, 0, kMiB);
  const auto k = g.add_kernel(0, 0, "produce",
                              {{kA, AccessMode::Read, MemRange::flat(0, kMiB)},
                               {kB, AccessMode::Write, MemRange::flat(0, kMiB)}},
                              {}, SimTime::micros(100));
  // No readback of kB: the kernel's output dies on the device.
  LintCarry carry;
  EXPECT_TRUE(lint(g, config(), &carry).clean());  // verdict only final at the end
  const std::vector<LintFinding> fin = ms::analyze::finalize_lint(carry);
  ASSERT_EQ(fin.size(), 1u);
  EXPECT_EQ(fin[0].rule, rule::kDeadAction);
  EXPECT_EQ(fin[0].severity, LintSeverity::Warning);
  EXPECT_EQ(fin[0].buffer_name, "out");
  ASSERT_EQ(fin[0].actions.size(), 1u);
  EXPECT_EQ(fin[0].actions[0].id, k);
}

TEST(LintRules, ReadbackConsumesTheWrite) {
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "in");
  g.declare_buffer(kB, kMiB, "out");
  g.add_h2d(0, 0, kA, 0, kMiB);
  g.add_kernel(0, 0, "produce",
               {{kA, AccessMode::Read, MemRange::flat(0, kMiB)},
                {kB, AccessMode::Write, MemRange::flat(0, kMiB)}},
               {}, SimTime::micros(100));
  g.add_d2h(0, 0, kB, 0, kMiB);
  LintCarry carry;
  EXPECT_TRUE(lint(g, config(), &carry).clean());
  EXPECT_TRUE(ms::analyze::finalize_lint(carry).empty());
}

TEST(LintRules, OverwriteConsumesTheWrite) {
  // Iterative ping-pong: a later overwrite of the same range counts as
  // consumption, keeping stencil-style state out of the report.
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "state");
  g.add_kernel(0, 0, "step1", {{kA, AccessMode::ReadWrite, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  g.add_kernel(0, 0, "step2", {{kA, AccessMode::ReadWrite, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  g.add_d2h(0, 0, kA, 0, kMiB);
  LintCarry carry;
  EXPECT_TRUE(lint(g, config(), &carry).clean());
  EXPECT_TRUE(ms::analyze::finalize_lint(carry).empty());
}

TEST(LintRules, ConsumptionCrossesSegments) {
  // One record across two segments — the recorder idiom. reset_segment keeps
  // the id sequence monotone, so the later readback is a distinct node (a
  // fresh record would reuse id 1 and look like the write's own node).
  LintCarry carry;
  const SimConfig cfg = config();
  GraphRecord g;
  g.declare_buffer(kA, kMiB, "state");
  g.add_kernel(0, 0, "produce", {{kA, AccessMode::Write, MemRange::flat(0, kMiB)}}, {},
               SimTime::micros(100));
  EXPECT_TRUE(lint(g, cfg, &carry).clean());
  g.reset_segment();
  g.add_d2h(0, 0, kA, 0, kMiB);
  EXPECT_TRUE(lint(g, cfg, &carry).clean());
  EXPECT_TRUE(ms::analyze::finalize_lint(carry).empty());
}

// --- rule catalog ------------------------------------------------------------

TEST(LintOptionsTest, RuleCatalogIsStable) {
  const auto& ids = ms::analyze::lint_rule_ids();
  ASSERT_EQ(ids.size(), 7u);
  EXPECT_EQ(ids[0], rule::kDuplexSerialization);
  EXPECT_EQ(ids[6], rule::kDeadAction);
}

}  // namespace
