// The per-stream kernel-duration memo must be exact: every kernel a stream
// runs is charged bit for bit what CostModel::kernel_duration gives for its
// work on that stream's partition, whether the memo hits, misses, evicts or
// belongs to a stream recreated by setup() or added by add_stream().

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "rt/context.hpp"
#include "trace/timeline.hpp"

namespace ms::rt {
namespace {

/// Distinct works, more of them than the memo holds. They come in
/// families: a base work followed by variants that each change exactly one
/// field the memo keys on, so a key that ignored that field would hit the
/// base's entry and charge the wrong duration.
std::vector<sim::KernelWork> distinct_works() {
  std::vector<sim::KernelWork> works;
  for (int f = 0; f < 4; ++f) {
    sim::KernelWork base;
    base.kind = sim::KernelKind::Generic;
    base.flops = 1e6 * (f + 1);
    base.elems = 1e4;
    base.temp_alloc_bytes = 4096.0;
    works.push_back(base);
    sim::KernelWork v = base;
    v.kind = sim::KernelKind::Stencil;
    works.push_back(v);
    v = base;
    v.temp_alloc_per_thread = true;
    works.push_back(v);
    v = base;
    v.flops *= 64;
    works.push_back(v);
    v = base;
    v.elems *= 1000;
    works.push_back(v);
    v = base;
    v.temp_alloc_bytes *= 512;
    works.push_back(v);
  }
  // Same values as works[0] but a zero of the other sign: a different bit
  // pattern, so a separate entry, with an equal cost.
  sim::KernelWork neg;
  neg.flops = -0.0;
  works.push_back(neg);
  works.push_back(sim::KernelWork{});
  return works;
}

/// Issue `order` (indices into `works`) on `streams`, round robin, and
/// check every kernel span: its length must be exactly the cost model's
/// duration for that work on that span's partition. Returns the durations
/// checked, in issue order of the span list.
std::vector<double> issue_and_check(Context& ctx, const std::vector<int>& streams,
                                    const std::vector<sim::KernelWork>& works,
                                    const std::vector<std::size_t>& order) {
  ctx.set_tracing(true);
  ctx.timeline().clear();
  for (std::size_t i = 0; i < order.size(); ++i) {
    KernelLaunch launch;
    launch.label = std::to_string(order[i]);
    launch.work = works[order[i]];
    ctx.stream(streams[i % streams.size()]).enqueue_kernel(std::move(launch));
  }
  ctx.synchronize();

  std::vector<double> durations;
  std::size_t kernels = 0;
  for (const trace::Span& s : ctx.timeline().spans()) {
    if (s.kind != trace::SpanKind::Kernel) continue;
    ++kernels;
    const std::size_t w = std::stoul(std::string(s.label));
    const sim::PartitionView& part = ctx.platform().device(s.device).partition(s.partition);
    const sim::SimTime expected = ctx.cost().kernel_duration(works[w], part);
    EXPECT_EQ(s.end, s.start + expected) << "work " << w << " on stream " << s.stream;
    durations.push_back(expected.micros());
  }
  EXPECT_EQ(kernels, order.size());
  return durations;
}

TEST(KernelDurationMemo, RotationBeyondCapacityStaysExact) {
  Context ctx(sim::SimConfig::phi_31sp());
  // 8-thread partitions, narrow enough for the stencil locality term: a
  // work's kind changes its cost.
  ctx.setup(28);
  const auto works = distinct_works();
  const sim::PartitionView& part = ctx.platform().device(0).partition(0);
  for (std::size_t f = 0; f < 4; ++f) {
    for (std::size_t v = 1; v < 6; ++v) {
      ASSERT_NE(ctx.cost().kernel_duration(works[6 * f], part),
                ctx.cost().kernel_duration(works[6 * f + v], part))
          << "family " << f << " variant " << v << " must change the cost";
    }
  }
  std::vector<std::size_t> order;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < works.size(); ++i) order.push_back(i);
    for (std::size_t i = 0; i < 3; ++i) order.push_back(i);  // repeats: hits
  }
  issue_and_check(ctx, {0}, works, order);
  issue_and_check(ctx, {1, 2, 3}, works, order);
}

TEST(KernelDurationMemo, SetupRebuildsStreamsOnNewPartitions) {
  Context ctx(sim::SimConfig::phi_7120p());
  const auto works = distinct_works();
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < 8; ++i) order.push_back(i);

  ctx.setup(4);
  ASSERT_TRUE(ctx.platform().device(0).partition_table().core_aligned());
  const auto before = issue_and_check(ctx, {0, 1, 2, 3}, works, order);

  // 240 threads in 7 partitions: some partitions now split a core, so the
  // same works cost differently on the same stream indices.
  ctx.setup(7);
  ASSERT_FALSE(ctx.platform().device(0).partition_table().core_aligned());
  const auto after = issue_and_check(ctx, {0, 1, 2, 3}, works, order);
  EXPECT_NE(before, after);
}

TEST(KernelDurationMemo, AddedStreamUsesItsOwnPartition) {
  Context ctx(sim::SimConfig::phi_7120p());
  ctx.setup(7);
  const auto works = distinct_works();
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < works.size(); ++i) order.push_back(i);

  // Warm stream 0's memo on partition 0, then add a stream on partition 3.
  issue_and_check(ctx, {0}, works, order);
  const Stream& added = ctx.add_stream(0, 3);
  issue_and_check(ctx, {0, added.index()}, works, order);
}

}  // namespace
}  // namespace ms::rt
