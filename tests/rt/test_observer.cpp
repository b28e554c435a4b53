// The observer hook: direct issue and compiled replay report the same
// actions through the same enqueue event, and the analyzer turns both into
// the same action graph.

#include "rt/observer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analyze/capture.hpp"
#include "analyze/recorder.hpp"
#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"

namespace ms::rt {
namespace {

constexpr std::size_t kHalf = 64 << 10;

/// Replay pricing equal to direct issue: no launch base and a per-node cost
/// of one enqueue, so a replay's spans land where direct issue puts them.
sim::SimConfig cfg() {
  sim::SimConfig c = sim::SimConfig::phi_31sp();
  c.overhead.graph_launch_base = sim::SimTime::zero();
  c.overhead.graph_replay_per_node = c.overhead.action_enqueue;
  return c;
}

sim::KernelWork work(double elems) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = elems;
  return w;
}

/// Every kind of action on three streams, with cross-stream dependencies,
/// a labeled and an unlabeled kernel, declared accesses and a barrier join.
void issue_schedule(Context& ctx, BufferId buf) {
  const Event up0 = ctx.stream(0).enqueue_h2d(buf, 0, kHalf);
  const Event up1 = ctx.stream(1).enqueue_h2d(buf, kHalf, kHalf);
  const Event k0 = ctx.stream(0).enqueue_kernel(
      KernelLaunch("scale", work(1e5)).reads_writes(buf, 0, kHalf), {up0});
  const Event k1 = ctx.stream(1).enqueue_kernel(
      KernelLaunch("", work(2e5)).reads_writes(buf, kHalf, kHalf), {up1, up0});
  const Event join = ctx.stream(2).enqueue_barrier({k0, k1});
  const Event down = ctx.stream(2).enqueue_d2h(buf, 0, 2 * kHalf, {join});
  ctx.stream(0).enqueue_kernel(KernelLaunch("tail", work(5e4)).reads(buf, 0, kHalf), {down});
}

/// A context laid out for the schedule, with `o` (if any) installed before
/// anything is issued.
struct Rig {
  Context ctx{cfg()};
  BufferId buf;

  Rig() {
    ctx.setup(3);
    buf = ctx.create_virtual_buffer(2 * kHalf);
  }
  explicit Rig(Observer& o) : Rig() { ctx.add_observer(o); }

  /// Capture the schedule and replay it once.
  void replay() {
    Graph g;
    ctx.begin_capture(g);
    issue_schedule(ctx, buf);
    ctx.end_capture();
    CompiledGraph plan = std::move(g).compile(ctx, "observed");
    plan.launch(ctx);
  }
};

/// Keeps every enqueue and span it is shown and numbers actions 1, 2, ...
class RecordingObserver final : public Observer {
public:
  struct Enqueue {
    ActionKind kind;
    int stream;
    int device;
    int partition;
    std::string label;
    BufferId buffer;
    std::size_t offset;
    std::size_t bytes;
    std::vector<BufferAccess> accesses;
    sim::SimTime duration;
    std::vector<std::uint64_t> deps;
    bool operator==(const Enqueue&) const = default;
  };

  std::uint64_t on_enqueue(const ActionEnqueue& e) override {
    enqueues.push_back(Enqueue{e.kind, e.stream, e.device, e.partition, std::string(e.label),
                               e.buffer, e.offset, e.bytes,
                               std::vector<BufferAccess>(e.accesses.begin(), e.accesses.end()),
                               e.duration, std::vector<std::uint64_t>(e.deps.begin(), e.deps.end())});
    return enqueues.size();
  }
  void on_span(const trace::Span& s) override { spans.push_back(s); }

  std::vector<Enqueue> enqueues;
  std::vector<trace::Span> spans;
};

TEST(Observer, DirectIssueAndReplayReportTheSameActions) {
  RecordingObserver direct;
  {
    Rig rig(direct);
    issue_schedule(rig.ctx, rig.buf);
    rig.ctx.synchronize();
  }
  RecordingObserver replayed;
  {
    Rig rig(replayed);
    rig.replay();
    rig.ctx.synchronize();
  }

  // The replay adds its completion barrier, joining the leaves (the tail
  // kernel only).
  ASSERT_EQ(direct.enqueues.size(), 7u);
  ASSERT_EQ(replayed.enqueues.size(), direct.enqueues.size() + 1);
  for (std::size_t i = 0; i < direct.enqueues.size(); ++i) {
    EXPECT_EQ(replayed.enqueues[i], direct.enqueues[i]) << "action " << i;
  }
  EXPECT_EQ(direct.enqueues[3].label, "kernel");
  EXPECT_EQ(direct.enqueues[4].deps, (std::vector<std::uint64_t>{3, 4}));
  const RecordingObserver::Enqueue& bar = replayed.enqueues.back();
  EXPECT_EQ(bar.kind, ActionKind::Barrier);
  EXPECT_EQ(bar.deps, std::vector<std::uint64_t>{7});

  // Same spans, bar the replay id every replayed span carries and the
  // completion barrier's span.
  ASSERT_EQ(direct.spans.size(), 7u);
  ASSERT_EQ(replayed.spans.size(), direct.spans.size() + 1);
  std::size_t at = 0;
  for (const trace::Span& r : replayed.spans) {
    EXPECT_NE(r.replay_id, 0u);
    if (r.kind == trace::SpanKind::Sync && r.stream == 0) continue;  // completion barrier
    ASSERT_LT(at, direct.spans.size());
    const trace::Span& d = direct.spans[at++];
    EXPECT_EQ(d.replay_id, 0u);
    EXPECT_EQ(r.kind, d.kind) << "span " << at;
    EXPECT_EQ(r.device, d.device) << "span " << at;
    EXPECT_EQ(r.stream, d.stream) << "span " << at;
    EXPECT_EQ(r.partition, d.partition) << "span " << at;
    EXPECT_EQ(r.start, d.start) << "span " << at;
    EXPECT_EQ(r.end, d.end) << "span " << at;
    EXPECT_EQ(r.bytes, d.bytes) << "span " << at;
    EXPECT_EQ(r.label, d.label) << "span " << at;
  }
  EXPECT_EQ(at, direct.spans.size());
}

/// The analyzer's segment after the schedule was issued: read before the
/// drain that analyzes and drops it. The context is built before the
/// Capture, so the recorder installed by hand is its only analyzer.
std::vector<analyze::ActionNode> recorded(bool replay) {
  Rig rig;
  analyze::Capture capture;
  analyze::Recorder rec(cfg(), capture);
  rig.ctx.add_observer(rec);
  if (replay) {
    rig.replay();
  } else {
    issue_schedule(rig.ctx, rig.buf);
  }
  std::vector<analyze::ActionNode> nodes = rec.graph().nodes;
  rig.ctx.synchronize();
  rig.ctx.remove_observer(rec);
  return nodes;
}

TEST(Observer, AnalyzerRecordsDirectIssueAndReplayAlike) {
  const std::vector<analyze::ActionNode> direct = recorded(false);
  const std::vector<analyze::ActionNode> replayed = recorded(true);
  ASSERT_EQ(direct.size(), 7u);
  ASSERT_EQ(replayed.size(), direct.size() + 1);  // + the completion barrier
  // Recorders OR a per-recorder serial into bits 40 and up.
  const auto seq = [](std::uint64_t id) { return id & 0xFFFFFFFFFFull; };
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const analyze::ActionNode& d = direct[i];
    const analyze::ActionNode& r = replayed[i];
    EXPECT_EQ(seq(r.id), seq(d.id)) << "node " << i;
    EXPECT_EQ(r.kind, d.kind) << "node " << i;
    EXPECT_EQ(r.stream, d.stream) << "node " << i;
    EXPECT_EQ(r.device, d.device) << "node " << i;
    EXPECT_EQ(r.label, d.label) << "node " << i;
    EXPECT_EQ(r.buffer, d.buffer) << "node " << i;
    EXPECT_EQ(r.duration, d.duration) << "node " << i;
    ASSERT_EQ(r.deps.size(), d.deps.size()) << "node " << i;
    for (std::size_t k = 0; k < d.deps.size(); ++k) {
      EXPECT_EQ(seq(r.deps[k]), seq(d.deps[k])) << "node " << i << " dep " << k;
    }
    ASSERT_EQ(r.accesses.size(), d.accesses.size()) << "node " << i;
    for (std::size_t k = 0; k < d.accesses.size(); ++k) {
      EXPECT_EQ(r.accesses[k].buffer, d.accesses[k].buffer) << "node " << i;
      EXPECT_EQ(r.accesses[k].space, d.accesses[k].space) << "node " << i;
      EXPECT_EQ(r.accesses[k].mode, d.accesses[k].mode) << "node " << i;
      EXPECT_EQ(r.accesses[k].range, d.accesses[k].range) << "node " << i;
    }
  }
  EXPECT_EQ(replayed.back().kind, analyze::NodeKind::Barrier);
}

TEST(Observer, UnnumberedActionsReportNoDependencies) {
  // Only an observer that numbers actions gives dependencies ids; the
  // timeline numbers none, so a second observer beside it sees empty lists.
  struct DepCounter final : Observer {
    std::uint64_t on_enqueue(const ActionEnqueue& e) override {
      sizes.push_back(e.deps.size());
      return 0;
    }
    std::vector<std::size_t> sizes;
  } deps;
  Rig rig(deps);
  rig.ctx.set_tracing(true);
  issue_schedule(rig.ctx, rig.buf);
  rig.ctx.synchronize();
  EXPECT_EQ(deps.sizes, std::vector<std::size_t>(7, 0));
  EXPECT_EQ(rig.ctx.timeline().size(), 7u);
}

TEST(Observer, InstalledObserversAreListedOnce) {
  Context ctx(cfg());
  RecordingObserver o;
  ctx.add_observer(o);
  ctx.add_observer(o);
  const BufferId buf = ctx.create_virtual_buffer(kHalf);
  ctx.stream(0).enqueue_h2d(buf, 0, kHalf);
  ctx.synchronize();
  EXPECT_EQ(o.enqueues.size(), 1u);
  EXPECT_EQ(o.spans.size(), 1u);
  ctx.remove_observer(o);
  ctx.stream(0).enqueue_h2d(buf, 0, kHalf);
  ctx.synchronize();
  EXPECT_EQ(o.enqueues.size(), 1u);
  EXPECT_FALSE(ctx.tracing());
}

}  // namespace
}  // namespace ms::rt
