#include <gtest/gtest.h>

#include <vector>

#include "rt/context.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

sim::KernelWork work(double elems = 1e6) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = elems;
  return w;
}

TEST(Events, NullEventCountsAsDone) {
  Event e;
  EXPECT_FALSE(e.valid());
  EXPECT_TRUE(e.done());
  EXPECT_EQ(e.time(), sim::SimTime::zero());
}

TEST(Events, CrossStreamDependencyOrdersExecution) {
  Context ctx(cfg());
  ctx.setup(2);
  std::vector<int> order;
  const Event e0 =
      ctx.stream(0).enqueue_kernel({"producer", work(1e7), [&] { order.push_back(0); }});
  ctx.stream(1).enqueue_kernel({"consumer", work(1e3), [&] { order.push_back(1); }}, {e0});
  ctx.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Events, DependentSpanStartsAfterDependencyEnds) {
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(2);
  const Event e0 = ctx.stream(0).enqueue_kernel({"producer", work(1e7), {}});
  ctx.stream(1).enqueue_kernel({"consumer", work(1e3), {}}, {e0});
  ctx.synchronize();
  const auto& spans = ctx.timeline().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[1].start, spans[0].end);
}

TEST(Events, IndependentStreamsIgnoreEachOther) {
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(2);
  ctx.stream(0).enqueue_kernel({"a", work(1e8), {}});
  ctx.stream(1).enqueue_kernel({"b", work(1e3), {}});
  ctx.synchronize();
  const auto& spans = ctx.timeline().spans();
  ASSERT_EQ(spans.size(), 2u);
  // The small kernel must NOT wait for the big one.
  const auto& small = spans[0].label == "b" ? spans[0] : spans[1];
  const auto& big = spans[0].label == "b" ? spans[1] : spans[0];
  EXPECT_LT(small.end, big.end);
}

TEST(Events, MultipleDependenciesAllRespected) {
  Context ctx(cfg());
  ctx.setup(4);
  std::vector<int> order;
  std::vector<Event> deps;
  for (int i = 0; i < 3; ++i) {
    deps.push_back(ctx.stream(i).enqueue_kernel(
        {"p", work(1e6 * (i + 1)), [&order, i] { order.push_back(i); }}));
  }
  ctx.stream(3).enqueue_kernel({"join", work(1e3), [&] { order.push_back(99); }}, deps);
  ctx.synchronize();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.back(), 99);
}

TEST(Events, CompletedDependencyDoesNotBlock) {
  Context ctx(cfg());
  ctx.setup(2);
  const Event e0 = ctx.stream(0).enqueue_kernel({"p", work(), {}});
  ctx.synchronize();
  ASSERT_TRUE(e0.done());
  int ran = 0;
  ctx.stream(1).enqueue_kernel({"c", work(), [&] { ran = 1; }}, {e0});
  ctx.synchronize();
  EXPECT_EQ(ran, 1);
}

TEST(Events, DependencyOnTransferEvent) {
  Context ctx(cfg());
  ctx.setup(2);
  std::vector<float> data(1024, 3.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  const Event up = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  float seen = 0.0f;
  ctx.stream(1).enqueue_kernel({"probe", work(), [&] { seen = *ctx.device_ptr<float>(buf, 0); }},
                               {up});
  ctx.synchronize();
  EXPECT_FLOAT_EQ(seen, 3.0f);  // transfer definitely happened first
}

TEST(Events, DiamondDependencyGraph) {
  //      a
  //     / \
  //    b   c
  //     \ /
  //      d
  Context ctx(cfg());
  ctx.setup(4);
  std::vector<char> order;
  const Event a = ctx.stream(0).enqueue_kernel({"a", work(), [&] { order.push_back('a'); }});
  const Event b =
      ctx.stream(1).enqueue_kernel({"b", work(2e6), [&] { order.push_back('b'); }}, {a});
  const Event c =
      ctx.stream(2).enqueue_kernel({"c", work(3e6), [&] { order.push_back('c'); }}, {a});
  ctx.stream(3).enqueue_kernel({"d", work(), [&] { order.push_back('d'); }}, {b, c});
  ctx.synchronize();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 'a');
  EXPECT_EQ(order.back(), 'd');
}

TEST(Events, LongChainAcrossStreams) {
  Context ctx(cfg());
  ctx.setup(4);
  int counter = 0;
  Event prev;
  for (int i = 0; i < 32; ++i) {
    prev = ctx.stream(i % 4).enqueue_kernel(
        {"link", work(), [&counter, i] { EXPECT_EQ(counter, i); ++counter; }}, {prev});
  }
  ctx.synchronize();
  EXPECT_EQ(counter, 32);
}

TEST(Events, DuplicateDependenciesAreHarmless) {
  Context ctx(cfg());
  ctx.setup(2);
  const Event a = ctx.stream(0).enqueue_kernel({"a", work(), {}});
  int ran = 0;
  ctx.stream(1).enqueue_kernel({"b", work(), [&] { ran = 1; }}, {a, a, a});
  ctx.synchronize();
  EXPECT_EQ(ran, 1);
}

TEST(Events, EventTimeMatchesSpanEnd) {
  Context ctx(cfg());
  ctx.set_tracing(true);
  const Event e = ctx.stream(0).enqueue_kernel({"k", work(), {}});
  ctx.synchronize();
  ASSERT_EQ(ctx.timeline().size(), 1u);
  EXPECT_EQ(e.time(), ctx.timeline().spans()[0].end);
}

TEST(Events, EventOutlivesItsContext) {
  Event done_ev;
  Event pending_ev;
  sim::SimTime end = sim::SimTime::zero();
  {
    Context ctx(cfg());
    ctx.setup(2);
    done_ev = ctx.stream(0).enqueue_kernel({"k", work(), {}});
    ctx.synchronize();
    end = done_ev.time();
    pending_ev = ctx.stream(1).enqueue_kernel({"never-run", work(), {}});
  }
  // The states (and the store holding them) outlive the context.
  EXPECT_TRUE(done_ev.done());
  EXPECT_EQ(done_ev.time(), end);
  EXPECT_GT(end, sim::SimTime::zero());
  const Event copy = done_ev;
  EXPECT_EQ(copy.time(), end);
  EXPECT_TRUE(pending_ev.valid());
  EXPECT_FALSE(pending_ev.done());
}

TEST(Events, ContextDestroyedWithPendingWaiterEdges) {
  // The producer's state still holds waiter edges naming the consumers when
  // the context dies; handles to both must stay safe to read, copy and drop
  // (ASan flags any touch of a freed edge or action node).
  Event producer;
  Event consumer;
  {
    Context ctx(cfg());
    ctx.setup(2);
    producer = ctx.stream(0).enqueue_kernel({"producer", work(1e8), {}});
    for (int i = 0; i < 3; ++i) {
      consumer = ctx.stream(1).enqueue_kernel({"consumer", work(), {}}, {producer});
    }
  }
  EXPECT_FALSE(producer.done());
  EXPECT_FALSE(consumer.done());
  Event copy = producer;
  copy = consumer;
  EXPECT_FALSE(copy.done());
}

TEST(Events, SameInstantDependentsStartInRegistrationOrder) {
  // Both dependents become ready when the gate completes and compete for
  // partition 0, so whichever is armed first holds it: registration order
  // must decide, and the timeline shows it.
  Context ctx(cfg());
  ctx.set_tracing(true);
  ctx.setup(2);
  Stream& extra = ctx.add_stream(0, 0);
  const Event gate = ctx.stream(1).enqueue_kernel({"gate", work(1e8), {}});
  extra.enqueue_kernel({"first", work(1e6), {}}, {gate});
  ctx.stream(0).enqueue_kernel({"second", work(1e6), {}}, {gate});
  ctx.synchronize();

  const trace::Span* first = nullptr;
  const trace::Span* second = nullptr;
  for (const auto& s : ctx.timeline().spans()) {
    if (s.label == "first") first = &s;
    if (s.label == "second") second = &s;
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->start, gate.time());
  EXPECT_EQ(second->start, first->end);
}

}  // namespace
}  // namespace ms::rt
