#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace ms::sim {
namespace {

TEST(Engine, StartsIdleAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), SimTime::zero());
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::micros(30), [&] { order.push_back(3); });
  e.schedule_at(SimTime::micros(10), [&] { order.push_back(1); });
  e.schedule_at(SimTime::micros(20), [&] { order.push_back(2); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), SimTime::micros(30));
}

TEST(Engine, SameTimestampIsFifoStable) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.schedule_at(SimTime::micros(5), [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CallbackMaySchedule) {
  Engine e;
  int hits = 0;
  e.schedule_at(SimTime::micros(1), [&] {
    ++hits;
    e.schedule_after(SimTime::micros(1), [&] { ++hits; });
  });
  e.run_until_idle();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(e.now(), SimTime::micros(2));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(SimTime::micros(10), [] {});
  e.run_until_idle();
  EXPECT_THROW(e.schedule_at(SimTime::micros(5), [] {}), std::invalid_argument);
}

TEST(Engine, EmptyCallbackThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(SimTime::micros(1), Engine::Callback{}), std::invalid_argument);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::micros(1), [&] { order.push_back(1); });
  e.schedule_at(SimTime::micros(5), [&] { order.push_back(5); });
  e.run_until(SimTime::micros(3));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(e.pending(), 1u);
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(Engine, RunUntilAdvancesClockWhenDrained) {
  Engine e;
  e.run_until(SimTime::micros(100));
  EXPECT_EQ(e.now(), SimTime::micros(100));
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int hits = 0;
  e.schedule_at(SimTime::micros(1), [&] { ++hits; });
  e.schedule_at(SimTime::micros(2), [&] { ++hits; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(hits, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, CountsFiredEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_at(SimTime::micros(i + 1), [] {});
  e.run_until_idle();
  EXPECT_EQ(e.events_fired(), 7u);
}

TEST(Engine, ResetClearsEverything) {
  Engine e;
  e.schedule_at(SimTime::micros(50), [] {});
  e.reset();
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.now(), SimTime::zero());
  EXPECT_EQ(e.events_fired(), 0u);
  // Scheduling at t=0 works again after reset.
  int hits = 0;
  e.schedule_at(SimTime::zero(), [&] { ++hits; });
  e.run_until_idle();
  EXPECT_EQ(hits, 1);
}

TEST(Engine, InterleavedScheduleAndRunKeepsOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::micros(10), [&] { order.push_back(10); });
  e.run_until(SimTime::micros(4));
  e.schedule_at(SimTime::micros(6), [&] { order.push_back(6); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{6, 10}));
}

// Regression guard for the pooled representation: recycled callback slots
// must not disturb the same-timestamp FIFO contract. Fire a batch (slots go
// back to the free list), then schedule a same-timestamp batch through the
// recycled slots — insertion order must still win.
TEST(Engine, SameTimestampFifoSurvivesSlotRecycling) {
  Engine e;
  std::vector<int> order;
  for (int round = 0; round < 5; ++round) {
    order.clear();
    const SimTime when = e.now() + SimTime::micros(1);
    for (int i = 0; i < 40; ++i) {  // spans more than one slot chunk
      e.schedule_at(when, [&order, i] { order.push_back(i); });
    }
    e.run_until_idle();
    ASSERT_EQ(order.size(), 40u);
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "round " << round;
    }
  }
}

// reset() with events still pending must release their pooled slots: the
// engine stays usable and the FIFO/time ordering is intact afterwards.
TEST(Engine, ResetMidFlightReleasesPooledSlots) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(SimTime::micros(i + 50), [&order, i] { order.push_back(i); });
  }
  e.run_until(SimTime::micros(52));  // fire a few, leave the rest pending
  EXPECT_FALSE(e.idle());
  e.reset();
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.now(), SimTime::zero());

  order.clear();
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(SimTime::micros(100 - i), [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  ASSERT_EQ(order.size(), 100u);
  // Scheduled with descending timestamps, so they fire in reverse order.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], 99 - i);
  }
}

// A callback scheduling same-timestamp work while firing (the dispatching()
// window streams use for inline starts) still runs strictly after every
// event that was already queued for that instant.
TEST(Engine, SameTimestampWorkScheduledWhileDispatchingRunsLast) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::micros(5), [&] {
    order.push_back(0);
    EXPECT_TRUE(e.dispatching());
    e.schedule_at(SimTime::micros(5), [&] { order.push_back(9); });
  });
  e.schedule_at(SimTime::micros(5), [&] { order.push_back(1); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9}));
  EXPECT_FALSE(e.dispatching());
}

}  // namespace
}  // namespace ms::sim
