#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
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

TEST(Engine, NaNAndInfiniteTimesAreRejected) {
  Engine e;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(e.schedule_at(SimTime::micros(nan), [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_at(SimTime::micros(inf), [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_at(SimTime::micros(nan), Engine::Callback{[] {}}),
               std::invalid_argument);
  EXPECT_THROW(e.schedule_at(SimTime::micros(inf), Engine::Callback{[] {}}),
               std::invalid_argument);
  EXPECT_THROW(e.schedule_after(SimTime::micros(nan), [] {}), std::invalid_argument);
  EXPECT_TRUE(e.idle());
  // The largest finite time is still a valid (if distant) event.
  e.schedule_at(SimTime::max(), [] {});
  EXPECT_EQ(e.pending(), 1u);
}

// A NaN time used to be accepted (`NaN < now` is false) and then broke the
// order of every later event. Rejected, it leaves the order intact.
TEST(Engine, RejectedNaNLeavesLaterOrderIntact) {
  Engine e;
  std::vector<int> order;
  EXPECT_THROW(e.schedule_at(SimTime::micros(std::numeric_limits<double>::quiet_NaN()),
                             [&] { order.push_back(-1); }),
               std::invalid_argument);
  for (int t = 20; t >= 1; --t) {
    e.schedule_at(SimTime::micros(t), [&order, t] { order.push_back(t); });
  }
  e.run_until_idle();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i + 1);
}

TEST(Engine, NegativeZeroIsStoredAsPositiveZero) {
  Engine e;
  bool fired = false;
  e.schedule_at(SimTime::micros(-0.0), [&] { fired = true; });
  e.run_until_idle();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(std::signbit(e.now().micros()));
}

// The fired event stays at the root of the heap while its callback runs. A
// drain started from inside that callback must treat it as gone: it neither
// fires it again nor lets its (past) time pass the deadline test.
TEST(Engine, NestedRunUntilStopsAtItsDeadline) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::micros(1), [&] {
    order.push_back(1);
    e.run_until(SimTime::micros(1.5));
    order.push_back(-1);
    EXPECT_EQ(e.now(), SimTime::micros(1));
  });
  e.schedule_at(SimTime::micros(2), [&] { order.push_back(2); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, -1, 2}));
}

TEST(Engine, NestedStepFiresTheNextEventOnce) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::micros(1), [&] {
    order.push_back(1);
    EXPECT_EQ(e.pending(), 1u);
    EXPECT_TRUE(e.step());
    EXPECT_TRUE(e.idle());
    EXPECT_FALSE(e.step());
    e.schedule_at(SimTime::micros(3), [&] { order.push_back(3); });
  });
  e.schedule_at(SimTime::micros(2), [&] { order.push_back(2); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.events_fired(), 3u);
}

TEST(Engine, CallbackThatThrowsLeavesQueueConsistent) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::micros(1), [&] {
    e.schedule_at(SimTime::micros(4), [&] { order.push_back(4); });
    throw std::runtime_error("boom");
  });
  e.schedule_at(SimTime::micros(2), [] { throw std::runtime_error("boom"); });
  e.schedule_at(SimTime::micros(3), [&] { order.push_back(3); });
  EXPECT_THROW(e.run_until_idle(), std::runtime_error);
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_THROW(e.run_until_idle(), std::runtime_error);
  EXPECT_EQ(e.pending(), 2u);
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{3, 4}));
}

/// Differential check of the engine against a reference queue: an ordered
/// set of (when, seq) pairs. Each event, when it fires, must be the set's
/// minimum. Callbacks draw what to do next from a seeded generator:
/// schedule 0, 1 or several events (some at `now`), drain from inside the
/// callback with step() or run_until(), throw after scheduling, and read
/// pending()/idle() mid-dispatch.
class ReferenceHarness {
public:
  ReferenceHarness(std::uint64_t seed, std::size_t depth) : rng_(seed), depth_(depth) {}

  struct Boom {};

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      while (ref_.size() < depth_) schedule(later());
      max_pending_ = std::max(max_pending_, e_.pending());
      switch (draw(8)) {
        case 0:
        case 1:
        case 2:
          guarded([&] { e_.step(); });
          break;
        case 3:
        case 4:
          drain_until(e_.now().micros() + static_cast<double>(draw(6)));
          break;
        case 5:
          schedule(e_.now().micros());
          guarded([&] { e_.step(); });
          break;
        default: {
          const std::size_t burst = 1 + draw(depth_);
          for (std::size_t i = 0; i < burst; ++i) schedule(later());
          drain_until(e_.now().micros() + 0.5);
          break;
        }
      }
      check_idle_view();
    }
    quiet_ = true;  // callbacks stop scheduling, so the queue can drain
    while (!e_.idle()) guarded([&] { e_.run_until_idle(); });
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(e_.events_fired(), fired_);
    EXPECT_GE(max_pending_, depth_);
    EXPECT_GE(e_.depth_high_water(), depth_);
  }

  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

private:
  std::size_t draw(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  /// A time at or shortly after now, on a half-microsecond grid so that
  /// ties (and the FIFO tie-break) are common.
  double later() { return e_.now().micros() + 0.5 * static_cast<double>(draw(8)); }

  void schedule(double when) {
    const std::uint64_t seq = next_seq_++;
    ref_.emplace(when, seq);
    e_.schedule_at(SimTime::micros(when), [this, when, seq] { on_fire(when, seq); });
  }

  template <typename F>
  void guarded(F&& f) {
    try {
      f();
    } catch (const Boom&) {
    }
  }

  void drain_until(double deadline) {
    deadlines_.push_back(deadline);
    bool threw = false;
    try {
      e_.run_until(SimTime::micros(deadline));
    } catch (const Boom&) {
      threw = true;
    }
    deadlines_.pop_back();
    if (!threw && !ref_.empty()) {
      EXPECT_GT(ref_.begin()->first, deadline);
    }
  }

  void nested_step() {
    deadlines_.push_back(std::numeric_limits<double>::infinity());
    guarded([&] { e_.step(); });
    deadlines_.pop_back();
  }

  void check_idle_view() {
    EXPECT_EQ(e_.pending(), ref_.size());
    EXPECT_EQ(e_.idle(), ref_.empty());
  }

  void on_fire(double when, std::uint64_t seq) {
    ASSERT_FALSE(ref_.empty());
    ASSERT_EQ(*ref_.begin(), std::make_pair(when, seq)) << "fired out of (when, seq) order";
    ref_.erase(ref_.begin());
    ++fired_;
    EXPECT_EQ(e_.now().micros(), when);
    EXPECT_TRUE(e_.dispatching());
    if (!deadlines_.empty()) {
      EXPECT_LE(when, deadlines_.back());
    }
    check_idle_view();
    if (quiet_) return;

    const std::size_t roll = draw(100);
    // Drain from inside the callback before it schedules anything: its own
    // item is still parked at the heap root.
    if (nesting_ < 3 && roll < 8) {
      ++nesting_;
      nested_step();
      --nesting_;
    } else if (nesting_ < 3 && roll < 16) {
      ++nesting_;
      drain_until(e_.now().micros() + static_cast<double>(draw(3)));
      --nesting_;
    }

    // Hold the depth near its target: 0 children when above it, 1 most of
    // the time, several now and then.
    std::size_t children = 1;
    const std::size_t kids = draw(10);
    if (kids < 2 || ref_.size() > depth_) {
      children = 0;
    } else if (kids == 9) {
      children = 2 + draw(4);
    }
    for (std::size_t i = 0; i < children; ++i) {
      schedule(draw(4) == 0 ? e_.now().micros() : later());
      check_idle_view();
    }

    if (nesting_ < 3 && roll >= 16 && roll < 22) {
      ++nesting_;
      nested_step();
      --nesting_;
    } else if (roll >= 22 && roll < 26) {
      throw Boom{};
    }
  }

  Engine e_;
  std::mt19937_64 rng_;
  std::size_t depth_;
  std::set<std::pair<double, std::uint64_t>> ref_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t max_pending_ = 0;
  int nesting_ = 0;
  bool quiet_ = false;
  /// Innermost active run_until deadline (+inf for a nested step, which
  /// fires one event whatever its time).
  std::vector<double> deadlines_;
};

TEST(Engine, MatchesReferenceQueueOnRandomPrograms) {
  const std::size_t depths[] = {1, 2, 3, 7, 16, 17, 33, 64, 128, 256};
  std::uint64_t seed = 1;
  for (const std::size_t depth : depths) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      SCOPED_TRACE(::testing::Message() << "depth " << depth << " seed " << seed);
      ReferenceHarness h(seed, depth);
      h.run(1500);
      EXPECT_GT(h.fired(), 1500u);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace ms::sim
