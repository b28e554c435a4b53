// Proves the engine's zero-allocation steady state: once the slot pool and
// heap have grown to a workload's high-water mark, schedule/fire cycles
// perform no heap allocation at all (the BM_EngineScheduleFire acceptance
// criterion, checked here with the binary's counting global operator new,
// tests/alloc_counter.cpp, so it cannot silently regress).

#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "sim/event_queue.hpp"

namespace ms::sim {
namespace {

TEST(EngineAlloc, SteadyStateScheduleFireAllocatesNothing) {
  Engine e;

  // Warm up: grow the slot pool and heap storage to this workload's
  // high-water mark (64 simultaneously pending events).
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) {
      e.schedule_after(SimTime::micros(i + 1), [] {});
    }
    e.run_until_idle();
  }

  const std::size_t before = test::alloc_count();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 64; ++i) {
      e.schedule_after(SimTime::micros(i + 1), [] {});
    }
    e.run_until_idle();
  }
  const std::size_t after = test::alloc_count();

  EXPECT_EQ(after - before, 0u) << "steady-state schedule/fire must not allocate";
}

TEST(EngineAlloc, SteadyStateSurvivesReset) {
  Engine e;
  for (int i = 0; i < 32; ++i) {
    e.schedule_after(SimTime::micros(i + 1), [] {});
  }
  e.run_until_idle();
  e.reset();

  // Capacity is retained across reset(): the next burst of the same size
  // must not allocate either.
  const std::size_t before = test::alloc_count();
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 32; ++i) {
      e.schedule_after(SimTime::micros(i + 1), [] {});
    }
    e.run_until_idle();
    e.reset();
  }
  const std::size_t after = test::alloc_count();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace ms::sim
