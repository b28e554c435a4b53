#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

#include "telemetry/span.hpp"

namespace ms::sim {

namespace {
// Registered once per process; relaxed sharded writes from every engine.
// Per-event costs are charged as drain-level deltas (one add per drain, not
// per event) so the event hot loop itself carries no atomics.
telemetry::Counter& tel_events() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_sim_events_fired_total", "Discrete events fired by every sim::Engine");
  return c;
}
telemetry::MaxGauge& tel_depth() {
  static telemetry::MaxGauge& g = telemetry::registry().max_gauge(
      "ms_sim_event_queue_depth_hw", "Deepest pending-event queue seen by any engine");
  return g;
}
telemetry::Histogram& tel_drain_ns() {
  static telemetry::Histogram& h = telemetry::registry().histogram(
      "ms_sim_drain_wall_ns", "Wall-clock nanoseconds per engine drain (run_until_idle/until)");
  return h;
}
telemetry::Histogram& tel_dispatch_ns() {
  static telemetry::Histogram& h = telemetry::registry().histogram(
      "ms_sim_dispatch_wall_ns", "Mean wall-clock nanoseconds per event within a drain");
  return h;
}

/// RAII drain probe: stamps events-fired and wall-clock at scope entry and
/// publishes the deltas on exit. All-or-nothing on telemetry::enabled(), so
/// a disabled run never reads the clock.
class DrainProbe {
public:
  DrainProbe(const Engine& e, std::uint64_t fired) noexcept
      : engine_(e),
        armed_(telemetry::enabled()),
        fired0_(fired),
        t0_(armed_ ? telemetry::now_ns() : 0) {}
  ~DrainProbe() {
    if (!armed_) return;
    const std::uint64_t events = engine_.events_fired() - fired0_;
    const std::uint64_t wall = telemetry::now_ns() - t0_;
    tel_events().add(events);
    tel_depth().observe(static_cast<std::int64_t>(engine_.depth_high_water()));
    if (events > 0) {
      tel_drain_ns().observe(wall);
      tel_dispatch_ns().observe(wall / events);
    }
  }
  DrainProbe(const DrainProbe&) = delete;
  DrainProbe& operator=(const DrainProbe&) = delete;

private:
  const Engine& engine_;
  bool armed_;
  std::uint64_t fired0_;
  std::uint64_t t0_;
};

}  // namespace

Engine::Slot* Engine::acquire_empty_slot() {
  if (free_slots_.empty()) {
    auto chunk = std::make_unique<Slot[]>(kSlotChunk);
    free_slots_.reserve(free_slots_.size() + kSlotChunk);
    for (std::size_t i = 0; i < kSlotChunk; ++i) {
      free_slots_.push_back(&chunk[i]);
    }
    slot_chunks_.push_back(std::move(chunk));
  }
  Slot* s = free_slots_.back();
  free_slots_.pop_back();
  return s;
}

void Engine::throw_bad_time(SimTime when) const {
  if (when < now_) {
    throw std::invalid_argument("Engine::schedule_at: event scheduled in the past");
  }
  throw std::invalid_argument("Engine::schedule_at: event time is NaN or infinite");
}

void Engine::schedule_at(SimTime when, Callback cb) {
  const SimTime at = checked_time(when);
  if (!cb) {
    throw std::invalid_argument("Engine::schedule_at: empty callback");
  }
  Slot* slot = acquire_empty_slot();
  slot->cb = std::move(cb);
  push_item(Item{at, next_seq_++, slot});
}

void Engine::fire_next() {
  // The earliest item stays parked at the root while its callback runs, so
  // the callback's first schedule can take its place (push_item).
  const Item item = heap_.front();
  parked_ = true;

  // Slots never move, so the callback is invoked in place; it may schedule
  // new events freely (they take other slots — this one is released only
  // after the call returns).
  now_ = item.when;
  ++fired_;
  const bool prev = dispatching_;
  dispatching_ = true;
  try {
    item.slot->cb();
  } catch (...) {
    dispatching_ = prev;
    if (parked_) pop_parked();
    retire(item);
    throw;
  }
  dispatching_ = prev;
  if (parked_) pop_parked();
  retire(item);
}

void Engine::retire(const Item& item) {
  item.slot->cb.reset();
  free_slots_.push_back(item.slot);
}

SimTime Engine::run_until_idle() {
  const DrainProbe probe(*this, fired_);
  if (parked_) pop_parked();  // called from inside a callback
  while (!heap_.empty()) {
    fire_next();
  }
  return now_;
}

SimTime Engine::run_until(SimTime deadline) {
  const DrainProbe probe(*this, fired_);
  if (parked_) pop_parked();
  while (!heap_.empty() && heap_.front().when <= deadline) {
    fire_next();
  }
  if (now_ < deadline && heap_.empty()) {
    now_ = deadline;
  }
  return now_;
}

bool Engine::step() {
  if (parked_) pop_parked();
  if (heap_.empty()) return false;
  fire_next();
  return true;
}

void Engine::reset() {
  heap_.clear();
  // Drop pending callbacks but keep every chunk: a reused engine stays
  // allocation-free. Rebuild the free list from scratch.
  free_slots_.clear();
  free_slots_.reserve(slot_chunks_.size() * kSlotChunk);
  for (auto& chunk : slot_chunks_) {
    for (std::size_t i = 0; i < kSlotChunk; ++i) {
      chunk[i].cb.reset();
      free_slots_.push_back(&chunk[i]);
    }
  }
  now_ = SimTime::zero();
  next_seq_ = 0;
  fired_ = 0;
  depth_hw_ = 0;
  dispatching_ = false;
  parked_ = false;
}

}  // namespace ms::sim
