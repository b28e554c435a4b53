#include "sim/chunk_depot.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ms::sim::detail {

namespace {

telemetry::Counter& tel_hits() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_sim_depot_hits_total", "ChunkDepot acquisitions served from parked chunks");
  return c;
}
telemetry::Counter& tel_misses() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_sim_depot_misses_total", "ChunkDepot acquisitions that fell through to the heap");
  return c;
}
telemetry::Counter& tel_recycled() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_sim_depot_recycled_total", "Chunks parked for reuse on release");
  return c;
}
telemetry::Counter& tel_dropped() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_sim_depot_dropped_total", "Chunks freed on release because the depot was full");
  return c;
}
telemetry::MaxGauge& tel_parked_hw() {
  static telemetry::MaxGauge& g = telemetry::registry().max_gauge(
      "ms_sim_depot_parked_bytes_hw", "Most bytes the process-wide chunk depot has held parked");
  return g;
}

/// One bin per distinct block size. A few dozen sizes exist process-wide
/// (one per pool type, plus the shadow sizes of the functional apps' buffers),
/// so linear search beats any map.
struct Bin {
  std::size_t bytes = 0;
  std::vector<std::unique_ptr<std::byte[]>> chunks;
};

struct Depot {
  std::mutex mu;
  std::vector<Bin> bins;
  std::size_t parked = 0;

  Bin* find(std::size_t bytes) noexcept {
    for (auto& b : bins) {
      if (b.bytes == bytes) return &b;
    }
    return nullptr;
  }
};

/// Leaked on purpose: pools destroyed during static teardown (a Context held
/// by a static, an Event outliving main) still release into it.
Depot& depot() {
  static Depot* d = new Depot;
  return *d;
}

}  // namespace

std::unique_ptr<std::byte[]> ChunkDepot::acquire(std::size_t bytes) {
  Depot& d = depot();
  {
    std::lock_guard<std::mutex> lock(d.mu);
    if (Bin* bin = d.find(bytes); bin != nullptr && !bin->chunks.empty()) {
      auto chunk = std::move(bin->chunks.back());
      bin->chunks.pop_back();
      d.parked -= bytes;
      tel_hits().add(1);
      return chunk;
    }
  }
  tel_misses().add(1);
  return std::make_unique<std::byte[]>(bytes);
}

void ChunkDepot::release(std::unique_ptr<std::byte[]> chunk, std::size_t bytes) noexcept {
  if (chunk == nullptr || bytes == 0) return;
  Depot& d = depot();
  std::size_t parked = 0;
  {
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.parked + bytes <= kMaxParkedBytes) {
      Bin* bin = d.find(bytes);
      if (bin == nullptr) {
        d.bins.push_back(Bin{bytes, {}});
        bin = &d.bins.back();
      }
      bin->chunks.push_back(std::move(chunk));
      d.parked += bytes;
      parked = d.parked;
    }
  }
  if (chunk != nullptr) {
    tel_dropped().add(1);
    return;  // depot full: `chunk` frees on return, outside the lock
  }
  tel_recycled().add(1);
  tel_parked_hw().observe(static_cast<std::int64_t>(parked));
}

std::size_t ChunkDepot::parked_bytes() noexcept {
  Depot& d = depot();
  std::lock_guard<std::mutex> lock(d.mu);
  return d.parked;
}

void ChunkDepot::trim() noexcept {
  Depot& d = depot();
  std::vector<Bin> freed;  // freed on return, outside the lock
  {
    std::lock_guard<std::mutex> lock(d.mu);
    freed.swap(d.bins);
    d.parked = 0;
  }
}

}  // namespace ms::sim::detail
