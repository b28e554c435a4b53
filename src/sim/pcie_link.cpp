#include "sim/pcie_link.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace ms::sim {

const char* to_string(Direction d) noexcept {
  return d == Direction::HostToDevice ? "H2D" : "D2H";
}

PcieLink::PcieLink(const LinkSpec& spec) : spec_(spec) {
  if (spec_.full_duplex) {
    h2d_ = std::make_unique<FifoResource>();
    d2h_ = std::make_unique<FifoResource>();
  } else {
    shared_ = std::make_unique<FifoResource>();
  }
}

SimTime transfer_floor(const LinkSpec& spec, std::size_t bytes) noexcept {
  const double gib = static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
  return spec.per_transfer_latency + SimTime::seconds(gib / spec.bandwidth_gib_s);
}

std::size_t bandwidth_knee_bytes(const LinkSpec& spec) noexcept {
  // bytes such that bytes / bandwidth == per_transfer_latency
  const double bytes_per_second = spec.bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0;
  return static_cast<std::size_t>(bytes_per_second * spec.per_transfer_latency.seconds());
}

SimTime PcieLink::transfer_duration(std::size_t bytes) const noexcept {
  return transfer_floor(spec_, bytes);
}

FifoResource::Grant PcieLink::reserve(Direction dir, SimTime ready, std::size_t bytes) {
  return reserve_chunk(dir, ready, bytes, /*first_chunk=*/true);
}

SimTime PcieLink::chunk_duration(std::size_t bytes, bool first_chunk) const noexcept {
  const double gib = static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
  const SimTime bw = SimTime::seconds(gib / spec_.bandwidth_gib_s);
  return first_chunk ? spec_.per_transfer_latency + bw : bw;
}

FifoResource::Grant PcieLink::reserve_chunk(Direction dir, SimTime ready, std::size_t bytes,
                                            bool first_chunk) {
  const SimTime dur = chunk_duration(bytes, first_chunk);
  const auto idx = static_cast<std::size_t>(dir);
  if (first_chunk) ++count_[idx];
  bytes_[idx] += bytes;
  const FifoResource::Grant grant =
      shared_ ? shared_->reserve(ready, dur)
              : (dir == Direction::HostToDevice ? *h2d_ : *d2h_).reserve(ready, dur);
  if (telemetry::enabled()) {
    flights_.push_back(Flight{grant.start, grant.end, static_cast<std::uint64_t>(bytes)});
  }
  return grant;
}

std::uint64_t PcieLink::inflight_bytes(SimTime t) const noexcept {
  // Prune windows already finished at t; what remains and has started is in
  // flight. Observation only — the schedule never reads this.
  flights_.erase(std::remove_if(flights_.begin(), flights_.end(),
                                [t](const Flight& f) { return !(t < f.end); }),
                 flights_.end());
  std::uint64_t total = 0;
  for (const Flight& f : flights_) {
    if (!(t < f.start)) total += f.bytes;
  }
  return total;
}

std::uint64_t PcieLink::transfers(Direction dir) const noexcept {
  return count_[static_cast<std::size_t>(dir)];
}

std::uint64_t PcieLink::bytes_moved(Direction dir) const noexcept {
  return bytes_[static_cast<std::size_t>(dir)];
}

SimTime PcieLink::busy_until() const noexcept {
  if (shared_) return shared_->busy_until();
  return max(h2d_->busy_until(), d2h_->busy_until());
}

void PcieLink::reset() {
  if (shared_) shared_->reset();
  if (h2d_) h2d_->reset();
  if (d2h_) d2h_->reset();
  count_[0] = count_[1] = 0;
  bytes_[0] = bytes_[1] = 0;
  flights_.clear();
}

}  // namespace ms::sim
