#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/resource.hpp"
#include "sim/sim_config.hpp"
#include "sim/sim_time.hpp"

namespace ms::sim {

enum class Direction : std::uint8_t { HostToDevice, DeviceToHost };

[[nodiscard]] const char* to_string(Direction d) noexcept;

/// Pure wire cost of moving `bytes` over `spec` in one DMA command: per-command
/// setup latency + bytes / bandwidth. This is a true lower bound on what any
/// schedule (including chunked DMA, which pays the latency once and splits only
/// the bandwidth term) can achieve, so the static linter uses it as its
/// transfer floor.
[[nodiscard]] SimTime transfer_floor(const LinkSpec& spec, std::size_t bytes) noexcept;

/// The bandwidth-efficiency knee (paper Fig. 5 calibration): the transfer size
/// whose wire time equals the per-command setup latency. Below it a DMA spends
/// more than half its occupancy on setup; ~82.5 KiB for the 31SP link.
[[nodiscard]] std::size_t bandwidth_knee_bytes(const LinkSpec& spec) noexcept;

/// The PCIe connection between the host and one coprocessor.
///
/// The paper's first finding (Fig. 5) is that the MPSS DMA engine performs
/// H2D and D2H transfers *serially*: requesting both directions at once takes
/// the sum of their times, not the max. This class models exactly that: by
/// default a single FIFO server carries both directions. The `full_duplex`
/// ablation switches to one independent server per direction so benches can
/// show what the figure would look like on duplex-capable hardware.
class PcieLink {
public:
  explicit PcieLink(const LinkSpec& spec);

  /// Pure transfer cost for `bytes`: setup latency + bytes / bandwidth.
  [[nodiscard]] SimTime transfer_duration(std::size_t bytes) const noexcept;

  /// Reserve the engine for a transfer that is ready at `ready`.
  FifoResource::Grant reserve(Direction dir, SimTime ready, std::size_t bytes);

  /// Pure duration of one DMA chunk: bandwidth time plus, for the first
  /// chunk of a transfer, the per-command setup latency.
  [[nodiscard]] SimTime chunk_duration(std::size_t bytes, bool first_chunk) const noexcept;

  /// Reserve the engine for one chunk of a larger transfer. Statistics are
  /// accounted per chunk (bytes) and per transfer (count on first chunk).
  FifoResource::Grant reserve_chunk(Direction dir, SimTime ready, std::size_t bytes,
                                    bool first_chunk);

  [[nodiscard]] const LinkSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t transfers(Direction dir) const noexcept;
  [[nodiscard]] std::uint64_t bytes_moved(Direction dir) const noexcept;
  [[nodiscard]] SimTime busy_until() const noexcept;

  /// Bytes whose reserved engine window is still open at virtual time `t`
  /// (both directions). Tracked only while telemetry::enabled() — feeds the
  /// Chrome-trace counter track, never the schedule. Completed windows are
  /// pruned as a side effect.
  [[nodiscard]] std::uint64_t inflight_bytes(SimTime t) const noexcept;

  void reset();

private:
  /// One telemetry-tracked reservation window.
  struct Flight {
    SimTime start;
    SimTime end;
    std::uint64_t bytes = 0;
  };

  LinkSpec spec_;
  // Serialized mode uses `shared_`; duplex mode uses the per-direction pair.
  std::unique_ptr<FifoResource> shared_;
  std::unique_ptr<FifoResource> h2d_;
  std::unique_ptr<FifoResource> d2h_;
  std::uint64_t count_[2] = {0, 0};
  std::uint64_t bytes_[2] = {0, 0};
  mutable std::vector<Flight> flights_;  ///< telemetry only; pruned on query
};

}  // namespace ms::sim
