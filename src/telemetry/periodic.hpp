#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace ms::telemetry {

/// Background metrics publisher: every `interval_s` seconds a worker thread
/// snapshots the process registry and writes it to `path`. Paths ending in
/// .prom / .txt are rewritten in place in the Prometheus text format on each
/// tick (the node-exporter textfile-collector contract); any other path gets
/// one JSON snapshot object per tick, size-capped: only the most recent
/// `max_keep` snapshots are retained (the file is rewritten each tick from a
/// rolling window), so a long run cannot grow the file without bound. "-"
/// streams snapshots to stdout (never capped — the consumer owns retention).
///
/// The destructor (or stop()) joins the worker and writes one final snapshot,
/// so even runs shorter than the interval leave a complete file behind. When
/// the interval is not positive or the path is empty, construction is a
/// no-op and ticks() stays 0.
class PeriodicDumper {
 public:
  /// Default JSON retention: plenty for a CI run or an interactive session,
  /// bounded for a daemon that ticks for days.
  static constexpr std::size_t kDefaultMaxKeep = 64;

  PeriodicDumper(std::string path, double interval_s, std::size_t max_keep = kDefaultMaxKeep);
  ~PeriodicDumper();

  PeriodicDumper(const PeriodicDumper&) = delete;
  PeriodicDumper& operator=(const PeriodicDumper&) = delete;

  /// Join the worker and flush the final snapshot. Idempotent.
  void stop() noexcept;

  /// Number of snapshots written so far (including the final one).
  [[nodiscard]] std::uint64_t ticks() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // null when inactive (interval<=0 or empty path)
};

}  // namespace ms::telemetry
