#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// How a point runs: paper-scale virtual buffers with direct issue, real
/// data and kernels at reduced size, or paper-scale virtual buffers with the
/// replay-shaped phases issued as compiled graphs.
enum class Kind : std::uint8_t { Timing, Functional, Compiled };

/// One simulated configuration. `t` is the app's own task-granularity knob
/// (mm/cf/lu/hotspot/srad: tiles per edge; kmeans/nn: chunk count) and
/// `size` its dataset knob (matrix/grid edge, point or record count).
struct Point {
  std::string app;
  int p = 1;
  int t = 1;
  int devices = 1;
  std::size_t size = 0;
  Kind kind = Kind::Timing;

  /// Golden-table key: every field that changes a virtual time or checksum.
  [[nodiscard]] std::string key() const;
};

/// The two numbers a point must reproduce bit for bit.
struct Outcome {
  double ms = 0.0;
  double checksum = 0.0;
};

/// Virtual ms and checksum per point key.
using Golden = std::map<std::string, Outcome>;

/// Throws std::runtime_error when the file is missing or malformed.
[[nodiscard]] Golden load_golden(const std::string& path);
void save_golden(const std::string& path, const Golden& golden);

/// The apps every per-app metric is reported for, in report order.
inline constexpr std::array<std::string_view, 7> kApps = {"mm",      "cf", "lu",  "kmeans",
                                                          "hotspot", "nn", "srad"};

struct Workload {
  std::string name;
  /// Sweep-pool workers for the pass (1 = plain loop on the calling thread).
  int sweep_threads = 1;
  /// kern::par worker cap.
  int kern_threads = 1;
  /// Engine switches set in the process environment before any Context
  /// exists, the way a user selects an engine.
  std::vector<std::pair<std::string, std::string>> env = {};
  /// Every point any seed can draw, grouped into strata of similar host
  /// cost; a seed draws exactly one point from each stratum.
  std::vector<std::vector<Point>> strata = {};
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The seed's point list: one point per stratum, in stratum order.
[[nodiscard]] std::vector<Point> draw_points(const Workload& w, std::uint64_t seed);

/// Run one point through its app's public entry point.
[[nodiscard]] Outcome run_point(const Point& pt);

}  // namespace perfbench
