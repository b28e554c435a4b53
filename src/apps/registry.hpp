#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "apps/app_common.hpp"
#include "sim/sim_config.hpp"

namespace ms::apps {

/// The command-line flag that sets an app's dataset size.
enum class SizeFlag : std::uint8_t {
  Dim,     ///< `--dim`: edge of the square matrix, grid or image
  Points,  ///< `--points`: point or record count
};

/// One run of an app: task granularity T, dataset size and iteration count.
/// A zero size or iteration count selects the entry's paper-scale value.
struct AppPoint {
  int tiles = 4;
  std::size_t size = 0;
  int iters = 0;
};

/// One runnable app and the one rule that turns (T, size, iters) into its
/// config. For a `square_tiles` app T counts the tiles of a 2-D grid, so it
/// must be a square g*g: mm gets tile_grid = g, cf/lu get tile = size/g and
/// hotspot/srad get tile_rows = tile_cols = size/g. Otherwise T is the tile
/// count itself (kmeans, kmeans-async and nn get tiles = T).
struct AppEntry {
  std::string_view name;
  bool square_tiles;
  SizeFlag size_flag;
  std::size_t paper_size;  ///< the paper's headline dataset size
  int paper_iters;         ///< the paper's iteration count; 0 = the app takes none
  /// Whether the app issues its replay-shaped phases through GraphPhase, so
  /// that GraphMode::Compiled replays them; an app without them refuses it.
  bool compiles;
  /// Runs the app with `t` = g for square_tiles apps and T otherwise.
  AppResult (*run_config)(const sim::SimConfig& cfg, const CommonConfig& common, int t,
                          std::size_t size, int iters);

  [[nodiscard]] bool takes_iters() const noexcept { return paper_iters > 0; }

  /// Why `point` in issue mode `graph` does not fit this app (T < 1, a
  /// non-square T for a 2-D app, an iteration count for an app that takes
  /// none, or Compiled for an app that does not compile); empty when it
  /// fits.
  [[nodiscard]] std::string check(const AppPoint& point,
                                  GraphMode graph = GraphMode::Direct) const;

  /// Build the app's config from `point` and run it. Throws
  /// std::invalid_argument with check()'s reason (for `common.graph`) when
  /// the point does not fit.
  [[nodiscard]] AppResult run(const sim::SimConfig& cfg, const CommonConfig& common,
                              const AppPoint& point) const;
};

/// Every runnable app, in the order the CLI lists them.
[[nodiscard]] std::span<const AppEntry> registry() noexcept;

/// The entry called `name`, or nullptr when there is none.
[[nodiscard]] const AppEntry* find_app(std::string_view name) noexcept;

/// Shared knobs of the paper-scale timing sweeps: virtual buffers, no
/// timeline, one protocol iteration (the simulator is deterministic).
[[nodiscard]] CommonConfig timing_common(int partitions, bool streamed = true);

}  // namespace ms::apps
