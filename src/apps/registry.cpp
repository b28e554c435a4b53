#include "apps/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apps/cf_app.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/kmeans_async_app.hpp"
#include "apps/lu_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"

namespace ms::apps {
namespace {

/// Edge g of a T = g*g tile grid, or 0 when T is not a positive square.
int grid_edge(int tiles) {
  if (tiles < 1) return 0;
  const long g = std::lround(std::sqrt(static_cast<double>(tiles)));
  return g * g == tiles ? static_cast<int>(g) : 0;
}

AppResult run_mm(const sim::SimConfig& cfg, const CommonConfig& common, int g, std::size_t dim,
                 int /*iters*/) {
  MmConfig c;
  c.common = common;
  c.dim = dim;
  c.tile_grid = g;
  return MmApp::run(cfg, c);
}

AppResult run_cf(const sim::SimConfig& cfg, const CommonConfig& common, int g, std::size_t dim,
                 int /*iters*/) {
  CfConfig c;
  c.common = common;
  c.dim = dim;
  c.tile = dim / static_cast<std::size_t>(g);
  return CfApp::run(cfg, c);
}

AppResult run_lu(const sim::SimConfig& cfg, const CommonConfig& common, int g, std::size_t dim,
                 int /*iters*/) {
  LuConfig c;
  c.common = common;
  c.dim = dim;
  c.tile = dim / static_cast<std::size_t>(g);
  return LuApp::run(cfg, c);
}

template <typename App>
AppResult run_kmeans(const sim::SimConfig& cfg, const CommonConfig& common, int tiles,
                     std::size_t points, int iters) {
  KmeansConfig c;
  c.common = common;
  c.points = points;
  c.tiles = tiles;
  c.iterations = iters;
  return App::run(cfg, c);
}

AppResult run_hotspot(const sim::SimConfig& cfg, const CommonConfig& common, int g,
                      std::size_t dim, int steps) {
  HotspotConfig c;
  c.common = common;
  c.rows = c.cols = dim;
  c.tile_rows = c.tile_cols = dim / static_cast<std::size_t>(g);
  c.steps = steps;
  return HotspotApp::run(cfg, c);
}

AppResult run_nn(const sim::SimConfig& cfg, const CommonConfig& common, int tiles,
                 std::size_t records, int /*iters*/) {
  NnConfig c;
  c.common = common;
  c.records = records;
  c.tiles = tiles;
  return NnApp::run(cfg, c);
}

AppResult run_srad(const sim::SimConfig& cfg, const CommonConfig& common, int g, std::size_t dim,
                   int iters) {
  SradConfig c;
  c.common = common;
  c.rows = c.cols = dim;
  c.tile_rows = c.tile_cols = dim / static_cast<std::size_t>(g);
  c.iterations = iters;
  return SradApp::run(cfg, c);
}

constexpr AppEntry kApps[] = {
    {"mm", true, SizeFlag::Dim, 6000, 0, true, run_mm},
    {"cf", true, SizeFlag::Dim, 9600, 0, true, run_cf},
    {"lu", true, SizeFlag::Dim, 9600, 0, true, run_lu},
    {"kmeans", false, SizeFlag::Points, 1120000, 100, true, run_kmeans<KmeansApp>},
    // The asynchronous port issues every action directly.
    {"kmeans-async", false, SizeFlag::Points, 1120000, 100, false, run_kmeans<KmeansAsyncApp>},
    {"hotspot", true, SizeFlag::Dim, 16384, 50, true, run_hotspot},
    {"nn", false, SizeFlag::Points, 5242880, 0, true, run_nn},
    {"srad", true, SizeFlag::Dim, 10000, 100, true, run_srad},
};

}  // namespace

std::string AppEntry::check(const AppPoint& point, GraphMode graph) const {
  const std::string app(name);
  if (point.tiles < 1) {
    return app + ": T = " + std::to_string(point.tiles) + " is not a positive tile count";
  }
  if (square_tiles && grid_edge(point.tiles) == 0) {
    return app + ": T = " + std::to_string(point.tiles) + " is not a square tile count (" + app +
           " tiles a 2-D grid, T = g*g)";
  }
  if (point.iters != 0 && !takes_iters()) return app + " takes no iteration count";
  if (graph == GraphMode::Compiled && !compiles) {
    return app + " has no compiled-graph mode (it issues every action directly)";
  }
  return {};
}

AppResult AppEntry::run(const sim::SimConfig& cfg, const CommonConfig& common,
                        const AppPoint& point) const {
  if (const std::string why = check(point, common.graph); !why.empty()) {
    throw std::invalid_argument(why);
  }
  return run_config(cfg, common, square_tiles ? grid_edge(point.tiles) : point.tiles,
                    point.size != 0 ? point.size : paper_size,
                    point.iters != 0 ? point.iters : paper_iters);
}

std::span<const AppEntry> registry() noexcept { return kApps; }

const AppEntry* find_app(std::string_view name) noexcept {
  const auto it = std::find_if(std::begin(kApps), std::end(kApps),
                               [&](const AppEntry& app) { return app.name == name; });
  return it == std::end(kApps) ? nullptr : &*it;
}

CommonConfig timing_common(int partitions, bool streamed) {
  CommonConfig c;
  c.partitions = partitions;
  c.streamed = streamed;
  c.functional = false;
  c.protocol_iterations = 1;
  return c;
}

}  // namespace ms::apps
