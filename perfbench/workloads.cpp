// Workload definitions and the single entry point that runs a point through
// the apps' public API.

#include <random>
#include <stdexcept>

#include "apps/cf_app.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/lu_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"
#include "bench.hpp"

namespace perfbench {

namespace {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Timing: return "timing";
    case Kind::Functional: return "functional";
    case Kind::Compiled: return "compiled";
  }
  return "?";
}

/// One stratum: (app, t) with the seed drawing P from `ps`.
void add(std::vector<std::vector<Point>>& strata, const std::string& app, int t,
         const std::vector<int>& ps, int devices, std::size_t size, Kind kind) {
  std::vector<Point> s;
  for (const int p : ps) s.push_back(Point{app, p, t, devices, size, kind});
  strata.push_back(std::move(s));
}

/// Paper-scale one-card strata: for each t, the Fig. 9 partition axis
/// P = 1..56 cut into `bins` contiguous bins, one stratum each, so every
/// seed covers the axis evenly and pass cost barely depends on the seed.
void add_sweep(std::vector<std::vector<Point>>& strata, const std::string& app,
               const std::vector<int>& ts, int bins, std::size_t size) {
  constexpr int kMaxP = 56;
  for (const int t : ts) {
    for (int b = 0; b < bins; ++b) {
      std::vector<int> ps;
      for (int p = 1 + b * kMaxP / bins; p <= (b + 1) * kMaxP / bins; ++p) ps.push_back(p);
      add(strata, app, t, ps, 1, size, Kind::Timing);
    }
  }
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  // Timing-only Fig. 8-10 grid at paper scale on one card: Fig. 10 task
  // granularities crossed with the Fig. 9 partition axis. Costliest strata
  // first, so the two sweep workers finish close together.
  {
    Workload w{.name = "paper_sweep", .sweep_threads = 2};
    add_sweep(w.strata, "srad", {10}, 2, 10000);
    add_sweep(w.strata, "hotspot", {16}, 4, 16384);
    add_sweep(w.strata, "srad", {5}, 4, 10000);
    add_sweep(w.strata, "kmeans", {56, 28}, 4, 1120000);
    add_sweep(w.strata, "hotspot", {8}, 4, 16384);
    add_sweep(w.strata, "cf", {20, 12}, 4, 9600);
    add_sweep(w.strata, "nn", {2048, 512}, 4, 5242880);
    add_sweep(w.strata, "mm", {20, 12}, 4, 6000);
    all.push_back(std::move(w));
  }

  // Real data and kernels at reduced, cache-resident sizes. srad and
  // hotspot at 256 with 2x2 tiles split every kernel into two kern::par
  // row bands; the other kernels fit in one fixed block at these sizes.
  {
    Workload w{.name = "functional", .kern_threads = 2};
    const std::vector<int> ps{2, 4, 8};
    for (const int t : {2, 4}) {
      add(w.strata, "mm", t, ps, 1, 128, Kind::Functional);
      add(w.strata, "cf", t, ps, 1, 128, Kind::Functional);
      add(w.strata, "lu", t, ps, 1, 128, Kind::Functional);
      add(w.strata, "kmeans", 2 * t, ps, 1, 4096, Kind::Functional);
      add(w.strata, "nn", 2 * t, ps, 1, 16384, Kind::Functional);
    }
    for (const std::size_t size : {std::size_t{256}, std::size_t{128}}) {
      add(w.strata, "srad", 2, ps, 1, size, Kind::Functional);
      add(w.strata, "hotspot", 2, ps, 1, size, Kind::Functional);
    }
    all.push_back(std::move(w));
  }

  // Three cards, join-heavy apps, compiled-graph replay, speculative PDES
  // engine selected through the environment, on the same 2 CPUs as the
  // other workloads so the two engine threads can overlap. P lists hold only configs on
  // which the speculative engine reproduces the serial engine bit for bit
  // (see README.md), grouped by similar host cost.
  {
    Workload w{.name = "multi_mic", .env = {{"MS_PAR_SPECULATE", "1"}, {"MS_PAR_THREADS", "2"}}};
    constexpr std::size_t kDim = 9600;
    add(w.strata, "lu", 16, {1, 2, 3}, 3, kDim, Kind::Compiled);
    add(w.strata, "lu", 16, {4, 6}, 3, kDim, Kind::Compiled);
    add(w.strata, "kmeans", 56, {2, 4}, 3, 1120000, Kind::Compiled);
    add(w.strata, "cf", 16, {1, 2, 3, 6}, 3, kDim, Kind::Compiled);
    add(w.strata, "kmeans", 28, {1, 2}, 3, 1120000, Kind::Compiled);
    add(w.strata, "lu", 8, {1, 2, 3, 4, 6, 8}, 3, kDim, Kind::Compiled);
    add(w.strata, "cf", 8, {1, 2, 3, 4, 6, 8}, 3, kDim, Kind::Compiled);
    add(w.strata, "mm", 12, {1, 2, 3, 4, 6, 8}, 3, 6000, Kind::Compiled);
    all.push_back(std::move(w));
  }
  return all;
}

ms::apps::CommonConfig common_for(const Point& pt) {
  ms::apps::CommonConfig c;
  c.partitions = pt.p;
  c.functional = pt.kind == Kind::Functional;
  c.tracing = false;
  c.protocol_iterations = 1;
  c.graph = pt.kind == Kind::Compiled ? ms::apps::GraphMode::Compiled : ms::apps::GraphMode::Direct;
  return c;
}

}  // namespace

std::string Point::key() const {
  return app + " P=" + std::to_string(p) + " T=" + std::to_string(t) +
         " dev=" + std::to_string(devices) + " size=" + std::to_string(size) + " " +
         kind_name(kind);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Point> draw_points(const Workload& w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Point> out;
  out.reserve(w.strata.size());
  for (const auto& s : w.strata) {
    std::uniform_int_distribution<std::size_t> pick(0, s.size() - 1);
    out.push_back(s[pick(rng)]);
  }
  return out;
}

Outcome run_point(const Point& pt) {
  ms::sim::SimConfig cfg = ms::sim::SimConfig::phi_31sp();
  cfg.num_devices = pt.devices;
  const bool functional = pt.kind == Kind::Functional;
  const auto t = static_cast<std::size_t>(pt.t);
  ms::apps::AppResult r;
  if (pt.app == "mm") {
    ms::apps::MmConfig c;
    c.common = common_for(pt);
    c.dim = pt.size;
    c.tile_grid = pt.t;
    r = ms::apps::MmApp::run(cfg, c);
  } else if (pt.app == "cf") {
    ms::apps::CfConfig c;
    c.common = common_for(pt);
    c.dim = pt.size;
    c.tile = pt.size / t;
    r = ms::apps::CfApp::run(cfg, c);
  } else if (pt.app == "lu") {
    ms::apps::LuConfig c;
    c.common = common_for(pt);
    c.dim = pt.size;
    c.tile = pt.size / t;
    r = ms::apps::LuApp::run(cfg, c);
  } else if (pt.app == "kmeans") {
    ms::apps::KmeansConfig c;
    c.common = common_for(pt);
    c.points = pt.size;
    c.tiles = pt.t;
    c.iterations = functional ? 10 : 100;
    r = ms::apps::KmeansApp::run(cfg, c);
  } else if (pt.app == "hotspot") {
    ms::apps::HotspotConfig c;
    c.common = common_for(pt);
    c.rows = c.cols = pt.size;
    c.tile_rows = c.tile_cols = pt.size / t;
    c.steps = functional ? 10 : 50;
    r = ms::apps::HotspotApp::run(cfg, c);
  } else if (pt.app == "nn") {
    ms::apps::NnConfig c;
    c.common = common_for(pt);
    c.records = pt.size;
    c.tiles = pt.t;
    r = ms::apps::NnApp::run(cfg, c);
  } else if (pt.app == "srad") {
    ms::apps::SradConfig c;
    c.common = common_for(pt);
    c.rows = c.cols = pt.size;
    c.tile_rows = c.tile_cols = pt.size / t;
    c.iterations = functional ? 10 : 100;
    r = ms::apps::SradApp::run(cfg, c);
  } else {
    throw std::invalid_argument("perfbench: unknown app " + pt.app);
  }
  return Outcome{r.ms, r.checksum};
}

}  // namespace perfbench
