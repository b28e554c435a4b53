// perfbench: host wall time of the mstream evaluation, pass by pass.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --golden FILE
//   perfbench --write-golden FILE
//
// One op is one full pass over the seed's point list. Every op is checked
// bit for bit against the golden table; the last stdout line is one JSON
// record (see README.md for the metrics and how run.py reshapes it).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "kern/par.hpp"
#include "rt/compiled_graph.hpp"
#include "sim/sweep.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace tel = ms::telemetry;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t app_index(const std::string& app) {
  const auto it = std::find(kApps.begin(), kApps.end(), app);
  return static_cast<std::size_t>(it - kApps.begin());
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Benchmark-side timers around every App::run call of a pass (per app, in
/// thread-seconds summed over the sweep workers).
using AppSeconds = std::array<double, kApps.size()>;

/// Failures printed per process; a failing run repeats the same ones.
constexpr int kMaxReports = 5;
std::atomic<int> reported{0};

/// Run one pass; returns false if any point threw or differs from its
/// golden entry. `timers` (traced passes only) accumulates per-app wall time.
bool run_pass(const Workload& w, const std::vector<Point>& pts,
              const std::vector<Outcome>& expect, AppSeconds* timers) {
  std::vector<double> took(pts.size(), 0.0);
  const auto ok = ms::sim::parallel_map<char>(
      pts.size(),
      [&](std::size_t i) -> char {
        const auto t0 = Clock::now();
        char good = 0;
        try {
          const Outcome o = run_point(pts[i]);
          good = same_bits(o.ms, expect[i].ms) && same_bits(o.checksum, expect[i].checksum) ? 1 : 0;
          if (good == 0 && reported.fetch_add(1) < kMaxReports) {
            std::fprintf(stderr, "perfbench: %s: ms %a checksum %a, golden %a %a\n",
                         pts[i].key().c_str(), o.ms, o.checksum, expect[i].ms, expect[i].checksum);
          }
        } catch (const std::exception& e) {
          if (reported.fetch_add(1) < kMaxReports) {
            std::fprintf(stderr, "perfbench: %s threw: %s\n", pts[i].key().c_str(), e.what());
          }
        }
        if (timers != nullptr) took[i] = seconds_since(t0);
        return good;
      },
      ms::sim::SweepOptions{w.sweep_threads});
  if (timers != nullptr) {
    for (std::size_t i = 0; i < pts.size(); ++i) (*timers)[app_index(pts[i].app)] += took[i];
  }
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

/// Moves every thread of the process onto the next `width` CPUs of its
/// allowed set, round robin. Co-tenants slow one vCPU at a time for seconds
/// to minutes (see README.md); turning before every pass lets each run
/// sample all of them instead of the one or two it happened to start on.
class Placement {
public:
  void init(int width) {
    width_ = static_cast<std::size_t>(std::max(width, 1));
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t j = 0; j < std::min(width_, cpus_.size()); ++j) {
      CPU_SET(cpus_[(turn_ + j) % cpus_.size()], &set);
    }
    ++turn_;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
      // A thread that exits meanwhile fails the call; nothing to move then.
      (void)sched_setaffinity(static_cast<pid_t>(std::stol(e.path().filename().string())), sizeof set, &set);
    }
  }

private:
  std::size_t width_ = 1;
  std::vector<std::size_t> cpus_;
  std::size_t turn_ = 0;
};

Placement placement;

/// CPUs the whole process is confined to during a pass: one per busy thread
/// a workload may have.
constexpr int kCpus = 2;

/// Set-ups per timed run (see timed_run).
constexpr int kSetups = 9;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Registry snapshots: every layer is read through telemetry::registry().
// ---------------------------------------------------------------------------

struct Reading {
  std::map<std::string, double> counters;  ///< counter totals, families summed
  std::map<std::string, tel::HistogramSnapshot> hists;
};

Reading read_registry() {
  Reading r;
  for (const auto& m : tel::registry().snapshot().metrics) {
    if (m.kind == tel::MetricKind::Counter) {
      r.counters[m.name] += static_cast<double>(m.counter);
    } else if (m.kind == tel::MetricKind::Histogram) {
      auto& h = r.hists[m.name];
      h.merge(m.histogram);
    }
  }
  return r;
}

struct Delta {
  const Reading& a;
  const Reading& b;
  [[nodiscard]] double count(const std::string& name) const {
    const auto get = [&](const Reading& r) {
      const auto it = r.counters.find(name);
      return it == r.counters.end() ? 0.0 : it->second;
    };
    return get(b) - get(a);
  }
  [[nodiscard]] tel::HistogramSnapshot hist(const std::string& name) const {
    tel::HistogramSnapshot out;
    const auto ia = a.hists.find(name);
    const auto ib = b.hists.find(name);
    if (ib == b.hists.end()) return out;
    out = ib->second;
    if (ia != a.hists.end()) {
      for (std::size_t k = 0; k < out.buckets.size(); ++k) out.buckets[k] -= ia->second.buckets[k];
      out.sum -= ia->second.sum;
    }
    return out;
  }
  /// Histogram sum (nanoseconds) in milliseconds.
  [[nodiscard]] double sum_ms(const std::string& name) const {
    return static_cast<double>(hist(name).sum) * 1e-6;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;
  std::string write_golden;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --golden FILE\n"
               "       perfbench --write-golden FILE\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") a.trace = std::stoi(value()) != 0;
      else if (k == "--golden") a.golden = value();
      else if (k == "--write-golden") a.write_golden = value();
      else usage("unknown flag " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.write_golden.empty() && (a.workload.empty() || a.golden.empty())) {
    usage("--workload and --golden are required");
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

/// Every point of every workload, run once on the serial engine (2 sweep
/// workers); each point's host wall time goes to stderr for sizing strata.
int write_golden(const std::string& path) {
  std::set<std::string> seen;
  std::vector<Point> all;
  for (const Workload& w : workloads()) {
    for (const auto& s : w.strata) {
      for (const Point& p : s) {
        if (seen.insert(p.key()).second) all.push_back(p);
      }
    }
  }
  std::vector<double> took(all.size());
  const auto outs = ms::sim::parallel_map<Outcome>(
      all.size(),
      [&](std::size_t i) {
        const auto t0 = Clock::now();
        const Outcome o = run_point(all[i]);
        took[i] = seconds_since(t0);
        return o;
      },
      ms::sim::SweepOptions{2});
  Golden g;
  for (std::size_t i = 0; i < all.size(); ++i) {
    g[all[i].key()] = outs[i];
    std::cerr << all[i].key() << "\t" << took[i] * 1e3 << " ms wall\n";
  }
  save_golden(path, g);
  std::cerr << "perfbench: wrote " << g.size() << " golden points to " << path << '\n';
  return 0;
}

/// Set-up products: the seed's point list and its golden expectations.
struct Prepared {
  std::vector<Point> pts;
  std::vector<Outcome> expect;
  bool warm_ok = false;
};

Prepared prepare(const Workload& w, const Args& a) {
  Prepared p;
  p.pts = draw_points(w, a.seed);
  const Golden golden = load_golden(a.golden);
  for (const Point& pt : p.pts) {
    const auto it = golden.find(pt.key());
    if (it == golden.end()) throw std::runtime_error("golden table lacks point " + pt.key());
    p.expect.push_back(it->second);
  }
  placement.next();
  p.warm_ok = run_pass(w, p.pts, p.expect, nullptr);
  return p;
}

/// What a run reports besides its metrics.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool warm_ok = true;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// End-to-end run: telemetry off, passes back to back for `seconds`.
std::vector<Metric> timed_run(const Workload& w, const Args& a, Tally& tally) {
  // Set up several times (fresh graph cache each time, so the compile is
  // paid in every set-up) and report the 10th percentile, as for the passes.
  // The set-ups after the first are spread evenly over the run, so they
  // sample the same host conditions as the passes, not just the second the
  // run started in.
  std::vector<double> setup_s;
  Prepared prep;
  const auto set_up = [&] {
    ms::rt::process_graph_cache().clear();
    const auto t0 = Clock::now();
    prep = prepare(w, a);
    setup_s.push_back(seconds_since(t0));
    tally.warm_ok = tally.warm_ok && prep.warm_ok;
  };
  set_up();
  // Co-tenants on the host slow every pass of the process by up to 2x for
  // seconds to minutes at a time, and how much of a run falls in such a
  // stretch decides its median (see README.md). The gated figures are the
  // 10th percentiles, which almost every run samples at the host's
  // undisturbed speed; p50 and p90 are reported beside them. One
  // closed-loop client makes throughput the inverse of the pass time.
  std::vector<double> lat_ms;
  std::vector<double> cpu_ms;
  const auto start = Clock::now();
  while (seconds_since(start) < a.seconds) {
    const auto done = static_cast<double>(setup_s.size());
    if (done < kSetups && seconds_since(start) >= a.seconds * done / kSetups) set_up();
    placement.next();
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    tally.count(run_pass(w, prep.pts, prep.expect, nullptr));
    cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3);
    lat_ms.push_back(seconds_since(t0) * 1e3);
  }
  const double p10 = quantile(lat_ms, 0.1);
  return {
      {"throughput_ops_s", 1e3 / p10, "1/s"},
      {"op_p10_ms", p10, "ms"},
      {"op_p50_ms", quantile(lat_ms, 0.5), "ms"},
      {"op_p90_ms", quantile(lat_ms, 0.9), "ms"},
      {"cpu_ms_per_op", quantile(cpu_ms, 0.1), "ms"},
      {"setup_s", quantile(setup_s, 0.1), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-layer run: registry on, benchmark timers around every App::run.
/// Untraced and traced passes alternate, so the telemetry tax compares
/// passes made under the same machine conditions.
std::vector<Metric> traced_run(const Workload& w, const Args& a, Tally& tally) {
  tel::set_enabled(true);
  tel::registry().reset_all();
  ms::rt::process_graph_cache().clear();
  const Reading r0 = read_registry();
  const Prepared prep = prepare(w, a);
  tally.warm_ok = prep.warm_ok;
  const Reading r1 = read_registry();

  AppSeconds timers{};
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  const auto start = Clock::now();
  while (seconds_since(start) < a.seconds) {
    placement.next();  // both passes of a pair on the same CPUs
    for (const bool traced : {false, true}) {
      tel::set_enabled(traced);
      const auto t0 = Clock::now();
      tally.count(run_pass(w, prep.pts, prep.expect, traced ? &timers : nullptr));
      (traced ? traced_ms : plain_ms).push_back(seconds_since(t0) * 1e3);
    }
  }
  const Reading r2 = read_registry();

  // Timing-only twins of functional points, traced the same way: the
  // difference is the functional payload (kernels and real data).
  AppSeconds twin{};
  std::size_t twin_passes = 0;
  if (prep.pts.front().kind == Kind::Functional) {
    std::vector<Point> twins = prep.pts;
    for (Point& p : twins) p.kind = Kind::Timing;
    const auto t0 = Clock::now();
    while (twin_passes < 5 || seconds_since(t0) < a.seconds / 8) {
      placement.next();
      for (const Point& p : twins) {
        const auto t1 = Clock::now();
        (void)run_point(p);
        twin[app_index(p.app)] += seconds_since(t1);
      }
      ++twin_passes;
    }
  }
  const Reading r3 = read_registry();

  const Delta d{r1, r2};
  const auto ops = static_cast<double>(traced_ms.size());
  const auto per_op = [&](double v) { return ratio(v, ops); };
  const auto per_twin = [&](double v) { return ratio(v, static_cast<double>(twin_passes)); };

  std::vector<Metric> m;
  double apps_ms = 0.0;
  for (std::size_t i = 0; i < kApps.size(); ++i) {
    apps_ms += per_op(timers[i] * 1e3);
    m.push_back({"apps.run_ms." + std::string(kApps[i]), per_op(timers[i] * 1e3), "ms"});
  }
  for (std::size_t i = 0; i < kApps.size(); ++i) {
    const double payload = twin_passes > 0 ? per_op(timers[i] * 1e3) - per_twin(twin[i] * 1e3) : 0.0;
    m.push_back({"kern.payload_ms." + std::string(kApps[i]), payload, "ms"});
  }

  const double events = d.count("ms_sim_events_fired_total");
  const double drain_ms = d.sum_ms("ms_sim_drain_wall_ns");
  const double depot_hits = d.count("ms_sim_depot_hits_total");
  const double depot_misses = d.count("ms_sim_depot_misses_total");
  const double sync_ms = d.sum_ms("ms_rt_sync_wall_ns");
  const double launch_ms = d.sum_ms("ms_rt_graph_launch_ns");
  const double rollbacks = d.count("ms_sim_pdes_rollbacks_total");
  const Delta whole{r0, r2};
  const double cache_hits = whole.count("ms_rt_graph_cache_hits_total");
  const double cache_misses = whole.count("ms_rt_graph_cache_misses_total");
  const auto launch = d.hist("ms_rt_graph_launch_ns");
  const std::vector<Metric> layer = {
      {"sim.events_per_op", per_op(events), "count"},
      {"sim.drain_ms_per_op", per_op(drain_ms), "ms"},
      {"sim.ns_per_event", ratio(drain_ms * 1e6, events), "ns"},
      {"sim.depot_hit_ratio", ratio(depot_hits, depot_hits + depot_misses), "ratio"},
      {"rt.pool.chunks_grown", per_op(d.count("ms_rt_pool_chunks_grown_total")), "count"},
      {"sim.pool.queue_wait_ms_per_op", per_op(d.sum_ms("ms_pool_queue_wait_ns")), "ms"},
      {"sim.pool.busy_ms_per_op", per_op(d.count("ms_pool_worker_busy_ns") * 1e-6), "ms"},
      {"sim.pdes.windows_per_op", per_op(d.count("ms_sim_pdes_windows_total")), "count"},
      {"sim.pdes.microsteps_per_op", per_op(d.count("ms_sim_pdes_microsteps_total")), "count"},
      {"sim.pdes.posts_per_op", per_op(d.count("ms_sim_pdes_posts_total")), "count"},
      {"sim.pdes.rollbacks_per_op", per_op(rollbacks), "count"},
      {"sim.pdes.replay_steps_per_op", per_op(d.count("ms_sim_pdes_replay_steps_total")), "count"},
      {"sim.pdes.riskfree_advances_per_op", per_op(d.count("ms_sim_pdes_riskfree_advances_total")),
       "count"},
      {"sim.pdes.rollback_ratio", ratio(rollbacks, d.count("ms_sim_pdes_speculative_windows_total")),
       "ratio"},
      {"rt.actions_per_op", per_op(d.count("ms_rt_actions_total")), "count"},
      {"rt.enqueues_per_op", per_op(d.count("ms_rt_enqueues_total")), "count"},
      {"rt.syncs_per_op", per_op(d.count("ms_rt_syncs_total")), "count"},
      {"rt.sync_ms_per_op", per_op(sync_ms), "ms"},
      {"rt.graph.launch_us_p50",
       launch.count() > 0 ? static_cast<double>(launch.quantile(0.5)) * 1e-3 : 0.0, "us"},
      {"rt.graph.replays_per_op", per_op(d.count("ms_rt_graph_replays_total")), "count"},
      {"rt.graph.compile_ms", Delta{r0, r1}.sum_ms("ms_rt_graph_compile_ns"), "ms"},
      {"rt.graph.cache_hit_ratio", ratio(cache_hits, cache_hits + cache_misses), "ratio"},
  };
  m.insert(m.end(), layer.begin(), layer.end());

  // Self time per layer, in thread-ms per op. Engine drains run inside
  // synchronize, and functional kernels run inside drains: the twins'
  // drains are the engine alone, the rest of a functional drain is kernel
  // work. What App::run spends outside all of these is the app's own code
  // (data set-up, issue calls). The residual is pass wall time, times the
  // sweep workers, that no App::run covers: harness, pool hand-off, idle.
  const double engine_ms = twin_passes > 0 ? per_twin(Delta{r2, r3}.sum_ms("ms_sim_drain_wall_ns"))
                                           : per_op(drain_ms);
  const double self_kern = std::max(0.0, per_op(drain_ms) - engine_ms);
  const double self_rt = per_op(std::max(0.0, sync_ms - drain_ms) + launch_ms);
  const double mean_pass = ratio(std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0), ops);
  const double busy = static_cast<double>(w.sweep_threads) * mean_pass;
  m.push_back({"self.kern_ms_per_op", self_kern, "ms"});
  m.push_back({"self.sim_ms_per_op", engine_ms, "ms"});
  m.push_back({"self.rt_ms_per_op", self_rt, "ms"});
  m.push_back({"self.app_ms_per_op", apps_ms - self_kern - engine_ms - self_rt, "ms"});
  m.push_back({"self.residual_pct", 100.0 * ratio(busy - apps_ms, busy), "%"});
  const double plain = quantile(plain_ms, 0.1);
  m.push_back({"telemetry.tax_pct", 100.0 * ratio(quantile(traced_ms, 0.1) - plain, plain), "%"});
  return m;
}

int run(const Args& a) {
  const Workload* wp = find_workload(a.workload);
  if (wp == nullptr) usage("unknown workload " + a.workload);
  const Workload& w = *wp;
  for (const auto& [k, v] : w.env) setenv(k.c_str(), v.c_str(), 1);
  placement.init(kCpus);
  ms::kern::par::set_threads(w.kern_threads);

  Tally tally;
  const std::vector<Metric> metrics = a.trace ? traced_run(w, a, tally) : timed_run(w, a, tally);
  const bool correct = tally.warm_ok && tally.failed == 0;
  std::ostringstream out;
  out << "{\"workload\": " << quoted(w.name) << ", \"points\": [";
  const std::vector<Point> drawn = draw_points(w, a.seed);
  for (std::size_t i = 0; i < drawn.size(); ++i) out << (i ? ", " : "") << quoted(drawn[i].key());
  out << "], \"stamp\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << quoted(cpu_model()) << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"cpus\": " << kCpus << ", \"sweep_threads\": " << w.sweep_threads << ", \"kern_threads\": " << w.kern_threads
      << ", \"ms_par_threads\": " << quoted(std::getenv("MS_PAR_THREADS") ? std::getenv("MS_PAR_THREADS") : "")
      << ", \"seed\": " << a.seed << ", \"seconds\": " << num(a.seconds) << ", \"trace\": " << (a.trace ? 1 : 0)
      << "}, \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": " << num(metrics[i].value)
        << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Start from a clean engine/telemetry environment; a workload sets only
  // the switches it is defined by.
  for (const char* v : {"MS_PAR_ENGINE", "MS_PAR_THREADS", "MS_PAR_SPECULATE", "MS_PAR_SPEC_SLACK",
                        "MS_METRICS", "MS_ANALYZE", "MS_OBS_ADDR"}) {
    unsetenv(v);
  }
  ms::telemetry::set_enabled(false);
  const perfbench::Args a = perfbench::parse(argc, argv);
  try {
    return a.write_golden.empty() ? perfbench::run(a) : perfbench::write_golden(a.write_golden);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
