// mstream_cli — run any of the ported applications (or the hBench
// microbenchmark) from the command line against a chosen simulated
// platform, with optional Chrome-trace export, or regenerate the paper's
// evaluation figure by figure.
//
//   mstream_cli app mm      --dim 6000 --tiles 144 --partitions 4
//   mstream_cli app kmeans  --points 1120000 --tiles 56 --partitions 28 --iters 100
//   mstream_cli app srad    --dim 10000 --tiles 400 --baseline
//   mstream_cli app cf      --dim 9600 --tiles 144 --device 31sp-x2 --trace out.json
//   mstream_cli hbench fig7 --partitions 8
//   mstream_cli graph app kmeans --replays 50
//   mstream_cli tune --h2d-mib 32 --d2h-mib 32 --gflop 5
//   mstream_cli analyze app srad --dim 2000 --tiles 16 --json hazards.json
//   mstream_cli analyze hbench fig6 --dot racy.dot
//   mstream_cli lint app mm --dim 2000 --tiles 16 --json lint.json
//   mstream_cli lint hbench fig5 --json -
//   mstream_cli stats app cf --dim 4800
//   mstream_cli devices
//   mstream_cli apps
//   mstream_cli reproduce fig10_tile_sweep fig08_overall_comparison --quick
//   mstream_cli reproduce list
//
// An output file (--trace, --metrics, --json, --dot) that cannot be written
// refuses the run before it starts (exit 2).
// At most one output may be '-' (stdout). While stdout carries a document
// (a '-' output, or the `stats` snapshot), the human-readable lines go to
// stderr so the document parses as it stands.
//
// Each flag applies to the subcommands that read it; any other subcommand
// refuses it (exit 2), so a flag is never silently ignored.
//
// Flags:
//   --device {31sp | 31sp-x2 | 7120p}   platform preset     (default 31sp)
//   --partitions N                      resource granularity (default 4)
//   --tiles N                           task granularity T   (default 4; apps
//                                       with 2-D tiles take a square count)
//   --dim N / --points N / --iters N    workload size knobs (each app takes
//                                       the ones its registry entry names)
//   --baseline                          run the non-streamed port instead
//   --functional                        real data + kernels (slower, verifiable)
//   --trace FILE                        write the Chrome trace JSON ('-' = stdout)
//   --utilization                       print the resource summary of the run
//   --metrics FILE                      enable host telemetry; write the snapshot
//                                       as Prometheus text ('-' = stdout)
//   --serve-obs ADDR                    serve the live observability endpoint
//                                       (/metrics, /healthz, /trace) on ADDR for
//                                       the whole run; ADDR is HOST:PORT, :PORT or PORT
//                                       (port 0 = ephemeral, bound address is
//                                       printed). Implies host telemetry.
//   --json FILE                         (analyze/lint) write the JSON report, (reproduce)
//                                       the figures' tables ('-' = stdout)
//   --dot FILE                          (analyze) write Graphviz dot of the racy subgraph
//                                       ('-' = stdout)
//   --replays N                         (graph) protocol replays of the captured schedule
//   --quick                             (reproduce) shrink every sweep to smoke size

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "analyze/capture.hpp"
#include "analyze/report.hpp"
#include "apps/hbench.hpp"
#include "apps/registry.hpp"
#include "model/analytic.hpp"
#include "repro/figures.hpp"
#include "rt/compiled_graph.hpp"
#include "sim/sweep.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/obs_server.hpp"
#include "telemetry/span.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/utilization.hpp"

namespace {

struct Cli {
  std::string device = "31sp";
  int partitions = 4;
  int tiles = 4;
  std::size_t dim = 0;
  std::size_t points = 0;
  int iters = 0;
  bool baseline = false;
  bool functional = false;
  bool utilization = false;
  std::string trace_path;
  std::string json_path;
  std::string dot_path;
  std::string metrics_path;
  std::string obs_addr;  // --serve-obs; empty = no endpoint
  double h2d_mib = 16.0;
  double d2h_mib = 16.0;
  double gflop = 0.0;
  double gelem = 0.2;
  int replays = 0;
  bool quick = false;
};

/// The subcommands that take flags. Each flag names the ones that read it.
enum Command : unsigned {
  kApp = 1u << 0,
  kHbench = 1u << 1,
  kGraph = 1u << 2,
  kAnalyze = 1u << 3,
  kLint = 1u << 4,
  kStats = 1u << 5,
  kTune = 1u << 6,
  kReproduce = 1u << 7,
};

/// The subcommands that run an app through run_app(), and those that run
/// an app or an hBench pattern.
constexpr unsigned kAppRuns = kApp | kGraph | kAnalyze | kLint | kStats;
constexpr unsigned kWorkloads = kAppRuns | kHbench;

/// A subcommand's name, its bit and the operands ahead of its flags
/// (reproduce takes any number of figure names).
struct Subcommand {
  std::string_view name;
  Command bit;
  int operands;
};

constexpr Subcommand kSubcommands[] = {
    {"app", kApp, 1},         {"hbench", kHbench, 1}, {"graph", kGraph, 2},
    {"analyze", kAnalyze, 2}, {"lint", kLint, 2},     {"stats", kStats, 2},
    {"tune", kTune, 0},       {"reproduce", kReproduce, 0},
};

int usage() {
  std::string names;
  for (const auto& app : ms::apps::registry()) {
    names += (names.empty() ? "" : "|") + std::string(app.name);
  }
  std::fprintf(stderr,
               "usage: mstream_cli app {%s} [flags]\n"
               "       mstream_cli hbench {fig5|fig6|fig7} [flags]\n"
               "       mstream_cli analyze {app|hbench} <name> [flags] [--json FILE] [--dot FILE]\n"
               "       mstream_cli lint {app|hbench} <name> [flags] [--json FILE]\n"
               "       mstream_cli graph app <name> --replays N [flags]\n"
               "       mstream_cli stats [{app|hbench} <name> [flags]]\n"
               "       mstream_cli tune [--h2d-mib N --d2h-mib N --gflop N | --gelem N]\n"
               "       mstream_cli devices\n"
               "       mstream_cli apps\n"
               "       mstream_cli reproduce [list | NAME...] [--quick] [--json FILE] [--metrics FILE]\n"
               "flags: --device {31sp|31sp-x2|7120p} --partitions N --tiles N\n"
               "       --dim N --points N --iters N --baseline --functional --utilization\n"
               "       --trace FILE --metrics FILE --serve-obs ADDR\n"
               "FILE:  a path, or '-' for stdout\n",
               names.c_str());
  return 2;
}

/// Where human-readable lines go: stdout, or stderr while stdout carries a
/// document. main() picks it once the flags are parsed.
std::FILE* g_text = stdout;

/// printf to the human-readable sink.
[[gnu::format(printf, 1, 2)]] void say(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(g_text, fmt, args);
  va_end(args);
}

/// True when `path` can be opened for writing ("-", stdout, always can).
/// Leaves the file system as found: the probe appends nothing, and removes a
/// file it created. Every requested output is probed before the workload
/// runs, so one that cannot be written refuses the run up front and a
/// refused run writes no file at all.
bool output_writable(const std::string& path) {
  if (path == "-") return true;
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app).is_open()) return false;
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

/// Open `path` for writing and hand the stream to `fn`; "-" selects stdout.
template <typename Fn>
bool with_output(const std::string& path, Fn&& fn) {
  if (path == "-") {
    fn(std::cout);
    return true;
  }
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  fn(f);
  return true;
}

/// Timing-only app runs never touch the host compute pool, so with --metrics
/// on, one tiny no-op sweep is run first. It registers and exercises the pool
/// metrics (batch count, queue wait, worker busy) as a labeled calibration
/// baseline — the probe's own cost is visible under the "cli.calibration"
/// span rather than blended into the measured run.
void calibration_probe() {
  const ms::telemetry::ScopedSpan span("cli.calibration");
  std::atomic<std::uint64_t> sink{0};
  ms::sim::parallel_for(
      64, [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); }, {});
}

/// Write the metrics snapshot as Prometheus text to --metrics FILE. True
/// when the flag is absent or the file was written.
bool write_metrics(const Cli& cli) {
  if (cli.metrics_path.empty()) return true;
  if (!with_output(cli.metrics_path, [](std::ostream& os) { ms::telemetry::write_snapshot(os); })) {
    return false;
  }
  if (cli.metrics_path != "-") say("metrics -> %s\n", cli.metrics_path.c_str());
  return true;
}

/// Parse a whole token as a positive, finite number. Rejects empty input,
/// trailing characters, overflow, zero and negatives.
template <typename T>
bool parse_positive(std::string_view token, T* out) {
  T v{};
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || end != token.data() + token.size() || !(v > T{0})) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  *out = v;
  return true;
}

/// Store a flag's value: a switch turns on, a string is kept as given, a
/// number must parse whole, positive and finite.
bool store(bool* out, const char* /*value*/) {
  *out = true;
  return true;
}
bool store(std::string* out, const char* value) {
  *out = value;
  return true;
}
template <typename T>
bool store(T* out, const char* value) {
  return parse_positive(std::string_view(value), out);
}

/// One flag: where its value goes and the subcommands that read it.
struct Flag {
  std::variant<bool*, std::string*, int*, std::size_t*, double*> target;
  unsigned readers;
};

/// Parse argv[first..] as flags of `cmd`. Prints the reason and returns
/// false for an unknown flag, a flag `cmd` does not read, a missing value or
/// a malformed number.
bool parse_flags(int argc, char** argv, int first, const Subcommand& cmd, Cli* cli) {
  const std::map<std::string_view, Flag> flags{
      {"--device", {&cli->device, kWorkloads | kTune}},
      {"--partitions", {&cli->partitions, kWorkloads}},
      {"--tiles", {&cli->tiles, kWorkloads}},
      {"--dim", {&cli->dim, kAppRuns}},
      {"--points", {&cli->points, kAppRuns}},
      {"--iters", {&cli->iters, kWorkloads}},
      {"--baseline", {&cli->baseline, kAppRuns}},
      {"--functional", {&cli->functional, kAppRuns}},
      {"--trace", {&cli->trace_path, kAppRuns}},
      {"--utilization", {&cli->utilization, kAppRuns}},
      {"--metrics", {&cli->metrics_path, kWorkloads | kTune | kReproduce}},
      {"--serve-obs", {&cli->obs_addr, kWorkloads | kTune}},
      {"--json", {&cli->json_path, kAnalyze | kLint | kReproduce}},
      {"--dot", {&cli->dot_path, kAnalyze}},
      {"--replays", {&cli->replays, kGraph}},
      {"--h2d-mib", {&cli->h2d_mib, kTune}},
      {"--d2h-mib", {&cli->d2h_mib, kTune}},
      {"--gflop", {&cli->gflop, kTune}},
      {"--gelem", {&cli->gelem, kTune}},
      {"--quick", {&cli->quick, kReproduce}},
  };
  for (int i = first; i < argc; ++i) {
    const char* name = argv[i];
    const auto flag = flags.find(name);
    if (flag == flags.end()) {
      std::fprintf(stderr, "unknown flag: %s\n", name);
      return false;
    }
    if ((flag->second.readers & cmd.bit) == 0) {
      std::fprintf(stderr, "%s does not apply to %.*s\n", name,
                   static_cast<int>(cmd.name.size()), cmd.name.data());
      return false;
    }
    const bool takes_value = !std::holds_alternative<bool*>(flag->second.target);
    if (takes_value && i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name);
      return false;
    }
    const char* value = takes_value ? argv[++i] : "";
    if (!std::visit([&](auto* out) { return store(out, value); }, flag->second.target)) {
      std::fprintf(stderr, "bad value for %s: '%s' (want a positive number)\n", name, value);
      return false;
    }
  }
  return true;
}

bool pick_config(const Cli& cli, ms::sim::SimConfig* out) {
  if (cli.device == "31sp") {
    *out = ms::sim::SimConfig::phi_31sp();
  } else if (cli.device == "31sp-x2") {
    *out = ms::sim::SimConfig::phi_31sp_x2();
  } else if (cli.device == "7120p") {
    *out = ms::sim::SimConfig::phi_7120p();
  } else {
    std::fprintf(stderr, "unknown device: %s\n", cli.device.c_str());
    return false;
  }
  return true;
}

ms::apps::CommonConfig common_from(const Cli& cli) {
  ms::apps::CommonConfig c;
  c.partitions = cli.partitions;
  c.streamed = !cli.baseline;
  c.functional = cli.functional;
  c.protocol_iterations = 1;
  // The action timeline grows with every action of the run; record it only
  // for the outputs that read it.
  c.tracing = !cli.trace_path.empty() || cli.utilization;
  return c;
}

/// Print the run's result and write its --trace file; false when the trace
/// cannot be written.
bool report(const ms::apps::AppResult& r, const Cli& cli) {
  say("virtual time: %.3f ms", r.ms);
  if (r.gflops > 0.0) say("  (%.1f GFLOPS)", r.gflops);
  if (cli.functional) say("  checksum %.6g", r.checksum);
  say("\n");
  if (cli.utilization) {
    std::ostringstream os;
    ms::trace::print(os, ms::trace::summarize(r.timeline));
    say("%s", os.str().c_str());
  }
  if (!cli.trace_path.empty()) {
    // With telemetry on, the export carries the wall-clock host track next
    // to the virtual device timeline (one combined Perfetto view), plus the
    // counter tracks (depot bytes, link occupancy) sampled at every
    // synchronize.
    const auto host_spans = ms::telemetry::collect_spans();
    const auto counters = ms::telemetry::collect_counter_samples();
    const bool ok = with_output(cli.trace_path, [&](std::ostream& os) {
      ms::trace::write_chrome_trace(os, r.timeline, host_spans, counters);
    });
    if (!ok) return false;
    if (cli.trace_path != "-") {
      say("trace: %zu spans (+%zu host, %zu counter samples) -> %s\n", r.timeline.size(),
          host_spans.size(), counters.size(), cli.trace_path.c_str());
    }
  }
  return true;
}

/// Look up `name` in the app registry, check the CLI's workload flags
/// against its entry and run it. Prints the reason and returns nullopt for an
/// unknown app, the wrong size flag, a non-square --tiles for a 2-D app,
/// --iters for an app that takes none or `graph` for an app that does not
/// compile.
std::optional<ms::apps::AppResult> run_registered(const std::string& name,
                                                  const ms::sim::SimConfig& cfg,
                                                  const ms::apps::CommonConfig& common,
                                                  const Cli& cli) {
  const ms::apps::AppEntry* app = ms::apps::find_app(name);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown app: %s ('mstream_cli apps' lists them)\n", name.c_str());
    return std::nullopt;
  }
  const bool dim = app->size_flag == ms::apps::SizeFlag::Dim;
  if ((dim ? cli.points : cli.dim) != 0) {
    std::fprintf(stderr, "%s takes %s, not %s\n", name.c_str(), dim ? "--dim" : "--points",
                 dim ? "--points" : "--dim");
    return std::nullopt;
  }
  const ms::apps::AppPoint point{cli.tiles, dim ? cli.dim : cli.points, cli.iters};
  if (const std::string why = app->check(point, common.graph); !why.empty()) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return std::nullopt;
  }
  return app->run(cfg, common, point);
}

int run_app(const std::string& name, const Cli& cli) {
  ms::sim::SimConfig cfg;
  if (!pick_config(cli, &cfg)) return 2;
  const auto r = run_registered(name, cfg, common_from(cli), cli);
  if (!r) return 2;
  return report(*r, cli) ? 0 : 1;
}

/// `graph app <name>`: run the app's replay-shaped phases through the
/// compiled graph executor and report the host-side economics: compile
/// time, per-replay host wall cost, and process GraphCache stats. `--replays
/// N` replays the captured schedule for N protocol iterations. The
/// compile/launch breakdown comes from the `ms_rt_graph_*` telemetry
/// families, which the `graph` subcommand switches on for the whole run.
int run_graph(const std::string& sub, const std::string& name, const Cli& cli) {
  if (sub != "app") {
    std::fprintf(stderr, "graph: expected 'app', got '%s'\n", sub.c_str());
    return 2;
  }
  ms::sim::SimConfig cfg;
  if (!pick_config(cli, &cfg)) return 2;

  auto common = common_from(cli);
  common.graph = ms::apps::GraphMode::Compiled;
  const int replays = cli.replays > 0 ? cli.replays : 10;
  common.protocol_iterations = replays;

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = run_registered(name, cfg, common, cli);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  if (!r) return 2;

  say("mode: compiled, %d protocol replays of the captured schedule\n", replays);
  if (!report(*r, cli)) return 1;
  say("host wall: %.2f ms total, %.3f ms per replay\n", wall_ms,
      wall_ms / static_cast<double>(replays));

  // Compile/launch breakdown from the labeled graph metric families.
  std::uint64_t compiles = 0, compile_ns = 0, graph_replays = 0, launches = 0, launch_ns = 0;
  for (const auto& m : ms::telemetry::registry().snapshot().metrics) {
    if (m.name == "ms_rt_graph_compiles_total") {
      compiles += m.counter;
    } else if (m.name == "ms_rt_graph_compile_ns") {
      compile_ns += m.histogram.sum;
    } else if (m.name == "ms_rt_graph_replays_total") {
      graph_replays += m.counter;
    } else if (m.name == "ms_rt_graph_launch_ns") {
      launches += m.histogram.count();
      launch_ns += m.histogram.sum;
    }
  }
  say("compile: %llu plan(s), %.1f us total\n", static_cast<unsigned long long>(compiles),
      static_cast<double>(compile_ns) / 1e3);
  if (launches > 0) {
    say("launch: %llu graph replays in %llu launch calls, %.2f us host per call\n",
        static_cast<unsigned long long>(graph_replays),
        static_cast<unsigned long long>(launches),
        static_cast<double>(launch_ns) / 1e3 / static_cast<double>(launches));
  }
  const auto& cache = ms::rt::process_graph_cache();
  say("cache: %llu hits, %llu misses, %zu plan(s) resident (capacity %zu)\n",
      static_cast<unsigned long long>(cache.hits()),
      static_cast<unsigned long long>(cache.misses()), cache.size(), cache.capacity());
  return 0;
}

int run_hbench(const std::string& mode, const Cli& cli) {
  ms::sim::SimConfig cfg;
  if (!pick_config(cli, &cfg)) return 2;

  if (mode == "fig5") {
    for (int hd = 0; hd <= 16; hd += 4) {
      say("hd=%2d dh=%2d -> %.3f ms\n", hd, 16 - hd,
          ms::apps::HBench::transfer_pattern(cfg, hd, 16 - hd, 1 << 20));
    }
  } else if (mode == "fig6") {
    const int iters = cli.iters ? cli.iters : 40;
    const auto p = ms::apps::HBench::overlap(cfg, 4u << 20, iters, cli.partitions,
                                             cli.tiles > 1 ? cli.tiles : cli.partitions);
    say("data %.2f  kernel %.2f  serial %.2f  streamed %.2f  ideal %.2f [ms]\n",
        p.data_ms, p.kernel_ms, p.serial_ms, p.streamed_ms, p.ideal_ms);
  } else if (mode == "fig7") {
    say("P=%d: %.2f ms (ref %.2f ms)\n", cli.partitions,
        ms::apps::HBench::spatial(cfg, cli.partitions, 128, 100, 4u << 20),
        ms::apps::HBench::spatial_ref(cfg, 100, 4u << 20));
  } else {
    std::fprintf(stderr, "unknown hbench mode: %s\n", mode.c_str());
    return 2;
  }
  return 0;
}

/// `{analyze|lint|stats} {app|hbench} <name>`: run the named workload.
int run_workload(const char* cmd, const std::string& sub, const std::string& name,
                 const Cli& cli) {
  if (sub == "app") return run_app(name, cli);
  if (sub == "hbench") return run_hbench(name, cli);
  std::fprintf(stderr, "%s: expected 'app' or 'hbench', got '%s'\n", cmd, sub.c_str());
  return 2;
}

// Run any app/hbench config under a hazard Capture: the runtime records the
// virtual-concurrency action graph and collects happens-before violations.
// Prints the text report; exit 1 when hazards exist.
int run_analyze(const std::string& sub, const std::string& name, const Cli& cli) {
  ms::analyze::Capture capture;
  if (const int rc = run_workload("analyze", sub, name, cli); rc != 0) return rc;

  const ms::analyze::Analysis& analysis = capture.result();
  say("%s", ms::analyze::text_report(analysis).c_str());
  if (!cli.json_path.empty()) {
    if (!with_output(cli.json_path,
                     [&](std::ostream& os) { os << ms::analyze::json_report(analysis); })) {
      return 2;
    }
    if (cli.json_path != "-") say("json report -> %s\n", cli.json_path.c_str());
  }
  if (!cli.dot_path.empty()) {
    if (!with_output(cli.dot_path, [&](std::ostream& os) {
          os << ms::analyze::dot_racy_subgraph(analysis, capture.racy_record());
        })) {
      return 2;
    }
    if (cli.dot_path != "-") say("racy subgraph -> %s\n", cli.dot_path.c_str());
  }
  return capture.clean() ? 0 : 1;
}

// Run any app/hbench config under the static performance linter: the runtime
// records each barrier-delimited segment and the linter checks it against the
// platform's cost model — anti-pattern findings with fix-its, the per-device
// critical-path/link makespan lower bound, and the overlap-efficiency score
// (static bound / simulated elapsed time). Hazards are collected alongside
// and counted in a note. Exit 1 when findings exist.
int run_lint(const std::string& sub, const std::string& name, const Cli& cli) {
  ms::analyze::Capture capture(/*lint=*/true);
  if (const int rc = run_workload("lint", sub, name, cli); rc != 0) return rc;

  const ms::analyze::LintTotals& lint = capture.lint();
  say("%s", ms::analyze::text_report(lint).c_str());
  if (!capture.clean()) {
    say("note: %zu hazard(s) found alongside — run `mstream_cli analyze` for details\n",
        capture.result().hazards.size());
  }
  if (!cli.json_path.empty()) {
    if (!with_output(cli.json_path,
                     [&](std::ostream& os) { os << ms::analyze::json_report(lint); })) {
      return 2;
    }
    if (cli.json_path != "-") say("json report -> %s\n", cli.json_path.c_str());
  }
  return lint.clean() ? 0 : 1;
}

int run_tune(const Cli& cli) {
  ms::sim::SimConfig cfg;
  if (!pick_config(cli, &cfg)) return 2;

  ms::model::OffloadShape shape;
  shape.h2d_bytes = cli.h2d_mib * (1 << 20);
  shape.d2h_bytes = cli.d2h_mib * (1 << 20);
  if (cli.gflop > 0.0) {
    shape.work.kind = ms::sim::KernelKind::Gemm;
    shape.work.flops = cli.gflop * 1e9;
  } else {
    shape.work.kind = ms::sim::KernelKind::Streaming;
    shape.work.elems = cli.gelem * 1e9;
  }

  const ms::model::AnalyticModel model(cfg);
  const auto choice = model.best_configuration(shape, 16);
  const auto pred = model.predict(shape, choice.partitions, choice.tiles);
  say("offload: %.1f MiB in, %.1f MiB out, %s-bound kernel\n", cli.h2d_mib, cli.d2h_mib,
      pred.transfer_bound ? "transfer" : "compute");
  say("recommended: P = %d partitions, T = %d tiles\n", choice.partitions, choice.tiles);
  say("predicted: serial %.2f ms, streamed %.2f ms (%.2fx), ideal %.2f ms\n",
      pred.serial_ms, pred.streamed_ms, pred.speedup, pred.ideal_ms);
  return 0;
}

/// `stats` with no arguments: exercise the registry via the calibration
/// probe and list what is registered so far. Metrics register lazily at
/// their first call site, so the catalog grows with the code paths run —
/// `stats app <name>` shows the full picture for a real workload.
int run_stats_list() {
  ms::telemetry::set_enabled(true);
  calibration_probe();
  for (const auto& m : ms::telemetry::registry().snapshot().metrics) {
    std::printf("%-36s %-10s %s\n", m.name.c_str(), ms::telemetry::to_string(m.kind),
                m.help.c_str());
  }
  return 0;
}

/// `apps`: one registry name per line, for scripts that iterate over apps.
int list_apps() {
  for (const auto& app : ms::apps::registry()) {
    std::printf("%.*s\n", static_cast<int>(app.name.size()), app.name.data());
  }
  return 0;
}

/// `reproduce [NAME...]`: run the named figures in the order given (every
/// figure when none is named), then write their tables to --json as one
/// document. An unknown name refuses the run before any figure runs.
int run_reproduce(const std::vector<std::string_view>& names, const Cli& cli) {
  std::vector<const ms::repro::Figure*> run;
  for (const std::string_view name : names) {
    const ms::repro::Figure* figure = ms::repro::find_figure(name);
    if (figure == nullptr) {
      std::fprintf(stderr, "unknown figure: %.*s ('mstream_cli reproduce list' lists them)\n",
                   static_cast<int>(name.size()), name.data());
      return 2;
    }
    run.push_back(figure);
  }
  if (names.empty()) {
    for (const ms::repro::Figure& figure : ms::repro::figures()) run.push_back(&figure);
  }
  ms::repro::Sink sink(g_text == stdout ? std::cout : std::cerr, cli.quick);
  for (const ms::repro::Figure* figure : run) figure->run(sink);
  if (!cli.json_path.empty() &&
      !with_output(cli.json_path, [&](std::ostream& os) { sink.write_json(os); })) {
    return 2;
  }
  return 0;
}

/// `reproduce list`: one figure name per line, in the order a bare
/// `reproduce` runs them.
int list_figures() {
  for (const ms::repro::Figure& figure : ms::repro::figures()) {
    std::printf("%.*s\n", static_cast<int>(figure.name.size()), figure.name.data());
  }
  return 0;
}

int list_devices() {
  const std::map<std::string, ms::sim::SimConfig> devices{
      {"31sp", ms::sim::SimConfig::phi_31sp()},
      {"31sp-x2", ms::sim::SimConfig::phi_31sp_x2()},
      {"7120p", ms::sim::SimConfig::phi_7120p()},
  };
  for (const auto& [name, cfg] : devices) {
    std::printf("%-8s %d card(s), %d cores (%d usable, %d threads), %.0f GFLOPS peak, "
                "%.1f GiB/s link\n",
                name.c_str(), cfg.num_devices, cfg.device.cores, cfg.device.usable_cores(),
                cfg.device.usable_threads(), cfg.device.peak_gflops(),
                cfg.link.bandwidth_gib_s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "devices") return list_devices();
  if (cmd == "apps") return list_apps();
  if (cmd == "stats" && argc == 2) return run_stats_list();
  if (cmd == "reproduce" && argc == 3 && std::string_view(argv[2]) == "list") {
    return list_figures();
  }

  const Subcommand* sub = nullptr;
  for (const Subcommand& s : kSubcommands) {
    if (s.name == cmd) sub = &s;
  }
  if (sub == nullptr) return usage();
  int flag_start = 2 + sub->operands;
  std::vector<std::string_view> figures;  // reproduce's operands
  if (sub->bit == kReproduce) {
    for (; flag_start < argc && argv[flag_start][0] != '-'; ++flag_start) {
      figures.emplace_back(argv[flag_start]);
    }
  }
  if (flag_start > argc) return usage();
  Cli cli;
  if (!parse_flags(argc, argv, flag_start, *sub, &cli)) return usage();
  // A workload under `stats` is a run whose output is its metrics snapshot.
  if (cmd == "stats" && cli.metrics_path.empty()) cli.metrics_path = "-";
  int to_stdout = 0;
  for (const std::string* path : {&cli.trace_path, &cli.metrics_path, &cli.json_path,
                                  &cli.dot_path}) {
    to_stdout += *path == "-" ? 1 : 0;
  }
  if (to_stdout > 1) {
    std::fprintf(stderr, "at most one output can be '-' (stdout)\n");
    return 2;
  }
  if (to_stdout == 1) g_text = stderr;
  // Every requested output is probed before the workload runs: a path that
  // cannot be written refuses the run instead of failing after it.
  for (const std::string* path : {&cli.trace_path, &cli.metrics_path, &cli.json_path,
                                  &cli.dot_path}) {
    if (!path->empty() && !output_writable(*path)) {
      std::fprintf(stderr, "cannot write %s\n", path->c_str());
      return 2;
    }
  }

  // --metrics / --serve-obs (and the graph subcommand) switch host
  // telemetry on for the whole run; the calibration probe gives the pool
  // metrics a baseline even for timing-only runs that never sweep. A
  // reproduce snapshot holds what the figures ran and nothing else.
  if (!cli.metrics_path.empty() || !cli.obs_addr.empty() || cmd == "graph") {
    ms::telemetry::set_enabled(true);
    if (cmd != "reproduce") calibration_probe();
  }
  // Live endpoint: bound before the run so scrapers can watch it in flight.
  // The bound address is printed (port 0 resolves to an ephemeral port) so
  // scripts can discover where to curl.
  if (!cli.obs_addr.empty()) {
    if (ms::telemetry::ObsServer* obs = ms::telemetry::ensure_obs_server(cli.obs_addr)) {
      say("obs: serving http://%s (/metrics /healthz /trace)\n", obs->address().c_str());
      std::fflush(g_text);
    }
  }

  try {
    int rc = 0;
    switch (sub->bit) {
      case kApp: rc = run_app(argv[2], cli); break;
      case kHbench: rc = run_hbench(argv[2], cli); break;
      case kGraph: rc = run_graph(argv[2], argv[3], cli); break;
      case kAnalyze: rc = run_analyze(argv[2], argv[3], cli); break;
      case kLint: rc = run_lint(argv[2], argv[3], cli); break;
      case kStats: rc = run_workload("stats", argv[2], argv[3], cli); break;
      case kTune: rc = run_tune(cli); break;
      case kReproduce: rc = run_reproduce(figures, cli); break;
    }
    // The run is over: flip /healthz to Draining (503) so scrapers stop
    // treating the process as a live target while the exit snapshot lands.
    if (ms::telemetry::ObsServer* obs = ms::telemetry::obs_server()) {
      obs->set_state(ms::telemetry::ObsState::Draining);
    }
    // A refused run (exit 2) writes no snapshot, so `stats` prints nothing
    // on stdout for a workload it could not run.
    if (rc != 2 && !write_metrics(cli) && rc == 0) rc = 1;
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
