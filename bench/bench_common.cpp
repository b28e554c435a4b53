#include "bench_common.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/obs_server.hpp"

namespace ms::bench {

namespace {

/// A file named by --json or --metrics: stdout for "-", otherwise opened by
/// parse() so a path that cannot be written is refused before any sweep runs.
struct Output {
  std::string path;
  std::ofstream file;

  /// Remembers `p` only once it is writable, so a refused path writes nothing.
  [[nodiscard]] bool open(const std::string& p) {
    if (p != "-") {
      file.open(p);
      if (!file.is_open()) return false;
    }
    path = p;
    return true;
  }
  [[nodiscard]] std::ostream& stream() { return path == "-" ? std::cout : file; }
};

/// Tables accumulated for --json. Written by a static destructor so every
/// figure binary gets the file without threading a "finish" call through
/// each main(); the sink outlives any table emitted from main's scope.
struct JsonSink {
  Output out;
  std::vector<std::pair<std::string, trace::Table>> tables;

  ~JsonSink() {
    if (out.path.empty()) return;
    std::ostream& os = out.stream();
    os << "{\n";
    for (std::size_t i = 0; i < tables.size(); ++i) {
      os << "  \"" << tables[i].first << "\": ";
      tables[i].second.write_json(os);
      os << (i + 1 < tables.size() ? ",\n" : "\n");
    }
    os << "}\n";
  }
};

JsonSink& json_sink() {
  static JsonSink sink;
  return sink;
}

/// Same static-destructor pattern for --metrics: the telemetry snapshot is
/// taken once, after every table (and every worker flush) is done.
struct MetricsSink {
  Output out;

  ~MetricsSink() {
    if (!out.path.empty()) telemetry::write_snapshot(out.stream());
  }
};

MetricsSink& metrics_sink() {
  static MetricsSink sink;
  return sink;
}

/// Print why the command line was refused plus the usage line, and exit 2:
/// a mistyped flag must not run a full sweep under default settings.
[[noreturn]] void reject(const char* prog, const std::string& why) {
  std::cerr << why << "\nusage: " << prog
            << " [--quick] [--csv DIR] [--json FILE] [--metrics FILE] [--serve-obs ADDR]\n";
  std::exit(2);
}

}  // namespace

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      opt.quick = true;
      continue;
    }
    std::string* value = flag == "--csv"         ? &opt.csv_dir
                         : flag == "--json"      ? &opt.json_file
                         : flag == "--metrics"   ? &opt.metrics_file
                         : flag == "--serve-obs" ? &opt.obs_addr
                                                 : nullptr;
    if (value == nullptr) reject(argv[0], "unknown flag: " + flag);
    if (i + 1 >= argc) reject(argv[0], "missing value for " + flag);
    *value = argv[++i];
  }
  if (!opt.csv_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.csv_dir, ec);
    if (!std::filesystem::is_directory(opt.csv_dir, ec)) {
      reject(argv[0], "cannot create --csv directory " + opt.csv_dir);
    }
  }
  if (!opt.json_file.empty() && !json_sink().out.open(opt.json_file)) {
    reject(argv[0], "cannot write --json file " + opt.json_file);
  }
  if (!opt.metrics_file.empty()) {
    if (!metrics_sink().out.open(opt.metrics_file)) {
      reject(argv[0], "cannot write --metrics file " + opt.metrics_file);
    }
    telemetry::set_enabled(true);
  }
  if (!opt.obs_addr.empty()) {
    telemetry::set_enabled(true);
    if (telemetry::ObsServer* obs = telemetry::ensure_obs_server(opt.obs_addr)) {
      std::cout << "obs: serving http://" << obs->address() << "\n" << std::flush;
    }
  }
  return opt;
}

void emit(const trace::Table& table, const std::string& name, const std::string& heading,
          const Options& opt) {
  std::cout << "\n== " << heading << " ==\n";
  table.print(std::cout);
  if (!opt.csv_dir.empty()) {
    std::ofstream f(opt.csv_dir + "/" + name + ".csv");
    if (f) {
      table.write_csv(f);
    } else {
      std::cerr << "warning: cannot write CSV for " << name << " into " << opt.csv_dir << "\n";
    }
  }
  if (!opt.json_file.empty()) json_sink().tables.emplace_back(name, table);
}

std::string unit(Metric metric) {
  switch (metric) {
    case Metric::Gflops: return "GFLOPS";
    case Metric::Seconds: return "s";
    case Metric::Millis: return "ms";
  }
  return {};
}

std::string column(Metric metric) {
  return metric == Metric::Gflops ? unit(metric) : "time [" + unit(metric) + "]";
}

double value(Metric metric, const apps::AppResult& r) {
  switch (metric) {
    case Metric::Gflops: return r.gflops;
    case Metric::Seconds: return r.ms / 1e3;
    case Metric::Millis: return r.ms;
  }
  return 0.0;
}

std::string improvement_cell(double baseline, double streamed) {
  if (!(baseline > 0.0) || !std::isfinite(baseline) || !std::isfinite(streamed)) return "n/a";
  return trace::Table::num((baseline - streamed) / baseline * 100.0, 1) + "%";
}

}  // namespace ms::bench
