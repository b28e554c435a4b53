#include "bench_common.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace ms::bench {

namespace {

/// A file named by --json or --metrics: stdout for "-", otherwise opened by
/// parse() so a path that cannot be written is refused before any sweep runs.
struct Output {
  std::string path;
  std::ofstream file;
  std::ostream os{nullptr};

  /// Remembers `p` only once it is writable, so a refused path writes nothing.
  /// "-" takes stdout's buffer for the document and points std::cout, which
  /// the tables and notes are printed to, at stderr.
  [[nodiscard]] bool open(const std::string& p) {
    if (p == "-") {
      os.rdbuf(std::cout.rdbuf());
      std::cout.rdbuf(std::cerr.rdbuf());
    } else {
      file.open(p);
      if (!file.is_open()) return false;
      os.rdbuf(file.rdbuf());
    }
    path = p;
    return true;
  }
  ~Output() { os.flush(); }
};

/// Tables accumulated for --json. Written by a static destructor so every
/// figure binary gets the file without threading a "finish" call through
/// each main(); the sink outlives any table emitted from main's scope.
struct JsonSink {
  Output out;
  std::vector<std::pair<std::string, trace::Table>> tables;

  ~JsonSink() {
    if (out.path.empty()) return;
    std::ostream& os = out.os;
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
    if (!out.path.empty()) telemetry::write_snapshot(out.os);
  }
};

MetricsSink& metrics_sink() {
  static MetricsSink sink;
  return sink;
}

/// Print why the command line was refused plus the usage line, and exit 2:
/// a mistyped flag must not run a full sweep under default settings.
[[noreturn]] void reject(const char* prog, const std::string& why) {
  std::cerr << why << "\nusage: " << prog << " [--quick] [--json FILE] [--metrics FILE]\n";
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
    std::string* value = flag == "--json"      ? &opt.json_file
                         : flag == "--metrics" ? &opt.metrics_file
                                               : nullptr;
    if (value == nullptr) reject(argv[0], "unknown flag: " + flag);
    if (i + 1 >= argc) reject(argv[0], "missing value for " + flag);
    *value = argv[++i];
  }
  if (opt.json_file == "-" && opt.metrics_file == "-") {
    reject(argv[0], "at most one output can be '-' (stdout)");
  }
  if (!opt.json_file.empty() && !telemetry::output_writable(opt.json_file)) {
    reject(argv[0], "cannot write --json file " + opt.json_file);
  }
  if (!opt.metrics_file.empty() && !telemetry::output_writable(opt.metrics_file)) {
    reject(argv[0], "cannot write --metrics file " + opt.metrics_file);
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
  return opt;
}

void emit(const trace::Table& table, const std::string& name, const std::string& heading,
          const Options& opt) {
  std::cout << "\n== " << heading << " ==\n";
  table.print(std::cout);
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
