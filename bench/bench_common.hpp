#pragma once

#include <cstdint>
#include <string>

#include "apps/app_common.hpp"
#include "trace/report.hpp"

namespace ms::bench {

/// Shared command-line handling for the figure-reproduction binaries.
///   --quick         shrink sweeps (CI smoke run; shapes still visible)
///   --csv DIR       also write each table as DIR/<name>.csv (DIR is created)
///   --json FILE     write every emitted table into one machine-readable JSON
///                   file keyed by table name (perf-trajectory tracking);
///                   "-" streams to stdout like the CLI
///   --metrics FILE  enable host telemetry for the whole run and write the
///                   registry snapshot at exit as Prometheus text ("-" = stdout)
///   --serve-obs ADDR  enable host telemetry and serve the live observability
///                   endpoint (/metrics, /healthz, ...) on ADDR while the
///                   sweeps run; the bound address is printed (port 0 =
///                   ephemeral)
/// An unknown flag, a flag missing its value, a --csv directory that cannot
/// be created or a --json/--metrics file that cannot be opened prints the
/// reason and the usage line to stderr and exits 2, before anything runs.
struct Options {
  bool quick = false;
  std::string csv_dir;
  std::string json_file;
  std::string metrics_file;
  std::string obs_addr;
};

Options parse(int argc, char** argv);

/// Print a table under a heading and optionally persist it as CSV.
void emit(const trace::Table& table, const std::string& name, const std::string& heading,
          const Options& opt);

/// What a figure panel reports for each app run.
enum class Metric : std::uint8_t { Gflops, Seconds, Millis };

/// The metric's unit: "GFLOPS", "s" or "ms".
[[nodiscard]] std::string unit(Metric metric);

/// Column title of a sweep table: "GFLOPS", "time [s]" or "time [ms]".
[[nodiscard]] std::string column(Metric metric);

/// The metric's value for one run: GFLOPS, or virtual time in s or ms.
[[nodiscard]] double value(Metric metric, const apps::AppResult& r);

/// Shorthand for a percentage-improvement cell: (base - streamed) / base.
[[nodiscard]] std::string improvement_cell(double baseline, double streamed);

}  // namespace ms::bench
