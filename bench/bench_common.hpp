#pragma once

#include <cstdint>
#include <string>

#include "apps/app_common.hpp"
#include "trace/report.hpp"

namespace ms::bench {

/// Shared command-line handling for the figure-reproduction binaries.
///   --quick         shrink sweeps (CI smoke run; shapes still visible)
///   --json FILE     write every emitted table into one machine-readable JSON
///                   file keyed by table name (perf-trajectory tracking)
///   --metrics FILE  enable host telemetry for the whole run and write the
///                   registry snapshot at exit as Prometheus text
/// FILE "-" is stdout, for at most one of the two; the ASCII tables and notes
/// then go to stderr so stdout parses as the document alone.
/// An unknown flag, a flag missing its value, two "-" outputs or a
/// --json/--metrics file that cannot be opened prints the reason and the
/// usage line to stderr and exits 2, before anything runs.
struct Options {
  bool quick = false;
  std::string json_file;
  std::string metrics_file;
};

Options parse(int argc, char** argv);

/// Print a table under a heading and queue it for --json.
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
