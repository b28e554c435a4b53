#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/report.hpp"

namespace ms::repro {

/// What a figure gets from the driver: the size of the run, the stream its
/// tables, charts and notes are printed to, and the record of every table
/// it emits, which becomes the machine-readable document of the run.
class Sink {
public:
  Sink(std::ostream& text, bool quick_run) : out(text), quick(quick_run) {}

  std::ostream& out;
  /// Shrink every sweep (CI smoke size); the figure's shape stays visible.
  const bool quick;

  /// Print `table` under `heading` and record it as `name`.
  void emit(const trace::Table& table, const std::string& name, const std::string& heading);

  /// Every recorded table as one JSON object keyed by table name, in the
  /// order the tables were emitted.
  void write_json(std::ostream& os) const;

private:
  std::vector<std::pair<std::string, trace::Table>> tables_;
};

/// One figure of the evaluation: the paper's Figs. 5-11 plus the ablations,
/// model checks and future-work studies. Each run prints the same tables
/// whichever figures run before it.
struct Figure {
  std::string_view name;
  void (*run)(Sink& sink);
};

/// Every figure, in the order `mstream_cli reproduce` runs them.
[[nodiscard]] std::span<const Figure> figures() noexcept;

/// The figure called `name`, or nullptr when there is none.
[[nodiscard]] const Figure* find_figure(std::string_view name) noexcept;

}  // namespace ms::repro
