#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace ms::trace {

/// Column-aligned text tables for the bench harness — each paper table and
/// figure is regenerated as one of these (and optionally written as JSON).
class Table {
public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with `precision` digits after the point.
  [[nodiscard]] static std::string num(double v, int precision = 2);

  void print(std::ostream& os) const;

  /// Emit the table as one JSON object: {"columns": [...], "rows": [[...]]}.
  /// Cells stay strings — they are already formatted for presentation.
  void write_json(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Minimal ASCII line chart: x labels on the bottom, one glyph per series.
/// Good enough to see the *shape* of each paper figure in the terminal.
class AsciiChart {
public:
  AsciiChart(std::string title, int width = 72, int height = 16);

  void add_series(std::string name, std::vector<double> ys);
  void set_x_labels(std::vector<std::string> labels);

  void print(std::ostream& os) const;

private:
  std::string title_;
  int width_;
  int height_;
  std::vector<std::string> x_labels_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

}  // namespace ms::trace
