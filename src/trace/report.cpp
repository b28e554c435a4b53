#include "trace/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "telemetry/export.hpp"

namespace ms::trace {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: need at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: cell count does not match header count");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c])) << cells[c];
    }
    os << " |\n";
  };
  line(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) line(row);
}

void Table::write_json(std::ostream& os) const {
  auto json_row = [&](const std::vector<std::string>& cells) {
    os << '[';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << telemetry::json_quote(cells[c]);
    }
    os << ']';
  };
  os << "{\"columns\":";
  json_row(headers_);
  os << ",\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r) os << ',';
    json_row(rows_[r]);
  }
  os << "]}";
}

AsciiChart::AsciiChart(std::string title, int width, int height)
    : title_(std::move(title)), width_(std::max(16, width)), height_(std::max(4, height)) {}

void AsciiChart::add_series(std::string name, std::vector<double> ys) {
  series_.emplace_back(std::move(name), std::move(ys));
}

void AsciiChart::set_x_labels(std::vector<std::string> labels) { x_labels_ = std::move(labels); }

void AsciiChart::print(std::ostream& os) const {
  os << title_ << '\n';
  if (series_.empty()) {
    os << "(no data)\n";
    return;
  }
  double lo = std::numeric_limits<double>::max();
  double hi = std::numeric_limits<double>::lowest();
  std::size_t n = 0;
  for (const auto& [name, ys] : series_) {
    n = std::max(n, ys.size());
    for (double y : ys) {
      if (std::isfinite(y)) {
        lo = std::min(lo, y);
        hi = std::max(hi, y);
      }
    }
  }
  if (n == 0 || hi < lo) {
    os << "(no data)\n";
    return;
  }
  if (hi == lo) hi = lo + 1.0;

  const char glyphs[] = "*o+x#@";
  std::vector<std::string> grid(static_cast<std::size_t>(height_),
                                std::string(static_cast<std::size_t>(width_), ' '));
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const auto& ys = series_[si].second;
    const char g = glyphs[si % 6];
    for (std::size_t i = 0; i < ys.size(); ++i) {
      if (!std::isfinite(ys[i])) continue;
      const int col = n > 1 ? static_cast<int>(static_cast<double>(i) * (width_ - 1) /
                                               static_cast<double>(n - 1))
                            : 0;
      const double f = (ys[i] - lo) / (hi - lo);
      const int row = height_ - 1 - static_cast<int>(f * (height_ - 1));
      grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = g;
    }
  }
  os << Table::num(hi, 2) << " +" << std::string(static_cast<std::size_t>(width_), '-') << "+\n";
  for (const std::string& row : grid) {
    os << std::string(Table::num(hi, 2).size() + 1, ' ') << '|' << row << "|\n";
  }
  os << Table::num(lo, 2) << " +" << std::string(static_cast<std::size_t>(width_), '-') << "+\n";
  if (!x_labels_.empty()) {
    os << "    x: ";
    for (std::size_t i = 0; i < x_labels_.size(); ++i) {
      if (i) os << ", ";
      os << x_labels_[i];
    }
    os << '\n';
  }
  for (std::size_t si = 0; si < series_.size(); ++si) {
    os << "    '" << glyphs[si % 6] << "' = " << series_[si].first << '\n';
  }
}

}  // namespace ms::trace
