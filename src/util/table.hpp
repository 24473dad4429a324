// ASCII table / CSV emitters used by the benchmark harness so every
// reproduced table and figure prints in a uniform, diff-friendly format.
#pragma once

#include <string>
#include <vector>

namespace wsn::util {

/// A simple column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> cells);

  std::size_t Rows() const noexcept { return rows_.size(); }

  /// Render with a rule under the header, columns right-padded.
  std::string Render() const;

  /// Render as CSV (RFC-4180: cells containing commas, quotes or line
  /// breaks are quoted, embedded quotes doubled).
  std::string RenderCsv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `precision` fixed digits.
std::string FormatFixed(double v, int precision);

/// Format "mean +- hw" for confidence-interval cells.
std::string FormatInterval(double mean, double half_width, int precision = 4);

}  // namespace wsn::util
