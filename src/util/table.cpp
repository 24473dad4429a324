#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace wsn::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  Require(!headers_.empty(), "table needs at least one column");
}

void TextTable::AddRow(std::vector<std::string> cells) {
  Require(cells.size() == headers_.size(),
          "row arity does not match header arity");
  rows_.push_back(std::move(cells));
}

std::string TextTable::Render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << "\n";
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total >= 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TextTable::RenderCsv() const {
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
      return s;
    }
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += '"';
      out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << quote(row[c]);
      if (c + 1 < row.size()) os << ",";
    }
    os << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string FormatFixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string FormatInterval(double mean, double half_width, int precision) {
  return FormatFixed(mean, precision) + " +- " +
         FormatFixed(half_width, precision);
}

}  // namespace wsn::util
