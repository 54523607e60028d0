#include "util/table_printer.hpp"

#include <algorithm>
#include <sstream>

namespace kspot::util {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << "  " << cell << std::string(widths[c] - cell.size(), ' ');
    }
    os << '\n';
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::ToString() const {
  std::ostringstream oss;
  Print(oss);
  return oss.str();
}

}  // namespace kspot::util
