#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace kspot::util {

/// Renders aligned plain-text tables for the benchmark harness, so every
/// experiment prints rows in the same visual form the paper's tables/figures
/// would use.
class TablePrinter {
 public:
  /// Creates a table with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; missing trailing cells render empty, extras are dropped.
  void AddRow(std::vector<std::string> cells);

  /// Writes the table (with a header separator) to `os`.
  void Print(std::ostream& os) const;

  /// Renders to a string.
  std::string ToString() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace kspot::util
