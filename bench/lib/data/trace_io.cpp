#include "data/trace_io.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/string_util.hpp"

namespace kspot::data::trace_io {

util::StatusOr<std::vector<std::vector<double>>> ParseCsv(const std::string& text) {
  std::vector<std::vector<double>> matrix;
  std::istringstream iss(text);
  std::string line;
  size_t lineno = 0;
  size_t width = 0;
  while (std::getline(iss, line)) {
    ++lineno;
    std::string_view trimmed = util::Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<double> row;
    for (const std::string& cell : util::Split(trimmed, ',')) {
      if (cell.empty()) {
        row.push_back(0.0);
        continue;
      }
      char* end = nullptr;
      double v = std::strtod(cell.c_str(), &end);
      bool consumed_nothing = end == cell.c_str();
      bool trailing_junk = !util::Trim(std::string_view(end)).empty();
      if (consumed_nothing || trailing_junk) {
        return util::Status::Error("trace line " + std::to_string(lineno) + ": bad number '" +
                                   cell + "'");
      }
      row.push_back(v);
    }
    width = std::max(width, row.size());
    matrix.push_back(std::move(row));
  }
  if (matrix.empty()) return util::Status::Error("trace has no data rows");
  for (auto& row : matrix) row.resize(width, 0.0);
  return matrix;
}

util::StatusOr<std::vector<std::vector<double>>> LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::Error("cannot open trace file '" + path + "'");
  std::ostringstream oss;
  oss << in.rdbuf();
  return ParseCsv(oss.str());
}

std::string ToCsv(const std::vector<std::vector<double>>& matrix) {
  std::ostringstream oss;
  oss << "# KSpot trace: rows = epochs, columns = nodes (column 0 = sink)\n";
  for (const auto& row : matrix) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) oss << ',';
      oss << util::FormatDouble(row[i], 6);
    }
    oss << '\n';
  }
  return oss.str();
}

std::vector<std::vector<double>> Record(DataGenerator& gen, size_t num_nodes, size_t epochs) {
  std::vector<std::vector<double>> matrix(epochs, std::vector<double>(num_nodes, 0.0));
  for (size_t e = 0; e < epochs; ++e) {
    for (size_t id = 1; id < num_nodes; ++id) {
      matrix[e][id] = gen.Value(static_cast<sim::NodeId>(id), static_cast<sim::Epoch>(e));
    }
  }
  return matrix;
}

}  // namespace kspot::data::trace_io
