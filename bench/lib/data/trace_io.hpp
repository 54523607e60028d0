#pragma once

#include <string>
#include <vector>

#include "data/generators.hpp"
#include "util/status.hpp"

namespace kspot::data {

/// CSV trace I/O: record simulated runs and replay real-world datasets
/// (Intel-lab-style per-epoch readings) through TraceGenerator.
///
/// Format: one row per epoch; column j holds node j's reading (column 0, the
/// sink, is conventionally 0). A '#' line is a comment. Example:
///
///   # epoch rows, node columns
///   0, 40.0, 74.0, 75.0
///   0, 41.0, 73.5, 75.0
namespace trace_io {

/// Parses CSV text into an epochs x nodes matrix. Rows may differ in width;
/// shorter rows are zero-padded to the widest.
util::StatusOr<std::vector<std::vector<double>>> ParseCsv(const std::string& text);

/// Loads a trace file.
util::StatusOr<std::vector<std::vector<double>>> LoadCsv(const std::string& path);

/// Serializes a matrix to CSV text.
std::string ToCsv(const std::vector<std::vector<double>>& matrix);

/// Records `epochs` epochs of `gen` (nodes 0..num_nodes-1) into a matrix —
/// the bridge from synthetic generators to shareable trace files.
std::vector<std::vector<double>> Record(DataGenerator& gen, size_t num_nodes, size_t epochs);

}  // namespace trace_io

}  // namespace kspot::data
