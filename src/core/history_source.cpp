#include "core/history_source.hpp"

namespace kspot::core {

std::vector<double> HistorySource::MaterializeWindow(sim::NodeId id) const {
  WindowSpan span = Window(id);
  std::vector<double> out;
  out.reserve(span.size());
  span.ForEach([&](size_t, double v) { out.push_back(v); });
  return out;
}

RingHistory::RingHistory(const data::ReadingRing& ring, size_t window)
    : window_(window), num_nodes_(ring.num_nodes()), windows_(num_nodes_ * window) {
  for (size_t t = 0; t < window; ++t) {
    std::span<const double> row = ring.Row(ring.held() - window + t);
    for (size_t id = 1; id < num_nodes_; ++id) windows_[id * window + t] = row[id];
  }
}

WindowSpan RingHistory::Window(sim::NodeId id) const {
  if (id >= num_nodes_) return {};
  return WindowSpan(std::span<const double>(windows_).subspan(id * window_, window_));
}

}  // namespace kspot::core
