#pragma once

#include <span>
#include <vector>

#include "data/generators.hpp"
#include "data/windowed.hpp"
#include "sim/types.hpp"

namespace kspot::core {

/// Zero-copy view of one node's buffered window: at most two contiguous
/// segments of readings (ring-buffer storage wraps; contiguous storage leaves
/// `second` empty). Index 0 is the oldest buffered reading. The view borrows
/// the source's storage and is invalidated by the next append.
class WindowSpan {
 public:
  WindowSpan() = default;
  WindowSpan(std::span<const double> first, std::span<const double> second = {})
      : first_(first), second_(second) {}

  /// Number of buffered readings covered by the view.
  size_t size() const { return first_.size() + second_.size(); }
  bool empty() const { return first_.empty() && second_.empty(); }

  /// Reading `t` positions from the oldest (0 = oldest). Precondition:
  /// t < size().
  double operator[](size_t t) const {
    return t < first_.size() ? first_[t] : second_[t - first_.size()];
  }

  /// Calls `fn(t, value)` for every buffered reading, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    size_t t = 0;
    for (double v : first_) fn(t++, v);
    for (double v : second_) fn(t++, v);
  }

 private:
  std::span<const double> first_;
  std::span<const double> second_;
};

/// Provides each node's locally buffered history window for historic top-k
/// queries (Section III-B). Keys are window indices 0..window_size()-1; a
/// key corresponds to one time instance, and *every* node holds a value for
/// every key — the vertically fragmented case TJA addresses.
class HistorySource {
 public:
  virtual ~HistorySource() = default;

  /// Node `id`'s buffered readings, one per window index, as a zero-copy
  /// view over the source's own storage.
  virtual WindowSpan Window(sim::NodeId id) const = 0;

  /// Number of time instances buffered (W).
  virtual size_t window_size() const = 0;

  /// Number of nodes (including the sink at index 0, which holds no data).
  virtual size_t num_nodes() const = 0;

  /// Materialized copy of node `id`'s window, oldest first. Convenience for
  /// oracles and tests — not for hot paths.
  std::vector<double> MaterializeWindow(sim::NodeId id) const;
};

/// The last `window` (1..ring.held()) epochs of a data::ReadingRing, copied
/// node-major, position 0 the oldest: the windows historic (TJA) queries
/// rank.
class RingHistory : public HistorySource {
 public:
  RingHistory(const data::ReadingRing& ring, size_t window);

  WindowSpan Window(sim::NodeId id) const override;
  size_t window_size() const override { return window_; }
  size_t num_nodes() const override { return num_nodes_; }

 private:
  size_t window_;
  size_t num_nodes_;
  std::vector<double> windows_;  ///< windows_[id * window_ + position].
};

}  // namespace kspot::core
