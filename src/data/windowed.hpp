#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "agg/aggregate.hpp"
#include "data/generators.hpp"

namespace kspot::data {

/// Every node's readings of the last `rows` epochs (Section III-B's local
/// history), epoch-major, each with the node's fixed-point sum of every
/// reading up to it, so a window's SUM/AVG/COUNT read in O(1). A push
/// writes one contiguous row of nodes: appended until `rows` epochs are
/// held (so the ring holds no more epochs than it was given), then
/// overwriting the oldest.
class ReadingRing {
 public:
  /// Keeps at most `rows` (>= 1) epochs; the first push is epoch `first`.
  ReadingRing(size_t num_nodes, size_t rows, sim::Epoch first = 0);

  /// Appends every node's reading of `source` at `epoch`, which must be
  /// next_epoch(), evicting the oldest once `rows` epochs are held.
  void Push(DataGenerator& source, sim::Epoch epoch);

  /// Every node's reading of the epoch `age` (< held()) epochs after the
  /// oldest held one, indexed by node id. Invalidated by the next Push.
  std::span<const double> Row(size_t age) const {
    return {readings_.data() + Slot(age) * num_nodes_, num_nodes_};
  }
  /// The fixed-point sum of node `id`'s readings of the last `count`
  /// (1..held()) epochs.
  int64_t SumFx(sim::NodeId id, size_t count) const;

  size_t num_nodes() const { return num_nodes_; }
  size_t rows() const { return rows_; }
  size_t held() const { return held_; }
  sim::Epoch next_epoch() const { return next_epoch_; }

 private:
  size_t num_nodes_;
  size_t rows_;
  size_t held_ = 0;
  size_t head_ = 0;                ///< Slot of the oldest epoch once full.
  std::vector<double> readings_;   ///< readings_[slot * num_nodes_ + id].
  std::vector<int64_t> sums_;      ///< Laid out as readings_: sums to that epoch.
  std::vector<int64_t> evicted_;   ///< Each node's sum to the last evicted epoch.
  sim::Epoch next_epoch_;

  size_t Slot(size_t age) const { return head_ + age < held_ ? head_ + age : head_ + age - held_; }
};

/// Ring of `count` rows holding epochs [first, first + count) of `source`,
/// whose next draw is at or before `first`.
ReadingRing DrawnRing(DataGenerator& source, size_t num_nodes, sim::Epoch first, size_t count);

/// Adapter for *horizontally fragmented* historic queries (Section III-B,
/// first case): presents each node's sliding-window aggregate of an
/// underlying generator as if it were the node's instantaneous reading.
/// Running a snapshot algorithm (TAG or MINT) over this adapter implements
/// "conduct a local search and filtering in the respective history window
/// before transmitting the results upwards" — the node ships one aggregate
/// instead of W raw tuples.
///
/// With every node holding the same window length W, per-room AVG over the
/// adapter equals the paper's AVG over all buffered tuples of the room
/// (equal weights), so results stay exact against an oracle over the same
/// adapter. The window at epoch e is the last W epochs up to e that a
/// ReadingRing holds (fewer while it holds fewer): AVG/SUM/COUNT read its
/// fixed-point sums, equal to a merge of every buffered reading bit for bit;
/// MIN/MAX scan the node's W readings.
class WindowAggregateGenerator : public DataGenerator {
 public:
  /// Owns a ring of `window` (>= 1) epochs, which reading epoch e fills from
  /// `inner` (which must outlive the adapter) up to e.
  WindowAggregateGenerator(DataGenerator* inner, size_t num_nodes, size_t window,
                           agg::AggKind agg);

  /// A view over `ring`, which its owner fills: epoch e is read after the
  /// ring takes it and before it takes e + 1. `modality` is its source's.
  WindowAggregateGenerator(const ReadingRing* ring, size_t window, agg::AggKind agg,
                           const ModalityInfo& modality);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  void PrepareEpoch(sim::Epoch epoch) override;
  const ModalityInfo& modality() const override { return *modality_; }

 private:
  DataGenerator* inner_ = nullptr;  ///< Null for a view.
  std::unique_ptr<ReadingRing> owned_;
  const ReadingRing* ring_;
  size_t window_;
  agg::AggKind agg_;
  const ModalityInfo* modality_;
};

}  // namespace kspot::data
