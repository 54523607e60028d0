#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "agg/aggregate.hpp"
#include "data/generators.hpp"

namespace kspot::data {

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
/// adapter.
///
/// The window is one flat node-major ring of fixed-point readings plus each
/// node's running fixed-point sum: integer arithmetic, so AVG/SUM/COUNT cost
/// O(1) per read and equal a merge of every buffered reading bit for bit;
/// MIN/MAX scan the node's W slots.
class WindowAggregateGenerator : public DataGenerator {
 public:
  /// `inner` must outlive the adapter. `window` is W (>=1); the window
  /// starts at epoch `first`, and until W epochs have passed it aggregates
  /// over however many readings exist so far. Reading epoch e appends, from
  /// `inner`, every epoch not buffered yet up to e.
  WindowAggregateGenerator(DataGenerator* inner, size_t num_nodes, size_t window,
                           agg::AggKind agg, sim::Epoch first = 0);

  /// Appends every node's reading of `source` at `epoch`, the next epoch the
  /// window lacks, evicting the oldest once W are buffered: how an owner
  /// feeds the window from another generator than `inner`, or while it
  /// reads no value.
  void Push(DataGenerator& source, sim::Epoch epoch);

  double Value(sim::NodeId id, sim::Epoch epoch) override;
  void PrepareEpoch(sim::Epoch epoch) override { AdvanceTo(epoch); }
  const ModalityInfo& modality() const override { return inner_->modality(); }

  /// Window length W.
  size_t window() const { return window_; }

 private:
  DataGenerator* inner_;
  size_t num_nodes_;
  size_t window_;
  agg::AggKind agg_;
  /// ring_[id * window_ + slot]: node id's buffered fixed-point readings.
  std::vector<int32_t> ring_;
  /// Each node's sum over its buffered readings.
  std::vector<int64_t> sum_fx_;
  size_t filled_ = 0;  ///< Readings buffered per node (<= window_).
  size_t head_ = 0;    ///< Slot the next push writes.
  sim::Epoch next_epoch_;

  void AdvanceTo(sim::Epoch epoch);
};

}  // namespace kspot::data
