#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agg/group_view.hpp"
#include "core/epoch_algorithm.hpp"
#include "sim/waves.hpp"
#include "storage/history_store.hpp"

namespace kspot::core {

/// Configuration of a continuous historic (vertical) operator.
struct HistoricStreamOptions {
  /// Ranked answers requested per epoch.
  int k = 1;
  /// Aggregate ranking the time instances.
  agg::AggKind agg = agg::AggKind::kAvg;
  /// Sliding-window size W (time instances kept per node).
  size_t window = 32;
  /// Maintain the sink's window view through per-epoch deltas (O(delta))
  /// instead of re-collecting every node's whole window (O(W*n)). Answers
  /// are bit-identical either way on lossless beds; scratch mode exists as
  /// the measurable strawman.
  bool incremental = true;
  /// Archive readings evicted from the SRAM window to simulated flash
  /// through the MicroHash index. The stores count their own I/O
  /// (FlashIoTotal); the network charges radio only.
  bool archive_to_flash = false;
  /// Cluster-neighbor predictive suppression (delta mode only): a sensor
  /// stays silent when its reading is within `suppression_eps` of the last
  /// value it transmitted; its room's head re-injects that predictor, so the
  /// sink's reconstruction error is bounded by `suppression_eps`.
  bool suppression = false;
  double suppression_eps = 0.5;
};

/// Continuous historic top-k over sliding windows, as a first-class epoch
/// algorithm: each epoch every node appends its fresh reading into its local
/// HistoryStore, and one converge-cast updates the sink's materialized
/// window view — carrying just the new epoch's partial in delta mode
/// (GroupView::ApplyWindowDelta retracts the evicted epoch), or every
/// buffered epoch in scratch mode. E20 and the golden suite drive it
/// directly; the session coordinator ranks a vertical query with one TJA over
/// its window at bind time instead.
class HistoricStream : public EpochAlgorithm {
 public:
  HistoricStream(sim::Network* net, data::DataGenerator* gen, HistoricStreamOptions options);

  std::string name() const override;
  TopKResult RunEpoch(sim::Epoch epoch) override;
  void OnTopologyChanged() override;

  /// Node `id`'s backing store (tests and audits).
  const storage::HistoryStore& store(sim::NodeId id) const { return stores_[id]; }

  /// Sum of flash I/O across all node stores (zero unless archiving).
  storage::IoCounters FlashIoTotal() const;

  /// Readings transmitted / suppressed so far (suppression mode only).
  uint64_t reports() const { return reports_; }
  uint64_t suppressed() const { return suppressed_; }
  /// Fraction of sensor readings suppressed so far (0 when suppression off).
  double suppression_ratio() const;
  /// Largest |reading - reconstructed| the suppression incurred so far;
  /// bounded by options().suppression_eps by construction.
  double max_reconstruction_error() const { return max_recon_err_; }

  const HistoricStreamOptions& options() const { return options_; }

 private:
  TopKResult RunDeltaEpoch(sim::Epoch epoch);
  TopKResult RunScratchEpoch(sim::Epoch epoch);

  HistoricStreamOptions options_;
  std::vector<storage::HistoryStore> stores_;
  /// The sink's materialized window view (delta mode): one entry per
  /// buffered epoch, maintained by ApplyWindowDelta.
  agg::GroupView window_view_;
  /// The window delta of this epoch's appends (all stores slide in lockstep).
  storage::WindowDelta last_delta_;

  // Suppression state. `head_of_[id]` is the cluster head of id's room (the
  // room's lowest sensor id); heads never suppress, so every room anchors
  // its members' reconstruction.
  std::vector<sim::NodeId> head_of_;
  std::vector<std::vector<sim::NodeId>> members_of_head_;
  std::vector<double> predictor_;        ///< Last value each node transmitted.
  std::vector<uint8_t> has_predictor_;
  std::vector<uint8_t> suppressed_now_;  ///< Per-epoch suppression decisions.
  std::vector<double> value_now_;        ///< This epoch's readings.
  uint64_t reports_ = 0;
  uint64_t suppressed_ = 0;
  double max_recon_err_ = 0.0;

  sim::UpWave<agg::GroupView>::Workspace ws_;
};

}  // namespace kspot::core
