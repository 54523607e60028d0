#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "sim/network.hpp"

namespace kspot::system {

/// The System Panel (Sections I/IV-B): the live counter display that
/// "continuously projects the savings in energy and messages that our system
/// yields". It tracks the KSpot network's traffic against a baseline (TAG)
/// run over the same data and reports the savings percentages.
class SystemPanel {
 public:
  SystemPanel() = default;

  /// Live node-status block (churn runs): how much of the deployment is up
  /// and routable, and what the in-network tree repairs have cost so far.
  struct NodeStatus {
    size_t total = 0;            ///< Deployed nodes (including the sink).
    size_t up = 0;               ///< Alive (admin-up with battery left).
    size_t detached = 0;         ///< Alive but without a route to the sink.
    size_t repair_events = 0;    ///< Epochs that forced a tree repair.
    uint64_t repair_messages = 0;///< Join-handshake messages those repairs cost.
  };

  /// Records one epoch of KSpot traffic (counters since the previous call).
  void RecordKspotEpoch(const sim::TrafficCounters& epoch_delta);
  /// Records one epoch of baseline traffic.
  void RecordBaselineEpoch(const sim::TrafficCounters& epoch_delta);
  /// Records the current node status (latest snapshot wins).
  void RecordNodeStatus(const NodeStatus& status);
  /// Records an observability snapshot (latest wins); a non-empty one adds a
  /// runtime-metrics pane to Render(). Typically obs::Registry().Snapshot().
  void RecordMetrics(const obs::MetricsSnapshot& snapshot);

  /// Latest node status; total == 0 until a churn run records one.
  const NodeStatus& node_status() const { return node_status_; }

  /// Message savings, percent of the baseline.
  double MessageSavingsPercent() const;
  /// Payload byte savings, percent of the baseline.
  double ByteSavingsPercent() const;
  /// Radio energy savings, percent of the baseline.
  double EnergySavingsPercent() const;

  /// Renders the panel text (one compact block for the terminal).
  std::string Render() const;

 private:
  sim::TrafficCounters kspot_;
  sim::TrafficCounters baseline_;
  NodeStatus node_status_;
  obs::MetricsSnapshot metrics_;
  size_t epochs_ = 0;
};

}  // namespace kspot::system
