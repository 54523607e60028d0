#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"

namespace kspot::fault {

/// What one ChurnEngine::BeginEpoch application changed.
struct ChurnReport {
  size_t crashes = 0;          ///< Scheduled crash events applied.
  size_t recoveries = 0;       ///< Scheduled recovery events applied.
  size_t battery_deaths = 0;   ///< Nodes found battery-dead since the last call.
  size_t degrade_changes = 0;  ///< Degradation episodes started or ended.
  size_t reattached = 0;       ///< Nodes the tree repair re-parented.
  size_t detached = 0;         ///< Up nodes left without a route after repair.
  /// True when tree membership changed: algorithms must evict state keyed on
  /// the old tree (see EpochAlgorithm::OnTopologyChanged).
  bool topology_changed = false;
  /// Exactly which nodes left the tree and which orphan-subtree roots
  /// re-attached, accumulated across this epoch's repair passes — feed it to
  /// EpochAlgorithm::OnTopologyChanged(delta) so stateful algorithms repair
  /// incrementally.
  sim::TopologyDelta delta;
};

/// Executes a FaultPlan against a live Network / RoutingTree pair: applies
/// the epoch's scheduled crashes, recoveries and degradation episodes (an
/// episode event passes its extra_loss to Network::SetNodeExtraLoss
/// unmodified), folds in battery deaths the energy model produced since the
/// last call, runs the in-network tree repair and charges its join
/// handshakes to the radio (phase "fault.repair"). Drive it once per epoch,
/// before the algorithm's RunEpoch:
///
///   ChurnReport rep = churn.BeginEpoch(e);
///   if (rep.topology_changed) algo->OnTopologyChanged();
///   algo->RunEpoch(e);
///
/// Repair randomness is derived from the plan seed and the epoch alone, so a
/// trial is a pure function of its seed regardless of what ran before.
class ChurnEngine {
 public:
  /// `net` and `tree` must outlive the engine, and `tree` must be the tree
  /// `net` routes on. The engine mutates both.
  ChurnEngine(sim::Network* net, sim::RoutingTree* tree, FaultPlan plan);

  /// Applies everything due at (or before) `epoch`. Epochs must be
  /// non-decreasing across calls.
  ChurnReport BeginEpoch(sim::Epoch epoch);

  /// Number of epochs whose churn actually changed the tree.
  size_t repair_events() const { return repair_events_; }
  /// Join-handshake messages charged across all repairs.
  uint64_t repair_messages() const { return repair_messages_; }
  /// Nodes the repairs re-parented, cumulative.
  size_t total_reattached() const { return total_reattached_; }
  /// Up-but-unroutable nodes after the most recent repair.
  size_t detached_count() const { return last_detached_; }

 private:
  sim::Network* net_;
  sim::RoutingTree* tree_;
  FaultPlan plan_;
  /// Neighbour lookups over the (immutable) topology, built once for every
  /// repair.
  sim::NeighborIndex neighbors_;
  /// Reusable Repair scratch (adoption rounds, frontier, attachment marks).
  sim::RepairWorkspace repair_workspace_;
  size_t next_event_ = 0;
  std::vector<uint8_t> was_alive_;
  size_t repair_events_ = 0;
  uint64_t repair_messages_ = 0;
  size_t total_reattached_ = 0;
  size_t last_detached_ = 0;
};

}  // namespace kspot::fault
