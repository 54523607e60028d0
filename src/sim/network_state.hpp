#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/energy_model.hpp"
#include "sim/types.hpp"

namespace kspot::sim {

/// Aggregated traffic counters. These are exactly the numbers the KSpot
/// System Panel projects at the demo: message count, frame (packet) count,
/// application bytes, on-air bytes and radio energy.
struct TrafficCounters {
  uint64_t messages = 0;      ///< Logical messages sent (suppressed sends cost nothing).
  uint64_t frames = 0;        ///< TinyOS frames after fragmentation.
  uint64_t payload_bytes = 0; ///< Application payload bytes.
  uint64_t onair_bytes = 0;   ///< Bytes on the air incl. headers + preambles.
  uint64_t retries = 0;       ///< Adaptive-ARQ retransmissions (reliability layer).
  uint64_t backoff_us = 0;    ///< Idle-listen backoff time spent before retries.
  double tx_energy_j = 0.0;   ///< Sender-side radio energy, joules.
  double rx_energy_j = 0.0;   ///< Receiver-side radio energy, joules.

  /// Element-wise accumulate.
  void Add(const TrafficCounters& other);
  /// Accumulates the integer fields only (a charge ledger replays the energy
  /// fields from its journal, in charge order).
  void AddCounts(const TrafficCounters& other);
  /// Element-wise difference (this - other); counters must be monotone.
  TrafficCounters Since(const TrafficCounters& earlier) const;
  /// Total radio energy charged.
  double energy_j() const { return tx_energy_j + rx_energy_j; }
};

/// Interned identifier of a protocol-phase label ("mint.update", "tja.lb").
/// Ids are process-global: the same label always interns to the same id, so
/// algorithms cache the id of their string literals once and per-epoch phase
/// switches are an integer compare plus an array index instead of a
/// string-keyed map lookup.
using PhaseId = uint32_t;

/// One node's EWMA estimate of its current tree link's per-frame loss
/// (reliability layer). The slot is indexed by the *child* endpoint of the
/// link regardless of transfer direction — LinkLossProb is symmetric, so up
/// and down traffic share one estimate — and `to` records the other endpoint
/// so a churn re-parenting resets the estimate instead of inheriting a stale
/// one.
struct LinkEstimator {
  NodeId to = kNoNode;  ///< Other endpoint the estimate refers to.
  double ewma = 0.0;    ///< EWMA per-frame loss; seeded from the loss model.
};

/// Everything a Network mutates while an epoch runs, extracted into one
/// plain value type: the per-node battery/energy ledger, the admin up flags
/// and degradation episodes, the delivered-message accounting, the interned
/// per-phase counter arrays and the reliability layer's per-link state.
/// Owning this as a value (rather than as loose members with a cached
/// interior pointer) is what makes Network copyable with defaulted copy
/// operations.
struct NetworkState {
  /// Per-node energy ledger (battery budget included).
  std::vector<EnergyMeter> meters;
  /// 1 unless the node was administratively taken down (crash injection).
  std::vector<uint8_t> up;
  /// Extra per-frame loss in force at each node (degradation episodes).
  std::vector<double> extra_loss;
  /// Messages transmitted by each node (hotspot accounting).
  std::vector<uint64_t> sent_by;
  /// Grand-total counters.
  TrafficCounters total;
  /// Per-phase counters indexed by PhaseId; slots are allocated lazily the
  /// first time SetPhase selects the id. `phase_touched` marks slots this
  /// network actually selected (so by_phase() reports exactly the phases the
  /// run visited, zero-traffic ones included).
  std::vector<TrafficCounters> by_phase;
  std::vector<uint8_t> phase_touched;
  /// Per-child-endpoint link-quality estimators (reliability layer). Sized
  /// always, consulted only when ReliabilityOptions::enabled.
  std::vector<LinkEstimator> link_est;
  /// Retransmissions each node may still spend this epoch; refilled by
  /// Network::BeginReliabilityEpoch. Zero everywhere while reliability is
  /// off (the adaptive path is never entered).
  std::vector<uint32_t> retry_budget_left;
  /// 1 when a wave deadline truncated this epoch (graceful degradation).
  /// Cleared by BeginReliabilityEpoch.
  uint8_t epoch_degraded = 0;
  /// Alive wave-order nodes the deadline cut this epoch, cumulative.
  uint32_t truncated_nodes = 0;

  /// Sizes the per-node arrays for `num_nodes` nodes with fresh batteries.
  void Reset(size_t num_nodes, double battery_j);
};

}  // namespace kspot::sim
