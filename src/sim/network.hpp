#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/energy_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/radio_model.hpp"
#include "sim/routing_tree.hpp"
#include "sim/shard_state.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace kspot::sim {

/// The end-to-end reliability & graceful-degradation layer (everything off
/// by default — a default-constructed struct leaves the network bit-identical
/// to a build without it). When enabled, unicast sends replace the flat
/// `max_retries` ARQ loop with an adaptive per-link policy: an EWMA
/// link-quality estimator (ShardState::link_est) schedules just enough
/// attempts to push the residual per-message loss under `residual_target`,
/// retries wait out an exponential backoff charged as idle-listen energy,
/// and a per-node per-epoch retry budget bounds the worst-case spend.
/// `wave_depth_budget` adds epoch deadlines: converge-cast/dissemination
/// waves truncate at that slot depth and the epoch is marked degraded.
struct ReliabilityOptions {
  /// Master switch. Off: the flat NetworkOptions::max_retries loop runs and
  /// nothing below is consulted (byte-identical to the pre-layer network).
  bool enabled = false;
  /// Hard cap on retransmissions per message (the adaptive policy picks a
  /// count in [0, max_retries] from the link estimate).
  int max_retries = 3;
  /// Retransmissions one node may spend per epoch; 0 = unlimited. Refilled
  /// by Network::BeginReliabilityEpoch.
  uint32_t retry_budget = 64;
  /// EWMA smoothing factor of the per-link loss estimator.
  double ewma_alpha = 0.25;
  /// Target residual per-message loss: attempts A are chosen as the smallest
  /// count with ewma^A <= residual_target (capped by max_retries). The
  /// estimate is floored at the loss model's own message-level loss, so the
  /// EWMA only ever adapts the policy *upward* from the modeled link.
  double residual_target = 0.05;
  /// First-retry backoff; doubles per further retry up to backoff_cap_us.
  uint64_t backoff_base_us = 500;
  uint64_t backoff_cap_us = 8000;
  /// Epoch deadline as a slot-depth budget: nodes deeper than this many
  /// slots are cut from waves (the epoch degrades gracefully instead of
  /// overrunning). 0 = no deadline.
  int wave_depth_budget = 0;
};

/// Configuration for the simulated radio network.
struct NetworkOptions {
  /// Baseline per-frame loss probability on unicast and broadcast links.
  double loss_prob = 0.0;
  /// Adds distance-dependent loss on top of the baseline: links beyond
  /// `edge_onset` of the radio range degrade quadratically up to
  /// `edge_max_loss` at full range — the gray-zone behaviour of real CC1000
  /// links. Off (0) keeps the i.i.d. disc model.
  double edge_max_loss = 0.0;
  /// Fraction of the range where degradation starts (when edge_max_loss>0).
  double edge_onset = 0.7;
  /// Link-layer retransmissions per unicast message (TinyOS-style ARQ).
  int max_retries = 0;
  /// Per-node battery budget, joules; <= 0 means unlimited.
  double battery_j = 0.0;
  /// Radio cost model.
  RadioModel radio;
  /// Energy cost model.
  EnergyModel energy;
  /// Adaptive retry/backoff, epoch deadlines and completeness accounting;
  /// disabled by default (and then bit-inert).
  ReliabilityOptions reliability;
};

/// The simulated radio network: delivers messages along the routing tree,
/// charges energy to both endpoints, applies losses, and maintains the
/// traffic counters (globally and attributed to named protocol phases).
///
/// All per-epoch mutable state lives in one value-type ShardState, so a
/// Network is freely copyable: copies evolve independently.
class Network {
 public:
  /// `topology` and `tree` must outlive the network.
  Network(const Topology* topology, const RoutingTree* tree, NetworkOptions options,
          util::Rng rng);

  /// Sends `payload_bytes` from `child` to its parent, applying loss and up
  /// to `max_retries` retransmissions. Every attempt is charged to the
  /// sender; receive energy only on delivered attempts. Returns true when
  /// the message was delivered (false also when either endpoint is dead).
  bool UnicastToParent(NodeId child, size_t payload_bytes);

  /// Broadcasts `payload_bytes` from `node`: one transmission, every alive
  /// child listens; loss is independent per child. Returns the children that
  /// received the message.
  std::vector<NodeId> BroadcastToChildren(NodeId node, size_t payload_bytes);

  /// Relays a message hop-by-hop from `from` up to the sink (FILA reports).
  /// Each hop is a unicast with loss/retries; returns true when the sink
  /// received it.
  bool UnicastUpPath(NodeId from, size_t payload_bytes);

  /// Relays a message hop-by-hop from the sink down to `target` (FILA filter
  /// updates). Returns true when `target` received it.
  bool UnicastDownPath(NodeId target, size_t payload_bytes);

  /// Interns a phase label into its process-global id. Thread-safe; cache
  /// the result (hot paths keep a file-local `const PhaseId` per literal).
  static PhaseId InternPhase(std::string_view name);
  /// The label of an interned phase id.
  static const std::string& PhaseName(PhaseId id);

  /// Attributes subsequent traffic to an interned protocol phase. The hot
  /// path: an integer compare when the phase is unchanged, an array index
  /// when it switches.
  void SetPhase(PhaseId id);
  /// Attributes subsequent traffic to a named protocol phase
  /// (e.g. "mint.update", "tja.lb"). Cheap when the phase is unchanged;
  /// interns the label otherwise.
  void SetPhase(const std::string& phase);
  /// The current phase label.
  const std::string& phase() const { return *phase_name_; }
  /// The current phase id.
  PhaseId phase_id() const { return phase_id_; }

  /// Grand-total counters.
  const TrafficCounters& total() const { return state_.total; }
  /// Counters attributed to `phase` (zeroes if the phase never sent).
  TrafficCounters PhaseTotal(const std::string& phase) const;
  /// Counters attributed to the interned phase `id`.
  TrafficCounters PhaseTotal(PhaseId id) const;
  /// All phases this network attributed traffic to, with their counters
  /// (materialized from the interned-id array, keyed and ordered by label).
  std::map<std::string, TrafficCounters> by_phase() const;

  /// Per-node energy ledger.
  EnergyMeter& meter(NodeId id) { return state_.meters[id]; }
  const EnergyMeter& meter(NodeId id) const { return state_.meters[id]; }

  /// Administrative up/down control (crash-fault injection). A node taken
  /// down neither sends nor receives until brought back up; its battery
  /// ledger is untouched, so crash and battery death stay distinguishable.
  void SetNodeUp(NodeId id, bool up) { state_.up[id] = up ? 1 : 0; }
  /// True unless the node was administratively taken down.
  bool NodeUp(NodeId id) const { return state_.up[id] != 0; }

  /// Extra per-frame loss applied to every link touching `id` (link-quality
  /// degradation episodes); compounds with the baseline loss model.
  void SetNodeExtraLoss(NodeId id, double extra_loss) { state_.extra_loss[id] = extra_loss; }
  /// The degradation episode loss currently in force at `id` (0 = none).
  double NodeExtraLoss(NodeId id) const { return state_.extra_loss[id]; }

  /// True while `id` is administratively up and has battery left.
  bool NodeAlive(NodeId id) const { return state_.up[id] != 0 && state_.meters[id].alive(); }
  /// Number of alive nodes.
  size_t AliveCount() const;

  /// Charges one delivered control message from `from` to `to` (tree-repair
  /// join handshakes). Repair control traffic rides link-layer ARQ until it
  /// gets through, so it is charged at nominal cost without a loss draw —
  /// the repaired tree and the counters stay in lockstep. Both endpoints
  /// must be alive.
  void DeliverControl(NodeId from, NodeId to, size_t payload_bytes);

  /// Messages transmitted by each node (for hotspot analysis near the sink).
  uint64_t MessagesSentBy(NodeId id) const { return state_.sent_by[id]; }

  /// Charges local flash I/O performed by `node` into its energy ledger and
  /// folds the operation/byte counts into the traffic counters (grand total
  /// and current phase). Storage I/O is radio-silent: no frames, no airtime,
  /// no clock movement. Plain scalars keep sim/ independent of storage/; the
  /// caller snapshots storage::IoCounters deltas.
  void ChargeStorageIo(NodeId node, uint64_t reads, uint64_t writes, uint64_t bytes,
                       double energy_j);

  /// The event queue that sequences transmissions.
  EventQueue& events() { return events_; }
  /// Topology under simulation.
  const Topology& topology() const { return *topology_; }
  /// Routing tree under simulation.
  const RoutingTree& tree() const { return *tree_; }
  /// Radio model in use.
  const RadioModel& radio() const { return options_.radio; }
  /// Network options in use.
  const NetworkOptions& options() const { return options_; }
  /// Loss / fading RNG (exposed for tests).
  util::Rng& rng() { return rng_; }

  /// Per-frame loss probability of the link `from -> to` under the options'
  /// loss model (baseline + distance-dependent gray zone + degradation
  /// episodes at either endpoint), clamped to [0, 1].
  double LinkLossProb(NodeId from, NodeId to) const;

  // ------------------------------------------------------ reliability layer

  /// Opens a reliability epoch: refills every node's retry budget and clears
  /// the degraded flag / truncation count. Call once per epoch before the
  /// waves when ReliabilityOptions::enabled; a no-op worth skipping when it
  /// is off. The constructor runs it once so standalone single-epoch use
  /// starts with full budgets.
  void BeginReliabilityEpoch();
  /// True when a wave deadline truncated this epoch.
  bool EpochDegraded() const { return state_.epoch_degraded != 0; }
  /// Alive wave-order nodes deadlines cut this epoch.
  uint32_t TruncatedNodes() const { return state_.truncated_nodes; }
  /// Marks the epoch degraded, attributing `truncated` cut nodes.
  void MarkEpochDegraded(uint32_t truncated);
  /// Counts the alive wave-order nodes deeper than `depth_cap` slots — the
  /// nodes an UpWave under that deadline cuts — and marks the epoch degraded
  /// when any exist. Returns the count.
  uint32_t ApplyWaveDepthBudget(int depth_cap);
  /// Alive, tree-attached sensors (sink excluded): the population a complete
  /// epoch answer should have heard from — the denominator of
  /// TopKResult::completeness. Pure read.
  size_t AliveAttachedSensors() const;

 private:
  const Topology* topology_;
  const RoutingTree* tree_;
  NetworkOptions options_;
  util::Rng rng_;
  EventQueue events_;
  /// Every mutable per-epoch ledger, owned as one value (see ShardState).
  ShardState state_;
  PhaseId phase_id_ = 0;
  /// Label of the current phase (registry storage is pointer-stable), so the
  /// string SetPhase overload's unchanged-phase fast path needs no lock.
  /// nullptr only before the constructor's initial SetPhase.
  const std::string* phase_name_ = nullptr;

  void ChargeTx(NodeId sender, size_t payload_bytes, TrafficCounters& counters);
  /// Adaptive-ARQ unicast core (ReliabilityOptions::enabled): EWMA-scheduled
  /// attempts, exponential backoff charged as idle listening, per-epoch
  /// retry budget. `link_slot` is the child endpoint of the link (its
  /// LinkEstimator slot).
  bool ReliableUnicast(NodeId sender, NodeId receiver, NodeId link_slot, size_t payload_bytes,
                       TrafficCounters& delta);
  /// Attempts the adaptive policy schedules for a link estimated at
  /// `ewma_loss`: the smallest A with ewma^A <= residual_target, in
  /// [1, reliability.max_retries + 1]. Deterministic.
  int PlannedAttempts(double ewma_loss) const;
};

}  // namespace kspot::sim
