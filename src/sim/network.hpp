#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/energy_model.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace kspot::util {
struct SharedTaskPool;
}  // namespace kspot::util

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

/// Simulated time of one network. Transmissions advance it monotonically;
/// wave schedules that replay a per-slot frontier (sim::DownWave) also set
/// it exactly, backwards included.
class Clock {
 public:
  /// Current simulated time.
  TimeUs now() const { return now_; }
  /// Moves the clock to `t` if that is later; never moves it back.
  void AdvanceTo(TimeUs t) {
    if (t > now_) now_ = t;
  }
  /// Sets the clock to `t` exactly, backwards included.
  void JumpTo(TimeUs t) { now_ = t; }

 private:
  TimeUs now_ = 0;
};

class Network;

/// One writer's share of a network's charge-side state while several writers
/// step on the network at once (see Network::LedgerScope): its own clock,
/// current phase and integer counters, and a journal of every per-node
/// energy charge in the order it was made. Network::Replay adds the ledger
/// to the shared state, so every per-node energy sum and every counter sees
/// exactly the additions a run without the ledger makes. Clock moves are
/// relative (waves schedule from now()), so the ledger's clock starts at 0
/// and its final reading is the span to add.
class ChargeLedger {
 public:
  /// Empties the journal and rewinds the clock and phase. The journal keeps
  /// its capacity and grows here to hold `expected_charges` exactly, so a
  /// writer on another thread rarely has to grow it: growing it there would
  /// leave the buffer in that thread's allocator arena.
  void Clear(size_t expected_charges);

  /// The journal position after everything charged so far: a booking
  /// boundary, where Network::ReplayBookings may stop.
  size_t mark() const { return words_.size(); }

  /// A read position in the journal, advanced by Network::ReplayBookings.
  class Cursor {
   private:
    friend class Network;
    size_t word_ = 0;
    size_t joule_ = 0;
    PhaseId phase_ = kInheritedPhase;
  };

 private:
  friend class Network;

  // A journal word holds a kind in its top two bits, an end-of-booking flag
  // and a node or phase id. Every charge has one word and one entry in
  // `joules_`; a booking (one delta added to the total and the current
  // phase) is the flag on its last charge, because a delta's energy is the
  // in-order sum of its charges (the network builds every delta that way).
  // A phase word records a SetPhase.
  static constexpr uint32_t kTx = 0u << 30;
  static constexpr uint32_t kRx = 1u << 30;
  static constexpr uint32_t kPhase = 2u << 30;
  static constexpr uint32_t kKindMask = 3u << 30;
  static constexpr uint32_t kEndsBooking = 1u << 29;
  static constexpr uint32_t kIdMask = kEndsBooking - 1;
  /// The phase of traffic charged before the writer's first SetPhase: it
  /// belongs to whatever phase the shared network is in at replay.
  static constexpr PhaseId kInheritedPhase = kIdMask;

  void Charge(uint32_t kind, NodeId node, double joules) {
    words_.push_back(kind | node);
    joules_.push_back(joules);
  }

  const Network* net_ = nullptr;  ///< The network a scope bound this ledger to.
  Clock clock_;
  PhaseId phase_ = kInheritedPhase;
  std::vector<uint32_t> words_;
  std::vector<double> joules_;
  /// words_.size() at the last booking or phase word.
  size_t booked_ = 0;
  /// Integer counters per phase (energy fields unused); they commute, so
  /// they are summed here and added once at replay.
  std::vector<TrafficCounters> phase_counts_;
  std::vector<uint8_t> phase_touched_;
  TrafficCounters inherited_counts_;
};

/// The end-to-end reliability & graceful-degradation layer (everything off
/// by default — a default-constructed struct leaves the network bit-identical
/// to a build without it). When enabled, unicast sends replace the flat
/// ARQ loop with an adaptive per-link policy: an EWMA link-quality estimator
/// (one LinkEstimator per link) schedules just enough attempts to push the
/// residual per-message loss under `residual_target`, at most
/// NetworkOptions::max_retries + 1 of them; retries wait out an exponential
/// backoff charged as idle-listen energy, and a per-node per-epoch retry
/// budget bounds the worst-case spend. `wave_depth_budget` adds epoch
/// deadlines: converge-cast/dissemination waves truncate at that slot depth
/// and the epoch is marked degraded.
struct ReliabilityOptions {
  /// Master switch. Off: the flat NetworkOptions::max_retries loop runs and
  /// nothing below is consulted (byte-identical to the pre-layer network).
  bool enabled = false;
  /// Retransmissions one node may spend per epoch; 0 = unlimited. Refilled
  /// by Network::BeginReliabilityEpoch.
  uint32_t retry_budget = 64;
  /// Target residual per-message loss: attempts A are chosen as the smallest
  /// count with ewma^A <= residual_target (capped at max_retries + 1). The
  /// estimate is floored at the loss model's own message-level loss, so the
  /// EWMA only ever adapts the policy *upward* from the modeled link.
  double residual_target = 0.05;
  /// Epoch deadline as a slot-depth budget: nodes deeper than this many
  /// slots are cut from waves (the epoch degrades gracefully instead of
  /// overrunning). 0 = no deadline.
  int wave_depth_budget = 0;
};

/// Configuration for the simulated radio network.
struct NetworkOptions {
  /// Baseline per-frame loss probability on unicast and broadcast links.
  double loss_prob = 0.0;
  /// Adds distance-dependent loss on top of the baseline: links beyond 0.7
  /// of the radio range degrade quadratically up to `edge_max_loss` at full
  /// range — the gray-zone behaviour of real CC1000 links. Off (0) keeps the
  /// i.i.d. disc model.
  double edge_max_loss = 0.0;
  /// Link-layer retransmissions per unicast message (TinyOS-style ARQ): the
  /// flat loop's count, and the adaptive policy's cap when
  /// reliability.enabled.
  int max_retries = 0;
  /// Per-node battery budget, joules; <= 0 means unlimited.
  double battery_j = 0.0;
  /// Adaptive retry/backoff, epoch deadlines and completeness accounting;
  /// disabled by default (and then bit-inert).
  ReliabilityOptions reliability;
};

/// The simulated radio network: delivers messages along the routing tree,
/// charges radio energy to both endpoints under the fixed MICA2 models
/// (RadioModel, EnergyModel), applies losses, and maintains the traffic
/// counters (globally and attributed to named protocol phases).
///
/// A Network is freely copyable: copies evolve independently.
///
/// Several threads may step on one network at once when each binds its own
/// ChargeLedger with a LedgerScope and the network CanJournalCharges(): their
/// charges land in their ledgers, the shared state is only read, and Replay
/// adds each ledger in a fixed order afterwards (or ReplayBookings, booking
/// by booking, in any interleaving the caller needs).
class Network {
 public:
  /// Diverts every charge the calling thread makes on `net` — energy, send
  /// counts, traffic counters, phase switches and clock moves — into
  /// `ledger` for the scope's lifetime. One scope per thread at a time.
  class LedgerScope {
   public:
    LedgerScope(const Network& net, ChargeLedger* ledger);
    ~LedgerScope();
    LedgerScope(const LedgerScope&) = delete;
    LedgerScope& operator=(const LedgerScope&) = delete;
  };

  /// Lets the converge-casts the calling thread runs on `net` split across
  /// `pool` for the scope's lifetime (UpWave::Run decides per wave; see
  /// BoundPool). A null `pool` binds nothing. One scope per thread at a time.
  class PoolScope {
   public:
    PoolScope(const Network& net, util::SharedTaskPool* pool);
    ~PoolScope();
    PoolScope(const PoolScope&) = delete;
    PoolScope& operator=(const PoolScope&) = delete;
  };

  /// `topology` and `tree` must outlive the network. Aborts with a message
  /// when `options.loss_prob` or `options.edge_max_loss` is NaN or outside
  /// [0, 1], or `options.max_retries` is negative.
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
  /// The current phase label (the calling thread's ledger's, when bound).
  const std::string& phase() const;
  /// The current phase id (the calling thread's ledger's, when bound).
  PhaseId phase_id() const;

  /// Grand-total counters. A thread bound to a ledger still reads the shared
  /// total, which its charges reach only at Replay.
  const TrafficCounters& total() const { return total_; }
  /// Counters attributed to `phase` (zeroes if the phase never sent).
  TrafficCounters PhaseTotal(const std::string& phase) const;
  /// Counters attributed to the interned phase `id`.
  TrafficCounters PhaseTotal(PhaseId id) const;
  /// All phases this network attributed traffic to, with their counters
  /// (materialized from the interned-id array, keyed and ordered by label).
  std::map<std::string, TrafficCounters> by_phase() const;

  /// Per-node energy ledger.
  EnergyMeter& meter(NodeId id) { return meters_[id]; }
  const EnergyMeter& meter(NodeId id) const { return meters_[id]; }

  /// Administrative up/down control (crash-fault injection). A node taken
  /// down neither sends nor receives until brought back up; its battery
  /// ledger is untouched, so crash and battery death stay distinguishable.
  void SetNodeUp(NodeId id, bool up) { up_[id] = up ? 1 : 0; }
  /// True unless the node was administratively taken down.
  bool NodeUp(NodeId id) const { return up_[id] != 0; }

  /// Extra per-frame loss applied to every link touching `id` (link-quality
  /// degradation episodes); compounds with the baseline loss model.
  void SetNodeExtraLoss(NodeId id, double extra_loss) { extra_loss_[id] = extra_loss; }
  /// The degradation episode loss currently in force at `id` (0 = none).
  double NodeExtraLoss(NodeId id) const { return extra_loss_[id]; }

  /// True while `id` is administratively up and has battery left. With
  /// unlimited batteries no meter can die, so the meters are not read (a
  /// split wave's lanes check liveness while the calling thread's replay
  /// writes the meters).
  bool NodeAlive(NodeId id) const {
    return up_[id] != 0 && (options_.battery_j <= 0.0 || meters_[id].alive());
  }
  /// Number of alive nodes.
  size_t AliveCount() const;

  /// Charges one delivered control message from `from` to `to` (tree-repair
  /// join handshakes). Repair control traffic rides link-layer ARQ until it
  /// gets through, so it is charged at nominal cost without a loss draw —
  /// the repaired tree and the counters stay in lockstep. Both endpoints
  /// must be alive.
  void DeliverControl(NodeId from, NodeId to, size_t payload_bytes);

  /// Messages transmitted by each node (for hotspot analysis near the sink).
  uint64_t MessagesSentBy(NodeId id) const { return sent_by_[id]; }

  /// The simulated clock transmissions advance (the calling thread's
  /// ledger's, when bound).
  Clock& events();
  const Clock& events() const;
  /// Topology under simulation.
  const Topology& topology() const { return *topology_; }
  /// Routing tree under simulation.
  const RoutingTree& tree() const { return *tree_; }
  /// Network options in use.
  const NetworkOptions& options() const { return options_; }
  /// Loss / fading RNG (exposed for tests).
  util::Rng& rng() { return rng_; }

  /// Per-frame loss probability of the link `from -> to` under the options'
  /// loss model (baseline + distance-dependent gray zone + degradation
  /// episodes at either endpoint), clamped to [0, 1].
  double LinkLossProb(NodeId from, NodeId to) const;

  // ------------------------------------------------------- charge ledgers

  /// True when charges commute with one another: no send draws randomness
  /// (loss_prob and edge_max_loss are 0), the reliability layer is off, and
  /// batteries are unlimited, so no send can kill a node. Ledgers may then
  /// be filled concurrently and replayed later without changing a result,
  /// provided no node's up flag or degradation episode changes meanwhile.
  bool CanJournalCharges() const;
  /// Adds `ledger` to the shared state as if its charges had been made here
  /// directly, in order: per-node energy and send counts, the total and the
  /// per-phase counters, the clock (advanced by the ledger's span) and the
  /// current phase. The ledger is left as it was.
  void Replay(const ChargeLedger& ledger);
  /// The booking-by-booking half of Replay: adds the bookings `ledger`
  /// journaled from `at` up to the journal position `until` (a
  /// ChargeLedger::mark()) — per-node energy and send counts, and each
  /// booking's energy in the total and its phase — and moves `at` there.
  /// Traffic charged before the ledger's first SetPhase goes to this
  /// network's current phase.
  void ReplayBookings(const ChargeLedger& ledger, ChargeLedger::Cursor& at, size_t until);
  /// The other half: the ledger's integer counters (they commute, so they
  /// are added at once), its clock span and its last phase switch.
  /// Replaying a ledger's whole journal through ReplayBookings, in pieces
  /// and interleaved with other charges, and then ReplayCounts adds exactly
  /// what Replay adds.
  void ReplayCounts(const ChargeLedger& ledger);

  /// The pool a PoolScope on the calling thread bound to this network, or
  /// nullptr (also while the thread charges into a ledger).
  util::SharedTaskPool* BoundPool() const;

  // ------------------------------------------------------ reliability layer

  /// Opens a reliability epoch: refills every node's retry budget and clears
  /// the degraded flag / truncation count. Call once per epoch before the
  /// waves when ReliabilityOptions::enabled; a no-op worth skipping when it
  /// is off. A new network starts with full budgets, so standalone
  /// single-epoch use needs no call.
  void BeginReliabilityEpoch();
  /// True when a wave deadline truncated this epoch.
  bool EpochDegraded() const { return epoch_degraded_ != 0; }
  /// Alive wave-order nodes deadlines cut this epoch.
  uint32_t TruncatedNodes() const { return truncated_nodes_; }
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
  Clock clock_;
  /// Per-node energy ledger (battery budget included).
  std::vector<EnergyMeter> meters_;
  /// 1 unless the node was administratively taken down (crash injection).
  std::vector<uint8_t> up_;
  /// Extra per-frame loss in force at each node (degradation episodes).
  std::vector<double> extra_loss_;
  /// Messages transmitted by each node (hotspot accounting).
  std::vector<uint64_t> sent_by_;
  TrafficCounters total_;
  /// Per-phase counters indexed by PhaseId; slots are allocated lazily the
  /// first time SetPhase selects the id. `phase_touched_` marks slots this
  /// network actually selected (so by_phase() reports exactly the phases the
  /// run visited, zero-traffic ones included).
  std::vector<TrafficCounters> by_phase_;
  std::vector<uint8_t> phase_touched_;
  /// One node's EWMA estimate of its current tree link's per-frame loss
  /// (reliability layer). The slot is indexed by the *child* endpoint of the
  /// link regardless of transfer direction — LinkLossProb is symmetric, so
  /// up and down traffic share one estimate — and `to` records the other
  /// endpoint so a churn re-parenting resets the estimate instead of
  /// inheriting a stale one.
  struct LinkEstimator {
    NodeId to = kNoNode;  ///< Other endpoint the estimate refers to.
    double ewma = 0.0;    ///< EWMA per-frame loss; seeded from the loss model.
  };
  /// Per-child-endpoint link-quality estimators. Sized always, consulted
  /// only when ReliabilityOptions::enabled.
  std::vector<LinkEstimator> link_est_;
  /// Retransmissions each node may still spend this epoch; refilled by
  /// BeginReliabilityEpoch.
  std::vector<uint32_t> retry_budget_left_;
  /// 1 when a wave deadline truncated this epoch (graceful degradation).
  uint8_t epoch_degraded_ = 0;
  /// Alive wave-order nodes the deadline cut this epoch, cumulative.
  uint32_t truncated_nodes_ = 0;
  PhaseId phase_id_ = 0;
  /// Label of the current phase (registry storage is pointer-stable), so the
  /// string SetPhase overload's unchanged-phase fast path needs no lock.
  /// nullptr only before the constructor's initial SetPhase.
  const std::string* phase_name_ = nullptr;

  /// What one transmission of a message costs: computed once per send and
  /// handed to every charge of that send.
  struct MessageCost {
    explicit MessageCost(size_t payload_bytes);
    size_t payload_bytes;
    size_t frames;
    size_t onair_bytes;
    double airtime_s;
    TimeUs airtime_us;
    double tx_j;  ///< The sender's energy per attempt.
    double rx_j;  ///< Each listening receiver's energy.
  };

  /// The ledger the calling thread bound to this network, or nullptr.
  ChargeLedger* BoundLedger() const;
  /// Sizes the per-phase arrays for `id` and marks it visited.
  void TouchPhase(PhaseId id);
  /// Per-node energy charges, into the bound ledger or the meters; each also
  /// adds its energy to `delta`, so a delta's energy is the in-order sum of
  /// its charges (what a ledger's replay relies on).
  void ChargeTx(NodeId sender, const MessageCost& cost, TrafficCounters& delta);
  void ChargeRx(NodeId node, double joules, TrafficCounters& delta);
  /// Books one delta into the total and the current phase.
  void Book(const TrafficCounters& delta);
  /// Adaptive-ARQ unicast core (ReliabilityOptions::enabled): EWMA-scheduled
  /// attempts, exponential backoff charged as idle listening, per-epoch
  /// retry budget. `link_slot` is the child endpoint of the link (its
  /// LinkEstimator slot).
  bool ReliableUnicast(NodeId sender, NodeId receiver, NodeId link_slot, const MessageCost& cost,
                       TrafficCounters& delta);
  /// Flat-ARQ unicast core (reliability off): up to max_retries + 1
  /// attempts, each drawing per-frame losses; a sender that dies stops
  /// before its next attempt.
  bool FlatUnicast(NodeId sender, NodeId receiver, const MessageCost& cost,
                   TrafficCounters& delta);
  /// One hop `sender -> receiver` under the active ARQ policy, booked into
  /// the totals, the current phase and the clock.
  bool UnicastHop(NodeId sender, NodeId receiver, NodeId link_slot, const MessageCost& cost);
  /// Attempts the adaptive policy schedules for a link estimated at
  /// `ewma_loss`: the smallest A with ewma^A <= residual_target, in
  /// [1, max_retries + 1]. Deterministic.
  int PlannedAttempts(double ewma_loss) const;
};

}  // namespace kspot::sim
