#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"
#include "sim/types.hpp"
#include "util/task_pool.hpp"

namespace kspot::sim {

/// Lanes a converge-cast the calling thread runs on `net` may split into:
/// the thread count of the pool a Network::PoolScope bound, 1 when none is
/// bound. A lane-aware produce callback (see UpWave::Run) keeps scratch for
/// lanes [0, WaveLanes(net)).
inline size_t WaveLanes(const Network& net) {
  const util::SharedTaskPool* pool = net.BoundPool();
  return pool != nullptr ? pool->pool.thread_count() : 1;
}

/// One converge-cast wave: every node, leaves first, may produce a message
/// for its parent. This is the communication pattern of a TAG epoch, of the
/// MINT update phase, and of the TJA lower-bound / hierarchical-join phases.
///
/// `Msg` is the algorithm's typed payload; the wire size callback maps it to
/// bytes so the network can charge frames/energy faithfully.
///
/// The wave is the simulator's innermost loop, so it is engineered for
/// throughput: the slotted TAG schedule is precomputed on the routing tree
/// (RoutingTree::wave_order() — the exact (time, seq) execution order the
/// event queue used to produce, so randomness is consumed in the same order
/// and results stay bit-identical), the produce/wire callbacks are template
/// parameters (inlined, no std::function indirection), and the per-node
/// inboxes live in a caller-owned Workspace reused across epochs instead of
/// being reallocated per wave.
///
/// **Split waves.** A node's message depends only on its own subtree, so
/// disjoint subtrees can be computed at once. When the calling thread bound
/// a pool to the network (Network::PoolScope), the produce callback is lane
/// aware, the network's charges commute (CanJournalCharges) and the pool is
/// free (try-lock), Run cuts the tree into lanes (RoutingTree::SplitWave):
/// each lane runs its subtrees' nodes in wave order on its own pool thread,
/// charging its own ChargeLedger. After the join the calling thread walks
/// wave_order() as a serial wave would: a lane node's booking is replayed
/// from its lane's ledger (Network::ReplayBookings), a frontier root's
/// message is delivered to its parent's inbox, and a node above the frontier
/// produces and charges directly. Every meter, counter, phase and clock bit
/// therefore comes out in the serial order.
template <typename Msg>
class UpWave {
 public:
  /// One lane of a split wave, on cache lines of its own: each charge
  /// writes its journal's end pointers.
  struct alignas(64) Lane {
    ChargeLedger ledger;
    /// The ledger's mark() after each of the lane's runs (WaveSplit::runs).
    std::vector<uint32_t> marks;
    /// Messages the lane's frontier roots delivered, with the root's
    /// position in the wave order.
    std::vector<std::pair<uint32_t, Msg>> outbox;
  };

  /// Reusable per-wave state. One workspace serves any number of sequential
  /// Run calls; buffers keep their capacity across epochs.
  struct Workspace {
    std::vector<std::vector<Msg>> inbox;
    std::vector<Lane> lanes;  ///< Split waves only.
  };

  /// Produce is called once per alive node in slot-schedule order with the
  /// messages that arrived from its children (losses already applied).
  /// Returning nullopt suppresses the node's transmission entirely (zero
  /// cost). WireBytes maps a message to its application payload size.
  ///
  /// A produce callback that takes a third argument, the lane index
  /// (`produce(node, inbox, lane)`), declares itself lane aware, so the
  /// wave may split: it may then run on several threads at once, each with
  /// its own lane in [0, WaveLanes(net)), and must touch only its node's and
  /// its subtree's state plus the lane's scratch. `wire_bytes` must be a
  /// pure function. A lane-unaware callback always runs serially.
  ///
  /// Runs the wave on `net` using the slotted TAG schedule. Returns the
  /// sink's produced value (nullopt if the sink produced none or is dead).
  template <typename ProduceFn, typename WireFn>
  static std::optional<Msg> Run(Network& net, ProduceFn&& produce, WireFn&& wire_bytes,
                                Workspace* workspace = nullptr) {
    const RoutingTree& tree = net.tree();
    size_t n = tree.num_nodes();
    // Wall-clock span named after the network's current phase ("mint.update",
    // "tag.epoch", ...). Wall-clock only, no-op unless tracing is on.
    obs::ScopedSpan wave_span(
        obs::TracingOn() ? obs::GlobalTracer().NameIdForPhase(net.phase_id(), net.phase()) : 0);
    Workspace local;
    Workspace& ws = workspace != nullptr ? *workspace : local;
    if (ws.inbox.size() != n) ws.inbox.assign(n, {});
    std::optional<Msg> sink_result;
    TimeUs base = net.events().now();
    const size_t depth_cap = WaveDepthCap(net);
    if (depth_cap > 0) net.ApplyWaveDepthBudget(static_cast<int>(depth_cap));
    std::shared_ptr<const WaveSplit> split;
    if constexpr (kLaneAware<ProduceFn>) split = MaybeRunLanes(net, produce, wire_bytes, ws);
    // One node of the serial wave (or above a split wave's frontier).
    auto visit = [&](NodeId node) {
      // Epoch deadline: nodes beyond the slot budget are cut from the wave
      // (their subtree data never reaches the sink; the epoch is degraded).
      if (depth_cap > 0 && static_cast<size_t>(tree.depth(node)) > depth_cap) {
        ws.inbox[node].clear();
        return;
      }
      if (!net.NodeAlive(node)) {
        ws.inbox[node].clear();
        return;
      }
      std::optional<Msg> out = Produce(produce, node, std::move(ws.inbox[node]), 0);
      ws.inbox[node].clear();
      if (node == kSinkId) {
        sink_result = std::move(out);
        return;
      }
      if (!out.has_value()) return;
      size_t bytes = wire_bytes(*out);
      if (net.UnicastToParent(node, bytes)) ws.inbox[tree.parent(node)].push_back(std::move(*out));
    };
    const std::vector<NodeId>& order = tree.wave_order();
    if (split == nullptr) {
      for (NodeId node : order) visit(node);
    } else {
      // The lanes joined: walk the runs in wave order, replaying each lane
      // run's bookings and delivering its frontier roots' messages, and
      // visiting the nodes above the frontier.
      obs::ScopedSpan replay_span(ReplaySpan());
      const size_t lanes = split->lane_size.size();
      std::vector<ChargeLedger::Cursor> cursors(lanes);
      std::vector<size_t> replayed(lanes, 0);
      std::vector<size_t> delivered(lanes, 0);
      for (const WaveSplit::Run& run : split->runs) {
        if (run.lane == 0) {
          for (uint32_t pos = run.begin; pos < run.end; ++pos) visit(order[pos]);
          continue;
        }
        const size_t l = run.lane - 1;
        Lane& lane = ws.lanes[l];
        net.ReplayBookings(lane.ledger, cursors[l], lane.marks[replayed[l]++]);
        for (size_t& d = delivered[l]; d < lane.outbox.size() && lane.outbox[d].first < run.end;
             ++d) {
          const NodeId root = order[lane.outbox[d].first];
          ws.inbox[tree.parent(root)].push_back(std::move(lane.outbox[d].second));
        }
      }
      for (size_t l = 0; l < lanes; ++l) net.ReplayCounts(ws.lanes[l].ledger);
    }
    // Clock parity with the event-queue schedule: the last transmission slot
    // belongs to the sink (depth 0, last post-order position). A deadline
    // shortens the wave to its slot budget.
    if (!tree.post_order().empty()) {
      net.events().AdvanceTo(base + WaveSlots(tree, depth_cap) * kSlotUs +
                             static_cast<TimeUs>(tree.post_order().size() - 1));
    }
    return sink_result;
  }

 private:
  template <typename ProduceFn>
  static constexpr bool kLaneAware =
      std::is_invocable_v<ProduceFn&, NodeId, std::vector<Msg>&&, size_t>;

  template <typename ProduceFn>
  static std::optional<Msg> Produce(ProduceFn& produce, NodeId node, std::vector<Msg>&& inbox,
                                    size_t lane) {
    if constexpr (kLaneAware<ProduceFn>) {
      return produce(node, std::move(inbox), lane);
    } else {
      return produce(node, std::move(inbox));
    }
  }

  /// Runs the lanes of a split wave and returns the split, or returns
  /// nullptr having done nothing when the wave may not split.
  template <typename ProduceFn, typename WireFn>
  static std::shared_ptr<const WaveSplit> MaybeRunLanes(Network& net, ProduceFn& produce,
                                                         WireFn& wire_bytes, Workspace& ws) {
    util::SharedTaskPool* shared = net.BoundPool();
    if (shared == nullptr || shared->pool.thread_count() < 2 || !net.CanJournalCharges()) {
      return nullptr;
    }
    std::unique_lock<std::mutex> pool_lock(shared->busy, std::try_to_lock);
    if (!pool_lock.owns_lock()) return nullptr;
    const RoutingTree& tree = net.tree();
    std::shared_ptr<const WaveSplit> shared_split = tree.SplitWave(shared->pool.thread_count());
    const WaveSplit& split = *shared_split;
    const size_t lanes = split.lane_size.size();
    if (ws.lanes.size() < lanes) ws.lanes.resize(lanes);
    for (size_t l = 0; l < lanes; ++l) {
      // A lossless unicast charges the sender and the parent once each.
      ws.lanes[l].ledger.Clear(2 * split.lane_size[l]);
      ws.lanes[l].marks.clear();
      ws.lanes[l].outbox.clear();
    }
    const std::vector<NodeId>& order = tree.wave_order();
    shared->pool.RunPerThread(lanes, [&](size_t l) {
      Lane& lane = ws.lanes[l];
      Network::LedgerScope scope(net, &lane.ledger);
      for (const WaveSplit::Run& run : split.runs) {
        if (run.lane != l + 1) continue;
        for (uint32_t pos = run.begin; pos < run.end; ++pos) {
          const NodeId node = order[pos];
          std::vector<Msg>& in = ws.inbox[node];
          if (net.NodeAlive(node)) {
            std::optional<Msg> out = produce(node, std::move(in), l);
            if (out.has_value() && net.UnicastToParent(node, wire_bytes(*out))) {
              const NodeId parent = tree.parent(node);
              if (split.lane_of[parent] == 0) {
                lane.outbox.emplace_back(pos, std::move(*out));
              } else {
                ws.inbox[parent].push_back(std::move(*out));
              }
            }
          }
          in.clear();
        }
        lane.marks.push_back(static_cast<uint32_t>(lane.ledger.mark()));
      }
    });
    if (obs::MetricsOn()) {
      static obs::Counter& splits = obs::Registry().counter("sim.wave.split");
      splits.Add(1);
    }
    return shared_split;
  }

  /// Span around a split wave's walk on the calling thread: the serial
  /// remainder.
  static uint32_t ReplaySpan() {
    static const uint32_t id = obs::GlobalTracer().InternName("sim.wave.replay");
    return id;
  }

  /// The slot-depth deadline in force, 0 when none (reliability off or no
  /// wave_depth_budget configured).
  static size_t WaveDepthCap(const Network& net) {
    const ReliabilityOptions& rel = net.options().reliability;
    return rel.enabled && rel.wave_depth_budget > 0 ? static_cast<size_t>(rel.wave_depth_budget)
                                                    : 0;
  }

  /// Slots the wave occupies: the tree depth, shortened by any deadline.
  static TimeUs WaveSlots(const RoutingTree& tree, size_t depth_cap) {
    size_t slots = tree.max_depth();
    if (depth_cap > 0 && depth_cap < slots) slots = depth_cap;
    return static_cast<TimeUs>(slots);
  }
};

/// One dissemination wave: the sink seeds a message which flows down the
/// tree; each receiving node may transform it before forwarding to its
/// children. Used for epoch beacons, MINT threshold (tau) dissemination and
/// the TJA Lsink broadcast.
///
/// Like UpWave, the callbacks are template parameters (inlined — no
/// std::function indirection) and the frontier is a flat local heap instead
/// of per-child event-queue entries. The event-queue schedule this replaces
/// popped strictly in (time, seq) order; the frontier keeps exactly that key
/// — reception slot, then scheduling sequence — so the replay is bit-exact
/// for arbitrary per-subtree message sizes (different broadcast airtimes
/// legitimately reorder cousins): same BroadcastToChildren sequence (same
/// loss-rng consumption), same clock trajectory (Clock::JumpTo
/// reproduces the executing-event clock), without a std::function allocation
/// and a Msg copy per delivered child.
template <typename Msg>
class DownWave {
 public:
  /// Runs the wave. `produce` is called on the sink with nullptr to seed the
  /// wave, then on every node that received its parent's message; the
  /// returned message is broadcast to the node's children, nullopt stops the
  /// wave below this node. `wire_bytes` maps a message to its application
  /// payload size. Returns the number of nodes that received a message (the
  /// sink counts as having received the seed).
  template <typename ProduceFn, typename WireFn>
  static size_t Run(Network& net, ProduceFn&& produce, WireFn&& wire_bytes) {
    obs::ScopedSpan wave_span(
        obs::TracingOn() ? obs::GlobalTracer().NameIdForPhase(net.phase_id(), net.phase()) : 0);
    struct Pending {
      TimeUs at;      ///< The slot the reception event would have executed in.
      uint64_t seq;   ///< Scheduling order (the tie-break).
      NodeId node;
      uint32_t msg;   ///< Index into msgs (siblings share the parent's forward).
    };
    struct Later {
      bool operator()(const Pending& a, const Pending& b) const {
        if (a.at != b.at) return a.at > b.at;
        return a.seq > b.seq;
      }
    };
    std::priority_queue<Pending, std::vector<Pending>, Later> frontier;
    std::vector<Msg> msgs;
    size_t reached = 0;
    uint64_t next_seq = 0;
    // Epoch deadline: receptions scheduled past the slot budget are dropped
    // and the epoch is marked degraded. 0 = no deadline.
    const ReliabilityOptions& rel = net.options().reliability;
    const TimeUs deadline =
        rel.enabled && rel.wave_depth_budget > 0
            ? net.events().now() + static_cast<TimeUs>(rel.wave_depth_budget) * kSlotUs
            : 0;
    // The sink's visit runs inline (the old scheme never scheduled it), with
    // a null incoming message.
    NodeId node = kSinkId;
    uint32_t incoming = UINT32_MAX;
    for (;;) {
      if (net.NodeAlive(node)) {
        ++reached;
        std::optional<Msg> forward =
            produce(node, incoming == UINT32_MAX ? nullptr : &msgs[incoming]);
        if (forward.has_value()) {
          size_t bytes = wire_bytes(*forward);
          std::vector<NodeId> delivered = net.BroadcastToChildren(node, bytes);
          if (!delivered.empty()) {
            TimeUs at = net.events().now() + kSlotUs;
            auto msg_index = static_cast<uint32_t>(msgs.size());
            msgs.push_back(std::move(*forward));
            for (NodeId child : delivered) frontier.push({at, next_seq++, child, msg_index});
          }
        }
      }
      if (frontier.empty()) break;
      Pending next = frontier.top();
      frontier.pop();
      if (deadline != 0 && next.at > deadline) {
        // The frontier pops in (time, seq) order, so everything still queued
        // is at least as late: the whole remainder is cut.
        net.MarkEpochDegraded(static_cast<uint32_t>(frontier.size() + 1));
        break;
      }
      // Executing an event pins the clock to the event's own time, even when
      // a sibling's broadcast already advanced past it.
      net.events().JumpTo(next.at);
      node = next.node;
      incoming = next.msg;
    }
    return reached;
  }
};

}  // namespace kspot::sim
