#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/types.hpp"

namespace kspot::sim {

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
template <typename Msg>
class UpWave {
 public:
  /// Reusable per-wave state. One workspace serves any number of sequential
  /// Run calls; buffers keep their capacity across epochs.
  struct Workspace {
    std::vector<std::vector<Msg>> inbox;
  };

  /// Produce is called once per alive node in slot-schedule order with the
  /// messages that arrived from its children (losses already applied).
  /// Returning nullopt suppresses the node's transmission entirely (zero
  /// cost). WireBytes maps a message to its application payload size.
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
    for (NodeId node : tree.wave_order()) {
      // Epoch deadline: nodes beyond the slot budget are cut from the wave
      // (their subtree data never reaches the sink; the epoch is degraded).
      if (depth_cap > 0 && static_cast<size_t>(tree.depth(node)) > depth_cap) {
        ws.inbox[node].clear();
        continue;
      }
      if (!net.NodeAlive(node)) {
        ws.inbox[node].clear();
        continue;
      }
      std::optional<Msg> out = produce(node, std::move(ws.inbox[node]));
      ws.inbox[node].clear();
      if (node == kSinkId) {
        sink_result = std::move(out);
        continue;
      }
      if (!out.has_value()) continue;
      size_t bytes = wire_bytes(*out);
      if (net.UnicastToParent(node, bytes)) {
        ws.inbox[tree.parent(node)].push_back(std::move(*out));
      }
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
