#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/neighbor_index.hpp"
#include "sim/topology.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace kspot::sim {

/// One parent adoption performed by RoutingTree::Repair (the join handshake
/// the fault layer charges to the radio).
struct RepairOp {
  NodeId node = kNoNode;        ///< The re-attaching node.
  NodeId new_parent = kNoNode;  ///< The parent it adopted.
};

/// What one RoutingTree::Repair pass did to the tree.
struct RepairReport {
  /// Parent adoptions in attachment order (round by round).
  std::vector<RepairOp> reattached;
  /// Nodes stripped out of the tree by this pass, with the parent each hung
  /// under before it died (kNoNode when it had none). Consumers use the old
  /// parent to route cardinality retractions toward the sink.
  std::vector<std::pair<NodeId, NodeId>> removed;
  /// Dead nodes stripped out of the tree by this pass.
  size_t dead_removed = 0;
  /// Up nodes left without a path to the sink (physically partitioned).
  size_t detached = 0;
  /// True when any parent edge changed.
  bool changed = false;
};

/// Accumulated tree-membership change set across one or more Repair passes —
/// what stateful algorithms consume to repair their caches incrementally
/// instead of rebuilding from scratch (EpochAlgorithm::OnTopologyChanged).
struct TopologyDelta {
  /// Orphan-subtree roots that adopted a new parent (their intact subtrees
  /// rode along and did NOT change their own edges).
  std::vector<NodeId> reattached;
  /// Nodes stripped out of the tree (death), with their former parent.
  std::vector<std::pair<NodeId, NodeId>> removed;

  bool empty() const { return reattached.empty() && removed.empty(); }
  void Clear() {
    reattached.clear();
    removed.clear();
  }
  void Accumulate(const RepairReport& report) {
    for (const RepairOp& op : report.reattached) reattached.push_back(op.node);
    removed.insert(removed.end(), report.removed.begin(), report.removed.end());
  }
};

/// Reusable scratch buffers for Repair. Callers that repair repeatedly (the
/// ChurnEngine, every epoch under churn) pass one in so the per-round O(n)
/// vector allocations are paid once, not per repair.
struct RepairWorkspace {
  AdoptionRounds rounds;                   ///< Adoption-round scratch.
  std::vector<Adoption> adoptions;         ///< One round's adoptions.
  std::vector<NodeId> candidates;          ///< Nodes currently wanting a parent.
  std::vector<std::vector<NodeId>> kids;   ///< Surviving children lists.
  std::vector<uint8_t> attached;           ///< Reached-from-sink marks.
  std::vector<NodeId> frontier;            ///< Current beaconing set.
  std::vector<NodeId> stack;               ///< DFS scratch.
};

/// One converge-cast cut into lanes that may run at once (UpWave::Run): a
/// frontier of disjoint subtrees, dealt out so every lane holds about the
/// same number of nodes. Nodes above the frontier (the sink included) run on
/// the calling thread after the lanes.
struct WaveSplit {
  /// Per node: 1 + the lane that runs it; 0 above the frontier and for
  /// detached nodes.
  std::vector<uint16_t> lane_of;
  /// Nodes per lane.
  std::vector<uint32_t> lane_size;
  /// The wave order cut into runs of consecutive nodes of one lane (or all
  /// above the frontier): a lane runs its runs in order, and the calling
  /// thread then walks them all.
  struct Run {
    uint32_t begin = 0;  ///< First position in RoutingTree::wave_order().
    uint32_t end = 0;    ///< One past the last.
    uint16_t lane = 0;   ///< 1 + the lane; 0 above the frontier.
  };
  std::vector<Run> runs;
};

/// Sink-rooted routing tree over a topology.
///
/// TinyDB/TAG build this tree with a flooded query beacon: each node adopts
/// the first neighbor it hears the beacon from as its parent ("first-heard-
/// from"). `BuildFirstHeard` reproduces that: a BFS from the sink where the
/// arrival order of same-depth beacons is randomized by `rng`.
class RoutingTree {
 public:
  RoutingTree() = default;

  /// Builds the first-heard-from tree over `topology`'s disc graph.
  /// The topology must be connected.
  static RoutingTree BuildFirstHeard(const Topology& topology, util::Rng& rng);

  /// Builds a *cluster-aware* first-heard tree: joining nodes prefer a parent
  /// from their own room when one is in range, so rooms form contiguous
  /// subtrees and GROUP BY groups close low in the hierarchy. This is the
  /// tree the KSpot server builds when the Configuration Panel has told it
  /// which nodes share a physical region (Section II) — the property MINT's
  /// in-network view hierarchy exploits.
  static RoutingTree BuildClusterAware(const Topology& topology, util::Rng& rng);

  /// Builds a tree from an explicit parent vector (parents[sink] == kNoNode).
  static RoutingTree FromParents(std::vector<NodeId> parents);

  /// In-network tree repair after node churn. Strips nodes where `is_up` is
  /// false out of the tree; their orphaned subtrees then re-attach with the
  /// same first-heard-from discipline the tree was built with: round by
  /// round, every attached node beacons, and a detached node that hears one
  /// or more beacons adopts a same-room broadcaster when it heard one
  /// (preserving cluster-awareness) and the first-heard one otherwise. A
  /// re-attaching node brings its intact subtree along, so deep orphan
  /// subtrees keep their shape. Up nodes with no physical path to the
  /// attached component stay detached (parent == kNoNode) and are excluded
  /// from pre/post order until a later repair reconnects them. The sink must
  /// be up. `index` covers the topology the tree was built over; callers
  /// that repair repeatedly keep one index and pass a reusable `workspace`.
  /// Deterministic given `rng`.
  RepairReport Repair(const NeighborIndex& index, const std::function<bool(NodeId)>& is_up,
                      util::Rng& rng, RepairWorkspace* workspace = nullptr);

  /// Parent of `id`; kNoNode for the sink.
  NodeId parent(NodeId id) const { return parents_[id]; }

  /// True when `id` currently has a parent chain reaching the sink. Always
  /// true for the sink; false for nodes stranded by churn until repaired.
  bool attached(NodeId id) const { return attached_[id] != 0; }

  /// Number of attached nodes (== pre_order().size()).
  size_t AttachedCount() const { return pre_order_.size(); }

  /// Children of `id`, ascending.
  const std::vector<NodeId>& children(NodeId id) const { return children_[id]; }

  /// Hop distance from the sink.
  int depth(NodeId id) const { return depths_[id]; }

  /// Maximum depth over all nodes (tree height).
  int max_depth() const { return max_depth_; }

  /// Number of nodes.
  size_t num_nodes() const { return parents_.size(); }

  /// Nodes in post order (every node after all of its children): the order in
  /// which the TAG epoch schedule fires transmissions, leaves first.
  const std::vector<NodeId>& post_order() const { return post_order_; }

  /// Nodes in pre order (sink first): dissemination order.
  const std::vector<NodeId>& pre_order() const { return pre_order_; }

  /// Nodes in TAG slot-schedule transmission order: depth descending (the
  /// deepest slot fires first), ties in the post-order position the epoch
  /// scheduler enumerates. This is exactly the (time, sequence) execution
  /// order the event queue produced when every transmission was an event, so
  /// converge-casts that walk it directly consume randomness in the same
  /// order and stay bit-identical — without a heap push/pop and a
  /// std::function allocation per node per epoch.
  const std::vector<NodeId>& wave_order() const { return wave_order_; }

  /// Number of nodes in the subtree rooted at `id` (including itself).
  size_t SubtreeSize(NodeId id) const;

  /// The wave split over `lanes` lanes (>= 1): starting from the sink's
  /// subtrees, the largest subtree is split into its children until a
  /// longest-first deal of the subtrees puts no lane more than 1/16 above an
  /// even share, or 1/16 of the nodes sit above the frontier. Computed on
  /// first use and cached until the tree changes; callers on several threads
  /// must serialize (UpWave calls it holding the pool it splits on). The
  /// returned split stays valid after the cache moves on.
  std::shared_ptr<const WaveSplit> SplitWave(size_t lanes) const;

 private:
  std::vector<NodeId> parents_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<int> depths_;
  std::vector<NodeId> post_order_;
  std::vector<NodeId> pre_order_;
  std::vector<NodeId> wave_order_;
  std::vector<uint8_t> attached_;
  int max_depth_ = 0;
  /// SplitWave's cache (shared by copies, which have the same shape).
  mutable std::shared_ptr<const WaveSplit> wave_split_;

  void FinishConstruction();
};

}  // namespace kspot::sim
