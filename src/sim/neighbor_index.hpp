#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/topology.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace kspot::sim {

/// Radio-neighbour lookups over a topology's disc graph without
/// materializing it. Nodes are bucketed into square cells a little wider
/// than the radio range, so every neighbour of v lies in the 3x3 block of
/// cells around v's cell, and a lookup tests `Distance(v, u) <= comm_range`
/// against that block only. Memory is O(n), where adjacency lists cost
/// O(edges): 35 M entries on a 20000-node grid with ~2000 neighbours each.
class NeighborIndex {
 public:
  /// Pads a block whose 3x3 neighbourhood has fewer than nine non-empty
  /// cells; padding always follows the real cells.
  static constexpr uint32_t kNoCell = UINT32_MAX;

  /// Buckets `topology`'s nodes; the index keeps a pointer to `topology`,
  /// which must outlive it. Aborts on a position that is not finite or too
  /// far out to bucket.
  explicit NeighborIndex(const Topology& topology);

  const Topology& topology() const { return *topology_; }
  size_t num_nodes() const { return cell_of_.size(); }
  /// Number of non-empty cells.
  size_t num_cells() const { return blocks_.size(); }

  /// The cell holding node `v`.
  uint32_t cell(NodeId v) const { return cell_of_[v]; }
  /// The non-empty cells among the 3x3 around `cell`, itself included.
  const std::array<uint32_t, 9>& block(uint32_t cell) const { return blocks_[cell]; }
  /// Nodes of `cell`, ascending.
  const NodeId* cell_begin(uint32_t cell) const { return nodes_.data() + start_[cell]; }
  const NodeId* cell_end(uint32_t cell) const { return nodes_.data() + start_[cell + 1]; }

  /// Calls `fn(u)` for every radio neighbour u of `v`, in no fixed order.
  template <typename Fn>
  void ForEachNeighbor(NodeId v, Fn&& fn) const {
    const Position& pv = topology_->position(v);
    for (uint32_t c : blocks_[cell_of_[v]]) {
      if (c == kNoCell) break;
      for (const NodeId* u = cell_begin(c); u != cell_end(c); ++u) {
        if (*u != v && Distance(pv, topology_->position(*u)) <= topology_->comm_range()) fn(*u);
      }
    }
  }

 private:
  const Topology* topology_;
  std::vector<uint32_t> cell_of_;
  std::vector<uint32_t> start_;  ///< Cell c holds nodes_[start_[c], start_[c + 1]).
  std::vector<NodeId> nodes_;
  std::vector<std::array<uint32_t, 9>> blocks_;
};

/// How a node that hears several beacons in one round picks its parent.
enum class ParentRule {
  kFirstHeard,    ///< The earliest beacon.
  kClusterAware,  ///< The earliest from a same-room non-sink node, else the earliest.
};

/// `node` adopted `parent`, whose beacon went out `rank`-th in its round.
struct Adoption {
  NodeId node = kNoNode;
  NodeId parent = kNoNode;
  uint32_t rank = 0;
};

/// The first-heard-from adoption round every tree builder and
/// RoutingTree::Repair run: the frontier beacons in order, and each
/// candidate that hears one or more beacons adopts a parent by rule. The
/// round groups the beacons into runs of one room within one cell, each run
/// in beacon order with its bounding box, so a candidate picks its parent in
/// one pass over its cell block: it skips runs whose box is out of range
/// and reads only the earliest in-range beacons of the rest. Holds the
/// per-round scratch: callers that run many rounds reuse one instance.
class AdoptionRounds {
 public:
  /// Appends to `out`, in `candidates` order, the adoption of every
  /// candidate within range of a `frontier` node (frontier[i] beacons i-th).
  void Run(const NeighborIndex& index, const std::vector<NodeId>& frontier,
           const std::vector<NodeId>& candidates, ParentRule rule, std::vector<Adoption>& out);

 private:
  struct Beacon {
    Position pos;
    NodeId node;
    GroupId room;
    uint32_t rank;
  };
  /// Same-room beacons of one cell: beacons_[begin, end), in beacon order,
  /// inside the box [lo, hi].
  struct RoomRun {
    Position lo;
    Position hi;
    GroupId room;
    uint32_t begin;
    uint32_t end;
  };
  const Beacon* Pick(const NeighborIndex& index, NodeId v, ParentRule rule) const;

  /// This round's runs of cell c are runs_[begin_[c], end_[c]); both are
  /// zero for cells without beacons between rounds.
  std::vector<uint32_t> begin_;
  std::vector<uint32_t> end_;
  std::vector<uint32_t> touched_;
  std::vector<Beacon> beacons_;
  std::vector<RoomRun> runs_;
};

/// Grows a sink-rooted tree over `index` round by round, shuffling each
/// round's frontier with `rng` when one is given, and returns the parent
/// vector (kNoNode for the sink and for nodes that cannot reach it).
/// Cluster-aware joiners beacon next round in node order; first-heard ones
/// in the order the beacons they adopted went out, ties by node id.
std::vector<NodeId> GrowTree(const NeighborIndex& index, ParentRule rule, util::Rng* rng);

}  // namespace kspot::sim
