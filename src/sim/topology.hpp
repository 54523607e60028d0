#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "util/rng.hpp"

namespace kspot::sim {

/// 2-D position of a node in meters.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two positions.
double Distance(const Position& a, const Position& b);

/// Static description of a deployment: node positions, the room (cluster) each
/// node belongs to, and the radio communication range. Node 0 is the sink and
/// by convention carries no sensor of its own (it is the MIB520 base station).
class Topology {
 public:
  Topology() = default;

  /// Creates a topology from explicit positions and room assignments.
  /// `rooms[i]` is the GROUP BY group of node i; the sink's entry is ignored.
  Topology(std::vector<Position> positions, std::vector<GroupId> rooms, double comm_range);

  /// Number of nodes including the sink.
  size_t num_nodes() const { return positions_.size(); }

  /// Number of sensing nodes (excludes the sink).
  size_t num_sensors() const { return positions_.empty() ? 0 : positions_.size() - 1; }

  /// Position of node `id`.
  const Position& position(NodeId id) const { return positions_[id]; }

  /// Room (cluster) of node `id`.
  GroupId room(NodeId id) const { return rooms_[id]; }

  /// Radio communication range in meters (disc connectivity model).
  double comm_range() const { return comm_range_; }

  /// Distinct room ids over sensing nodes, sorted ascending.
  std::vector<GroupId> DistinctRooms() const;

  /// Ids of nodes in `room`, ascending.
  std::vector<NodeId> NodesInRoom(GroupId room) const;

  /// Materialized neighbor lists under the disc model (symmetric, excludes
  /// self, ascending). O(edges) memory: the library itself never builds
  /// them and answers neighbour queries from a sim::NeighborIndex instead.
  std::vector<std::vector<NodeId>> BuildAdjacency() const;

  /// True when every node can reach the sink over the disc graph. Aborts on
  /// a non-finite position (see sim::NeighborIndex).
  bool IsConnected() const;

 private:
  std::vector<Position> positions_;
  std::vector<GroupId> rooms_;
  double comm_range_ = 10.0;
};

/// Parameters for the random topology generators.
struct TopologyOptions {
  /// Total nodes including the sink.
  size_t num_nodes = 100;
  /// Number of rooms (GROUP BY groups) to carve the field into.
  size_t num_rooms = 10;
  /// Side length of the square deployment field, meters.
  double field_size = 100.0;
  /// Radio range, meters. Generators may enlarge it to reach connectivity.
  double comm_range = 18.0;
};

/// Regular sqrt(n) x sqrt(n) grid; rooms are rectangular tiles. The sink sits
/// at the grid's first cell. Deterministic (no RNG).
Topology MakeGrid(const TopologyOptions& options);

/// Uniform-random placement in the field; rooms are Voronoi cells of a room
/// grid. Resamples (then widens the range) until connected.
Topology MakeUniformRandom(const TopologyOptions& options, util::Rng& rng);

/// Clustered placement: room centers scattered in the field, nodes Gaussian
/// around their room center — the "conference rooms" deployment shape where
/// groups close low in the routing tree.
Topology MakeClusteredRooms(const TopologyOptions& options, util::Rng& rng);

/// The exact 9-sensor / 4-room scenario of Figure 1 in the paper, with the
/// routing tree of the figure (see MakeFigure1Tree). Rooms A,B,C,D map to
/// group ids 0,1,2,3.
Topology MakeFigure1();

/// The Figure-1 routing tree as an explicit parent vector:
/// s0 <- {s2, s4, s6}; s2 <- {s3}; s4 <- {s1, s9}; s6 <- {s5, s7, s8}.
std::vector<NodeId> MakeFigure1Parents();

/// Sensor readings (sound level, %) from Figure 1: index = node id, entry 0
/// (the sink) is 0. s1..s9 = 40, 74, 75, 42, 75, 75, 78, 75, 39.
std::vector<double> Figure1Readings();

/// Human-readable room name for the Figure-1 scenario ("A".."D").
std::string Figure1RoomName(GroupId room);

}  // namespace kspot::sim
