#include "sim/topology.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/neighbor_index.hpp"

namespace kspot::sim {

double Distance(const Position& a, const Position& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Topology::Topology(std::vector<Position> positions, std::vector<GroupId> rooms,
                   double comm_range)
    : positions_(std::move(positions)), rooms_(std::move(rooms)), comm_range_(comm_range) {
  rooms_.resize(positions_.size(), 0);
}

std::vector<GroupId> Topology::DistinctRooms() const {
  std::set<GroupId> s;
  for (size_t i = 1; i < rooms_.size(); ++i) s.insert(rooms_[i]);
  return std::vector<GroupId>(s.begin(), s.end());
}

std::vector<NodeId> Topology::NodesInRoom(GroupId room) const {
  std::vector<NodeId> out;
  for (size_t i = 1; i < rooms_.size(); ++i) {
    if (rooms_[i] == room) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<std::vector<NodeId>> Topology::BuildAdjacency() const {
  NeighborIndex index(*this);
  std::vector<std::vector<NodeId>> adj(num_nodes());
  for (NodeId v = 0; v < adj.size(); ++v) {
    index.ForEachNeighbor(v, [&](NodeId u) { adj[v].push_back(u); });
    std::sort(adj[v].begin(), adj[v].end());
  }
  return adj;
}

bool Topology::IsConnected() const {
  if (positions_.empty()) return false;
  std::vector<NodeId> parents = GrowTree(NeighborIndex(*this), ParentRule::kFirstHeard, nullptr);
  return std::count(parents.begin() + 1, parents.end(), kNoNode) == 0;
}

Topology MakeGrid(const TopologyOptions& options) {
  size_t n = options.num_nodes;
  size_t side = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  if (side == 0) side = 1;
  double spacing = options.field_size / static_cast<double>(side);
  size_t rooms_side = static_cast<size_t>(
      std::max(1.0, std::round(std::sqrt(static_cast<double>(options.num_rooms)))));
  std::vector<Position> pos;
  std::vector<GroupId> rooms;
  pos.reserve(n);
  rooms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t gx = i % side;
    size_t gy = i / side;
    pos.push_back(Position{(static_cast<double>(gx) + 0.5) * spacing,
                           (static_cast<double>(gy) + 0.5) * spacing});
    size_t rx = gx * rooms_side / side;
    size_t ry = gy * rooms_side / side;
    rooms.push_back(static_cast<GroupId>(ry * rooms_side + rx));
  }
  // A grid is connected as long as the range covers one grid step (with a
  // little slack for diagonal sinks); enforce that.
  double range = std::max(options.comm_range, spacing * 1.05);
  return Topology(std::move(pos), std::move(rooms), range);
}

namespace {

GroupId RoomOfCell(const Position& p, const TopologyOptions& options) {
  size_t rooms_side = static_cast<size_t>(
      std::max(1.0, std::round(std::sqrt(static_cast<double>(options.num_rooms)))));
  double cell = options.field_size / static_cast<double>(rooms_side);
  size_t rx = std::min(rooms_side - 1, static_cast<size_t>(p.x / cell));
  size_t ry = std::min(rooms_side - 1, static_cast<size_t>(p.y / cell));
  return static_cast<GroupId>(ry * rooms_side + rx);
}

}  // namespace

Topology MakeUniformRandom(const TopologyOptions& options, util::Rng& rng) {
  double range = options.comm_range;
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<Position> pos;
    std::vector<GroupId> rooms;
    pos.reserve(options.num_nodes);
    // The sink sits in the middle of the field (the demo's projector laptop).
    pos.push_back(Position{options.field_size / 2, options.field_size / 2});
    rooms.push_back(0);
    for (size_t i = 1; i < options.num_nodes; ++i) {
      Position p{rng.NextDouble(0, options.field_size), rng.NextDouble(0, options.field_size)};
      pos.push_back(p);
      rooms.push_back(RoomOfCell(p, options));
    }
    Topology t(std::move(pos), std::move(rooms), range);
    if (t.IsConnected()) return t;
    // Widen the radio range every few failed placements; a disconnected
    // deployment would be re-positioned by hand in a real installation.
    if (attempt % 4 == 3) range *= 1.15;
  }
  // Fall back to a grid: always connected.
  TopologyOptions fallback = options;
  fallback.comm_range = range;
  return MakeGrid(fallback);
}

Topology MakeClusteredRooms(const TopologyOptions& options, util::Rng& rng) {
  double range = options.comm_range;
  size_t rooms = std::max<size_t>(1, options.num_rooms);
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<Position> centers;
    centers.reserve(rooms);
    for (size_t r = 0; r < rooms; ++r) {
      centers.push_back(Position{rng.NextDouble(0.1, 0.9) * options.field_size,
                                 rng.NextDouble(0.1, 0.9) * options.field_size});
    }
    double sigma = options.field_size / (3.0 * std::sqrt(static_cast<double>(rooms)));
    std::vector<Position> pos;
    std::vector<GroupId> room_of;
    pos.push_back(Position{options.field_size / 2, options.field_size / 2});
    room_of.push_back(0);
    for (size_t i = 1; i < options.num_nodes; ++i) {
      size_t r = (i - 1) % rooms;  // balanced room sizes
      double x = std::clamp(centers[r].x + rng.NextGaussian(0, sigma), 0.0, options.field_size);
      double y = std::clamp(centers[r].y + rng.NextGaussian(0, sigma), 0.0, options.field_size);
      pos.push_back(Position{x, y});
      room_of.push_back(static_cast<GroupId>(r));
    }
    Topology t(std::move(pos), std::move(room_of), range);
    if (t.IsConnected()) return t;
    if (attempt % 4 == 3) range *= 1.15;
  }
  TopologyOptions fallback = options;
  fallback.comm_range = range;
  return MakeGrid(fallback);
}

Topology MakeFigure1() {
  // A 20m x 20m four-room building (2x2 rooms of 10m), sink in the middle.
  // Room ids: A=0, B=1, C=2, D=3.
  // Consistent with the paper's aggregates: AVG(A)=74.5, AVG(B)=41,
  // AVG(C)=75 (the correct top-1) and AVG(D)=64.
  std::vector<Position> pos = {
      {10.0, 10.0},  // s0 sink
      {4.0, 13.0},   // s1 room B
      {4.0, 4.0},    // s2 room A
      {7.0, 7.0},    // s3 room A
      {7.0, 16.0},   // s4 room B
      {13.0, 4.0},   // s5 room C
      {16.0, 7.0},   // s6 room C
      {16.0, 13.0},  // s7 room D
      {13.0, 16.0},  // s8 room D
      {16.0, 17.5},  // s9 room D
  };
  std::vector<GroupId> rooms = {0, 1, 0, 0, 1, 2, 2, 3, 3, 3};
  return Topology(std::move(pos), std::move(rooms), 8.0);
}

std::vector<NodeId> MakeFigure1Parents() {
  // s0 is the root; s2, s4, s6 are its children; s3 under s2; s1 and s9 under
  // s4; s5, s7, s8 under s6. This reproduces the anomaly of Section III-A:
  // s4 merges (D,39) from s9 with its own (B,42) and naive top-1 pruning
  // wrongfully eliminates (D,39).
  return {kNoNode, 4, 0, 2, 0, 6, 0, 6, 6, 4};
}

std::vector<double> Figure1Readings() {
  return {0.0, 40.0, 74.0, 75.0, 42.0, 75.0, 75.0, 78.0, 75.0, 39.0};
}

std::string Figure1RoomName(GroupId room) {
  static const char* names[] = {"A", "B", "C", "D"};
  if (room < 0 || room > 3) return "?";
  return names[room];
}

}  // namespace kspot::sim
