#include "sim/neighbor_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "obs/trace.hpp"

namespace kspot::sim {

namespace {

/// Cells are this much wider than the radio range. Two nodes within range
/// then differ by less than one in each scaled coordinate even after the
/// rounding of the scaling division, so their cells are never more than one
/// apart (an exact-width cell lets a pair at exactly the range, lying on cell
/// boundaries, round into cells two apart).
constexpr double kCellSlack = 1.0 + 0x1p-20;

/// Scaled coordinates must stay below this: it keeps the division's
/// rounding error (an ulp of the quotient) far under the slack, and the cell
/// coordinates, plus or minus one, inside int32.
constexpr double kMaxScaled = 0x1p28;

uint64_t CellKey(int64_t cx, int64_t cy) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(cy));
}

}  // namespace

NeighborIndex::NeighborIndex(const Topology& topology) : topology_(&topology) {
  static const uint32_t kSpan = obs::GlobalTracer().InternName("sim.neighbor_index");
  obs::ScopedSpan span(kSpan);
  size_t n = topology.num_nodes();
  double range = topology.comm_range();
  double side = (range > 0.0 ? range : 1.0) * kCellSlack;
  std::unordered_map<uint64_t, uint32_t> ids;
  ids.reserve(n);
  std::vector<std::pair<int64_t, int64_t>> coords;
  std::vector<uint32_t> count;
  cell_of_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Position& p = topology.position(static_cast<NodeId>(i));
    double sx = p.x / side;
    double sy = p.y / side;
    if (!(std::fabs(sx) < kMaxScaled) || !(std::fabs(sy) < kMaxScaled)) {
      std::fprintf(stderr,
                   "NeighborIndex: node %zu at (%g, %g) is not finite or too far out to bucket "
                   "at range %g\n",
                   i, p.x, p.y, range);
      std::abort();
    }
    auto cx = static_cast<int64_t>(std::floor(sx));
    auto cy = static_cast<int64_t>(std::floor(sy));
    auto [it, inserted] = ids.try_emplace(CellKey(cx, cy), static_cast<uint32_t>(coords.size()));
    if (inserted) {
      coords.emplace_back(cx, cy);
      count.push_back(0);
    }
    cell_of_[i] = it->second;
    ++count[it->second];
  }
  size_t cells = coords.size();
  start_.assign(cells + 1, 0);
  for (size_t c = 0; c < cells; ++c) start_[c + 1] = start_[c] + count[c];
  nodes_.resize(n);
  std::vector<uint32_t> cursor(start_.begin(), start_.end() - 1);
  for (size_t i = 0; i < n; ++i) nodes_[cursor[cell_of_[i]]++] = static_cast<NodeId>(i);
  blocks_.resize(cells);
  for (size_t c = 0; c < cells; ++c) {
    blocks_[c].fill(kNoCell);
    size_t k = 0;
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        auto it = ids.find(CellKey(coords[c].first + dx, coords[c].second + dy));
        if (it != ids.end()) blocks_[c][k++] = it->second;
      }
    }
  }
}

const AdoptionRounds::Beacon* AdoptionRounds::Pick(const NeighborIndex& index, NodeId v,
                                                   ParentRule rule) const {
  const Topology& topology = index.topology();
  const Position& pv = topology.position(v);
  const double range = topology.comm_range();
  const std::array<uint32_t, 9>& block = index.block(index.cell(v));
  // The box's nearest point is no farther from v, under the same rounded
  // Distance, than any beacon inside it, so an out-of-range box holds no
  // beacon in range.
  auto out_of_range = [&](const RoomRun& run) {
    Position near{std::clamp(pv.x, run.lo.x, run.hi.x), std::clamp(pv.y, run.lo.y, run.hi.y)};
    return Distance(pv, near) > range;
  };
  // The earliest in-range beacon among the runs `want` accepts; a run is
  // left at its first beacon that cannot beat the pick.
  auto earliest = [&](auto want, bool skip_sink) {
    const Beacon* pick = nullptr;
    for (uint32_t c : block) {
      if (c == NeighborIndex::kNoCell) break;
      for (uint32_t r = begin_[c]; r != end_[c]; ++r) {
        const RoomRun& run = runs_[r];
        if (!want(run) || (pick != nullptr && beacons_[run.begin].rank >= pick->rank) ||
            out_of_range(run)) {
          continue;
        }
        for (uint32_t b = run.begin; b != run.end; ++b) {
          const Beacon& beacon = beacons_[b];
          if (pick != nullptr && beacon.rank >= pick->rank) break;
          if ((!skip_sink || beacon.node != kSinkId) && Distance(pv, beacon.pos) <= range) {
            pick = &beacon;
            break;
          }
        }
      }
    }
    return pick;
  };
  if (rule == ParentRule::kClusterAware) {
    const GroupId room = topology.room(v);
    const Beacon* mate = earliest([&](const RoomRun& run) { return run.room == room; }, true);
    if (mate != nullptr) return mate;
  }
  return earliest([](const RoomRun&) { return true; }, false);
}

void AdoptionRounds::Run(const NeighborIndex& index, const std::vector<NodeId>& frontier,
                         const std::vector<NodeId>& candidates, ParentRule rule,
                         std::vector<Adoption>& out) {
  const Topology& topology = index.topology();
  if (begin_.size() != index.num_cells()) {
    begin_.assign(index.num_cells(), 0);
    end_.assign(index.num_cells(), 0);
  }
  // Counting sort of the beacons by cell.
  touched_.clear();
  for (NodeId u : frontier) {
    uint32_t c = index.cell(u);
    if (end_[c]++ == 0) touched_.push_back(c);
  }
  uint32_t offset = 0;
  for (uint32_t c : touched_) {
    begin_[c] = offset;
    offset += end_[c];
    end_[c] = begin_[c];
  }
  beacons_.resize(frontier.size());
  for (size_t i = 0; i < frontier.size(); ++i) {
    NodeId u = frontier[i];
    beacons_[end_[index.cell(u)]++] =
        Beacon{topology.position(u), u, topology.room(u), static_cast<uint32_t>(i)};
  }
  // Split each cell into same-room runs; begin_/end_ now index runs_.
  runs_.clear();
  for (uint32_t c : touched_) {
    auto first = beacons_.begin() + begin_[c];
    auto last = beacons_.begin() + end_[c];
    std::sort(first, last, [](const Beacon& a, const Beacon& b) {
      return a.room != b.room ? a.room < b.room : a.rank < b.rank;
    });
    begin_[c] = static_cast<uint32_t>(runs_.size());
    for (auto it = first; it != last;) {
      RoomRun run{it->pos, it->pos, it->room, static_cast<uint32_t>(it - beacons_.begin()), 0};
      for (; it != last && it->room == run.room; ++it) {
        run.lo = {std::min(run.lo.x, it->pos.x), std::min(run.lo.y, it->pos.y)};
        run.hi = {std::max(run.hi.x, it->pos.x), std::max(run.hi.y, it->pos.y)};
      }
      run.end = static_cast<uint32_t>(it - beacons_.begin());
      runs_.push_back(run);
    }
    end_[c] = static_cast<uint32_t>(runs_.size());
  }
  for (NodeId v : candidates) {
    if (const Beacon* pick = Pick(index, v, rule)) out.push_back({v, pick->node, pick->rank});
  }
  for (uint32_t c : touched_) begin_[c] = end_[c] = 0;
}

std::vector<NodeId> GrowTree(const NeighborIndex& index, ParentRule rule, util::Rng* rng) {
  size_t n = index.num_nodes();
  std::vector<NodeId> parents(n, kNoNode);
  if (n == 0) return parents;
  std::vector<uint8_t> joined(n, 0);
  joined[kSinkId] = 1;
  std::vector<uint8_t> near(index.num_cells(), 0);
  std::vector<uint32_t> near_cells;
  AdoptionRounds rounds;
  std::vector<NodeId> frontier = {kSinkId};
  std::vector<NodeId> candidates;
  std::vector<Adoption> adoptions;
  while (!frontier.empty()) {
    if (rng != nullptr) rng->Shuffle(frontier);
    // Candidates are the unjoined nodes of the cell blocks around the
    // frontier, ascending: every node that can hear it, and some that
    // cannot (those adopt nothing).
    near_cells.clear();
    for (NodeId u : frontier) {
      for (uint32_t c : index.block(index.cell(u))) {
        if (c == NeighborIndex::kNoCell) break;
        if (!near[c]) {
          near[c] = 1;
          near_cells.push_back(c);
        }
      }
    }
    candidates.clear();
    for (uint32_t c : near_cells) {
      near[c] = 0;
      for (const NodeId* v = index.cell_begin(c); v != index.cell_end(c); ++v) {
        if (!joined[*v]) candidates.push_back(*v);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    adoptions.clear();
    rounds.Run(index, frontier, candidates, rule, adoptions);
    if (rule == ParentRule::kFirstHeard) {
      std::stable_sort(adoptions.begin(), adoptions.end(),
                       [](const Adoption& a, const Adoption& b) { return a.rank < b.rank; });
    }
    frontier.clear();
    for (const Adoption& a : adoptions) {
      parents[a.node] = a.parent;
      joined[a.node] = 1;
      frontier.push_back(a.node);
    }
  }
  return parents;
}

}  // namespace kspot::sim
