/// Golden pins for routing-tree construction and repair.
///
/// Every tree builder (cluster-aware, first-heard, min-hop) and the churn
/// repair are pinned by a digest of the parent vector they produce plus the
/// next draw of the rng they consumed, on beds of different shape: a dense
/// grid, a deep grid (spacing = range / 2.5), clustered rooms and uniform
/// random placement. The values were recorded from the adjacency-list
/// implementation; any change to adoption order or rng consumption moves
/// them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "fault/churn_engine.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/neighbor_index.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace kspot::sim {
namespace {

/// FNV-1a over 64-bit words.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
};

uint64_t ParentDigest(const RoutingTree& tree) {
  Digest d;
  for (NodeId v = 0; v < tree.num_nodes(); ++v) d.Mix(tree.parent(v));
  return d.h;
}

/// What a build pins: the tree and the rng state it left behind.
struct BuildPin {
  uint64_t parents;
  uint64_t next_draw;
};

template <typename Build>
BuildPin Pin(Build build, uint64_t seed) {
  util::Rng rng(seed);
  RoutingTree tree = build(rng);
  return {ParentDigest(tree), rng.NextU64()};
}

/// sqrt(n) x sqrt(n) grid whose spacing is range / 2.5: about 20 radio
/// neighbours per node and a tree several dozen hops deep.
Topology DeepGrid(size_t nodes, size_t rooms) {
  TopologyOptions opt;
  opt.num_nodes = nodes;
  opt.num_rooms = rooms;
  opt.comm_range = 18.0;
  auto side = static_cast<double>(static_cast<size_t>(std::ceil(std::sqrt(double(nodes)))));
  opt.field_size = side * opt.comm_range / 2.5;
  return MakeGrid(opt);
}

Topology DenseGrid() {
  TopologyOptions opt;
  opt.num_nodes = 20000;
  opt.num_rooms = 64;
  return MakeGrid(opt);
}

Topology Clustered() {
  TopologyOptions opt;
  opt.num_nodes = 3000;
  opt.num_rooms = 12;
  opt.field_size = 300.0;
  util::Rng rng(7);
  return MakeClusteredRooms(opt, rng);
}

Topology Uniform() {
  TopologyOptions opt;
  opt.num_nodes = 3000;
  opt.num_rooms = 16;
  opt.field_size = 300.0;
  util::Rng rng(9);
  return MakeUniformRandom(opt, rng);
}

void ExpectPin(const BuildPin& got, const BuildPin& want) {
  EXPECT_EQ(got.parents, want.parents) << std::hex << "parents 0x" << got.parents;
  EXPECT_EQ(got.next_draw, want.next_draw) << std::hex << "next draw 0x" << got.next_draw;
}

// ----------------------------------------------------------- NeighborIndex

/// Topology::BuildAdjacency lists NeighborIndex::ForEachNeighbor's answers.
void ExpectIndexMatchesAllPairs(const Topology& topology) {
  auto want = testing::AllPairsAdjacency(topology);
  size_t edges = 0;
  for (const auto& list : want) edges += list.size();
  ASSERT_GT(edges, 0u);
  EXPECT_EQ(topology.BuildAdjacency(), want);
}

TEST(NeighborIndexTest, MatchesAllPairsOnRandomClusteredAndGridBeds) {
  TopologyOptions opt;
  opt.num_nodes = 600;
  opt.num_rooms = 9;
  util::Rng rng(5);
  ExpectIndexMatchesAllPairs(MakeUniformRandom(opt, rng));
  ExpectIndexMatchesAllPairs(MakeClusteredRooms(opt, rng));
  ExpectIndexMatchesAllPairs(MakeGrid(opt));
  ExpectIndexMatchesAllPairs(DeepGrid(400, 4));
}

TEST(NeighborIndexTest, MatchesAllPairsOnCellBoundaries) {
  // Nodes on a lattice of exactly the radio range, so pairs sit at exactly
  // the range apart and on cell edges, plus half-range and one-ulp offsets,
  // negative coordinates included. Ranges that are and are not exact
  // binary fractions.
  for (double range : {18.0, 0.1, 3.7, 1e-3}) {
    SCOPED_TRACE(range);
    std::vector<Position> pos;
    for (int i = -3; i <= 3; ++i) {
      for (int j = -3; j <= 3; ++j) {
        double x = i * range;
        double y = j * range;
        pos.push_back({x, y});
        pos.push_back({x + range / 2, y});
        pos.push_back({std::nextafter(x, -1e9), std::nextafter(y, 1e9)});
        pos.push_back({x, (j + 1) * range / 3});
      }
    }
    Topology t(pos, std::vector<GroupId>(pos.size(), 0), range);
    ExpectIndexMatchesAllPairs(t);
  }
}

TEST(NeighborIndexTest, NonFinitePositionAbortsLoudly) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  double inf = std::numeric_limits<double>::infinity();
  Topology with_nan({{0, 0}, {1, nan}}, {0, 0}, 2.0);
  Topology with_inf({{0, 0}, {-inf, 1}}, {0, 0}, 2.0);
  EXPECT_DEATH(NeighborIndex{with_nan}, "not finite");
  EXPECT_DEATH(NeighborIndex{with_inf}, "not finite");
  EXPECT_DEATH(with_nan.IsConnected(), "not finite");
}

TEST(NeighborIndexTest, TreeBuildRecordsSetUpSpans) {
  bool tracing = obs::TracingOn();
  obs::SetTracingEnabled(true);
  obs::Tracer& tracer = obs::GlobalTracer();
  tracer.Clear();
  Topology t = DeepGrid(400, 4);
  util::Rng rng(1);
  RoutingTree tree = RoutingTree::BuildClusterAware(t, rng);
  std::set<std::string> names;
  for (const obs::TraceSpan& span : tracer.Spans()) names.insert(tracer.Name(span.name_id));
  tracer.Clear();
  obs::SetTracingEnabled(tracing);
  EXPECT_EQ(tree.AttachedCount(), t.num_nodes());
  EXPECT_EQ(names.count("sim.neighbor_index"), 1u);
  EXPECT_EQ(names.count("sim.tree_build"), 1u);
}

// ------------------------------------------------- reference tree builders

/// The adjacency-list builders the neighbour index replaced, kept as the
/// reference: BFS expansion over all-pairs neighbour lists.
std::vector<NodeId> ReferenceFirstHeard(const Topology& t, util::Rng* rng) {
  auto adj = testing::AllPairsAdjacency(t);
  std::vector<NodeId> parents(t.num_nodes(), kNoNode);
  std::vector<bool> joined(t.num_nodes(), false);
  joined[kSinkId] = true;
  std::vector<NodeId> frontier = {kSinkId};
  while (!frontier.empty()) {
    if (rng != nullptr) rng->Shuffle(frontier);
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId v : adj[u]) {
        if (!joined[v]) {
          joined[v] = true;
          parents[v] = u;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  return parents;
}

std::vector<NodeId> ReferenceClusterAware(const Topology& t, util::Rng& rng) {
  auto adj = testing::AllPairsAdjacency(t);
  size_t n = t.num_nodes();
  std::vector<NodeId> parents(n, kNoNode);
  std::vector<bool> joined(n, false);
  joined[kSinkId] = true;
  std::vector<NodeId> frontier = {kSinkId};
  while (!frontier.empty()) {
    rng.Shuffle(frontier);
    std::vector<int64_t> rank(n, -1);
    for (size_t i = 0; i < frontier.size(); ++i) rank[frontier[i]] = static_cast<int64_t>(i);
    std::vector<std::pair<NodeId, NodeId>> adoptions;
    for (NodeId v = 0; v < n; ++v) {
      std::vector<std::pair<int64_t, NodeId>> heard;
      for (NodeId u : adj[v]) {
        if (!joined[v] && rank[u] >= 0) heard.emplace_back(rank[u], u);
      }
      if (heard.empty()) continue;
      std::sort(heard.begin(), heard.end());
      NodeId pick = heard.front().second;
      for (const auto& [r, u] : heard) {
        if (t.room(u) == t.room(v) && u != kSinkId) {
          pick = u;
          break;
        }
      }
      adoptions.emplace_back(v, pick);
    }
    frontier.clear();
    for (const auto& [v, parent] : adoptions) {
      parents[v] = parent;
      joined[v] = true;
      frontier.push_back(v);
    }
  }
  return parents;
}

std::vector<NodeId> Parents(const RoutingTree& tree) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < tree.num_nodes(); ++v) out.push_back(tree.parent(v));
  return out;
}

void ExpectBuildersMatchReference(const Topology& t, uint64_t seed) {
  util::Rng a(seed), b(seed);
  EXPECT_EQ(Parents(RoutingTree::BuildClusterAware(t, a)), ReferenceClusterAware(t, b));
  EXPECT_EQ(a.NextU64(), b.NextU64());
  util::Rng c(seed), d(seed);
  EXPECT_EQ(Parents(RoutingTree::BuildFirstHeard(t, c)), ReferenceFirstHeard(t, &d));
  EXPECT_EQ(c.NextU64(), d.NextU64());
  EXPECT_EQ(Parents(kspot::testing::MinHopTree(t)), ReferenceFirstHeard(t, nullptr));
}

TEST(TreeReferenceTest, BuildersMatchAdjacencyListBuilders) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    TopologyOptions opt;
    opt.num_nodes = 300;
    opt.num_rooms = 9;
    opt.comm_range = 12.0;
    util::Rng rng(seed);
    ExpectBuildersMatchReference(MakeUniformRandom(opt, rng), seed);
    ExpectBuildersMatchReference(MakeClusteredRooms(opt, rng), seed);
  }
  ExpectBuildersMatchReference(DeepGrid(900, 9), 7);
}

TEST(TreeReferenceTest, BuildersMatchOnCellBoundaries) {
  // A lattice at exactly the radio range: every lattice neighbour sits at
  // exactly the range, on a cell edge. Rooms are lattice columns.
  for (double range : {18.0, 0.1, 3.7}) {
    SCOPED_TRACE(range);
    std::vector<Position> pos;
    std::vector<GroupId> rooms;
    for (int i = 0; i < 12; ++i) {
      for (int j = 0; j < 12; ++j) {
        pos.push_back({i * range, j * range});
        rooms.push_back(i / 3);
        pos.push_back({(i + 0.5) * range, j * range});
        rooms.push_back(j / 4);
      }
    }
    ExpectBuildersMatchReference(Topology(pos, rooms, range), 3);
  }
}

// ------------------------------------------------------------ tree builders

TEST(TreeGoldenTest, ClusterAwareDenseGrid) {
  Topology t = DenseGrid();
  ExpectPin(Pin([&](util::Rng& r) { return RoutingTree::BuildClusterAware(t, r); }, 161),
            {0x841a01461dc79f94ULL, 0x343926619b42c3c5ULL});
}

TEST(TreeGoldenTest, ClusterAwareDeepGrid) {
  Topology t = DeepGrid(5000, 16);
  ExpectPin(Pin([&](util::Rng& r) { return RoutingTree::BuildClusterAware(t, r); }, 3),
            {0xc980cc9f1b61892cULL, 0x36a02cd3c33caf6dULL});
}

TEST(TreeGoldenTest, ClusterAwareClusteredRooms) {
  Topology t = Clustered();
  ExpectPin(Pin([&](util::Rng& r) { return RoutingTree::BuildClusterAware(t, r); }, 8),
            {0x9e63ec23fcb75b4fULL, 0xd33645f96de0cbe5ULL});
}

TEST(TreeGoldenTest, ClusterAwareUniformRandom) {
  Topology t = Uniform();
  ExpectPin(Pin([&](util::Rng& r) { return RoutingTree::BuildClusterAware(t, r); }, 10),
            {0x683a6d4e91affd03ULL, 0xe5d6394d14fdf998ULL});
}

TEST(TreeGoldenTest, FirstHeardDeepGridAndUniform) {
  Topology grid = DeepGrid(5000, 16);
  ExpectPin(Pin([&](util::Rng& r) { return RoutingTree::BuildFirstHeard(grid, r); }, 4),
            {0x64570f3e77f91185ULL, 0x1529eddcaa10cb38ULL});
  Topology uniform = Uniform();
  ExpectPin(Pin([&](util::Rng& r) { return RoutingTree::BuildFirstHeard(uniform, r); }, 11),
            {0x49b7253969da64eeULL, 0x8b4e5ed96284cbfbULL});
}

TEST(TreeGoldenTest, MinHopDeepGridAndUniform) {
  // Min-hop draws nothing: the rng half of the pin is the seed's first draw.
  Topology grid = DeepGrid(5000, 16);
  ExpectPin(Pin([&](util::Rng&) { return kspot::testing::MinHopTree(grid); }, 5),
            {0x1e998df7c0268f6dULL, 0x49d55178ca54cf69ULL});
  Topology uniform = Uniform();
  ExpectPin(Pin([&](util::Rng&) { return kspot::testing::MinHopTree(uniform); }, 12),
            {0x830d2462569d6d81ULL, 0x4ef464db5271a8a1ULL});
}

/// The E16 n = 10^5 deployment (MakeGrid defaults, 128 rooms, seed 161).
TEST(TreeGoldenTest, ClusterAwareE16HundredThousand) {
  TopologyOptions opt;
  opt.num_nodes = 100000;
  opt.num_rooms = 128;
  Topology t = MakeGrid(opt);
  ExpectPin(Pin([&](util::Rng& r) { return RoutingTree::BuildClusterAware(t, r); }, 161),
            {0xa27b7ab9e626ad4dULL, 0xbcc7425fe28b75ccULL});
}

// ------------------------------------------------------------------ repair

/// Drives RoutingTree::Repair pass by pass through one fault plan.
class RepairDriver {
 public:
  explicit RepairDriver(const Topology& topology) : index_(topology) {}

  RepairReport Pass(RoutingTree& tree, const std::vector<uint8_t>& up, util::Rng& rng) {
    return tree.Repair(index_, [&](NodeId id) { return up[id] != 0; }, rng, &workspace_);
  }

 private:
  NeighborIndex index_;
  RepairWorkspace workspace_;
};

/// The churn workload's shape: 2000 nodes on a deep grid, 1% crashes per
/// node and epoch with a mean downtime of 10 epochs. Every pass's report and
/// the rng draw after it are folded into one digest.
TEST(TreeGoldenTest, RepairSequenceUnderFaultPlan) {
  Topology t = DeepGrid(2000, 32);
  util::Rng build_rng(21);
  RoutingTree tree = RoutingTree::BuildClusterAware(t, build_rng);
  fault::FaultPlanOptions fopt;
  fopt.horizon = 60;
  fopt.crash_prob = 0.01;
  fopt.mean_downtime = 10;
  fault::FaultPlan plan = fault::FaultPlan::Generate(t, fopt, 0xFA11);
  ASSERT_GT(plan.CountKind(fault::FaultEvent::Kind::kCrash), 100u);

  RepairDriver driver(t);
  std::vector<uint8_t> up(t.num_nodes(), 1);
  Digest d;
  size_t next = 0;
  size_t reattached = 0;
  size_t removed = 0;
  for (Epoch e = 0; e < fopt.horizon; ++e) {
    while (next < plan.events.size() && plan.events[next].at <= e) {
      const fault::FaultEvent& ev = plan.events[next++];
      if (ev.kind == fault::FaultEvent::Kind::kCrash) up[ev.node] = 0;
      if (ev.kind == fault::FaultEvent::Kind::kRecover) up[ev.node] = 1;
    }
    util::Rng rng = util::Rng(0x5EED).Split(e);
    RepairReport report = driver.Pass(tree, up, rng);
    for (const RepairOp& op : report.reattached) {
      d.Mix(op.node);
      d.Mix(op.new_parent);
    }
    for (const auto& [node, old_parent] : report.removed) {
      d.Mix(node);
      d.Mix(old_parent);
    }
    d.Mix(report.dead_removed);
    d.Mix(report.detached);
    d.Mix(report.changed ? 1 : 0);
    d.Mix(rng.NextU64());
    reattached += report.reattached.size();
    removed += report.removed.size();
  }
  EXPECT_GT(reattached, 0u);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(d.h, 0x4c5b31d29fd96eb6ULL) << std::hex << "reports 0x" << d.h;
  EXPECT_EQ(ParentDigest(tree), 0x469f2af5c73999caULL) << std::hex << "parents 0x" << ParentDigest(tree);
}

/// The same fault process through ChurnEngine, which owns the repair's
/// neighbour lookups and rng stream.
TEST(TreeGoldenTest, ChurnEngineRepairTotals) {
  testing::TestBed bed = testing::TestBed::Clustered(400, 8, 33);
  fault::FaultPlanOptions fopt;
  fopt.horizon = 40;
  fopt.crash_prob = 0.02;
  fopt.mean_downtime = 6;
  fault::FaultPlan plan = fault::FaultPlan::Generate(bed.topology, fopt, 0xC0FFEE);
  fault::ChurnEngine churn(bed.net.get(), &bed.tree, plan);
  Digest d;
  for (Epoch e = 0; e < fopt.horizon; ++e) {
    fault::ChurnReport report = churn.BeginEpoch(e);
    d.Mix(report.reattached);
    d.Mix(report.detached);
    d.Mix(ParentDigest(bed.tree));
  }
  EXPECT_GT(churn.total_reattached(), 0u);
  EXPECT_EQ(churn.repair_messages(), 1482u);
  EXPECT_EQ(d.h, 0x670e0c33dd444727ULL) << std::hex << "epochs 0x" << d.h;
}

}  // namespace
}  // namespace kspot::sim
