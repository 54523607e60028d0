#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "fault/churn_engine.hpp"
#include "fault/fault_plan.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace kspot::fault {
namespace {

using sim::kNoNode;
using sim::kSinkId;
using sim::NodeId;

sim::Topology GridTopology(size_t nodes, size_t rooms) {
  sim::TopologyOptions topt;
  topt.num_nodes = nodes;
  topt.num_rooms = rooms;
  return sim::MakeGrid(topt);
}

/// One repair pass over a fresh neighbour index of `topology`.
sim::RepairReport RepairTree(sim::RoutingTree& tree, const sim::Topology& topology,
                             const std::function<bool(NodeId)>& is_up, util::Rng& rng) {
  return tree.Repair(sim::NeighborIndex(topology), is_up, rng);
}

/// Every up node with a physical path to the sink through up nodes.
std::vector<uint8_t> PhysicallyReachable(const sim::Topology& topology,
                                         const std::vector<uint8_t>& up) {
  auto adj = testing::AllPairsAdjacency(topology);
  std::vector<uint8_t> reach(topology.num_nodes(), 0);
  std::vector<NodeId> stack = {kSinkId};
  reach[kSinkId] = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : adj[u]) {
      if (up[v] && !reach[v]) {
        reach[v] = 1;
        stack.push_back(v);
      }
    }
  }
  return reach;
}

/// Structural invariants every repaired tree must satisfy.
void ExpectTreeInvariants(const sim::RoutingTree& tree, const sim::Topology& topology,
                          const std::vector<uint8_t>& up) {
  size_t n = tree.num_nodes();
  auto reach = PhysicallyReachable(topology, up);
  std::set<NodeId> pre(tree.pre_order().begin(), tree.pre_order().end());
  for (NodeId v = 0; v < n; ++v) {
    if (v == kSinkId) {
      EXPECT_TRUE(tree.attached(v));
      EXPECT_EQ(tree.parent(v), kNoNode);
      continue;
    }
    // Dead nodes are fully stripped: no parent, no children, not attached.
    if (!up[v]) {
      EXPECT_EQ(tree.parent(v), kNoNode) << v;
      EXPECT_TRUE(tree.children(v).empty()) << v;
      EXPECT_FALSE(tree.attached(v)) << v;
      continue;
    }
    // Up nodes are attached exactly when physically reachable over up nodes.
    EXPECT_EQ(tree.attached(v), reach[v] != 0) << v;
    if (tree.attached(v)) {
      NodeId p = tree.parent(v);
      ASSERT_NE(p, kNoNode) << v;
      EXPECT_TRUE(up[p]) << v;
      EXPECT_TRUE(tree.attached(p)) << v;
      EXPECT_EQ(tree.depth(v), tree.depth(p) + 1) << v;
      const auto& siblings = tree.children(p);
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), v), siblings.end());
      EXPECT_TRUE(pre.count(v)) << v;
    } else {
      EXPECT_FALSE(pre.count(v)) << v;
    }
  }
  // pre_order lists parents before children; post_order the reverse.
  std::set<NodeId> seen;
  for (NodeId v : tree.pre_order()) {
    if (v != kSinkId) {
      EXPECT_TRUE(seen.count(tree.parent(v))) << v;
    }
    seen.insert(v);
  }
  EXPECT_EQ(tree.post_order().size(), tree.pre_order().size());
  EXPECT_EQ(tree.AttachedCount(), tree.pre_order().size());
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, DeterministicFromSeed) {
  sim::Topology topology = GridTopology(49, 8);
  FaultPlanOptions opt;
  opt.horizon = 200;
  opt.crash_prob = 0.01;
  opt.mean_downtime = 10;
  opt.degrade_prob = 0.005;
  FaultPlan a = FaultPlan::Generate(topology, opt, 7);
  FaultPlan b = FaultPlan::Generate(topology, opt, 7);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].extra_loss, b.events[i].extra_loss);
  }
  FaultPlan c = FaultPlan::Generate(topology, opt, 8);
  EXPECT_FALSE(a.events.size() == c.events.size() &&
               std::equal(a.events.begin(), a.events.end(), c.events.begin(),
                          [](const FaultEvent& x, const FaultEvent& y) {
                            return x.at == y.at && x.node == y.node && x.kind == y.kind;
                          }));
}

TEST(FaultPlanTest, EventsSortedSparedSinkAndInsideHorizon) {
  sim::Topology topology = GridTopology(49, 8);
  FaultPlanOptions opt;
  opt.horizon = 100;
  opt.crash_prob = 0.02;
  opt.mean_downtime = 20;
  opt.degrade_prob = 0.02;
  FaultPlan plan = FaultPlan::Generate(topology, opt, 3);
  EXPECT_GT(plan.CountKind(FaultEvent::Kind::kCrash), 0u);
  EXPECT_GT(plan.CountKind(FaultEvent::Kind::kRecover), 0u);
  for (size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
  }
  for (const FaultEvent& ev : plan.events) {
    EXPECT_NE(ev.node, kSinkId);
    EXPECT_GE(ev.at, 1u);  // epoch 0 stays clean
    EXPECT_LT(ev.at, opt.horizon);
  }
  // Degradation starts and ends alternate per node, and every start carries
  // the configured loss.
  EXPECT_GT(plan.CountKind(FaultEvent::Kind::kDegradeStart), 0u);
  std::vector<int> degraded(topology.num_nodes(), 0);
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind == FaultEvent::Kind::kDegradeStart) {
      EXPECT_EQ(degraded[ev.node], 0) << "double start on node " << ev.node;
      EXPECT_EQ(ev.extra_loss, opt.degrade_extra_loss);
      degraded[ev.node] = 1;
    } else if (ev.kind == FaultEvent::Kind::kDegradeEnd) {
      EXPECT_EQ(degraded[ev.node], 1) << "end without start on node " << ev.node;
      degraded[ev.node] = 0;
    }
  }
}

TEST(FaultPlanTest, RecoveryFollowsCrashPerNode) {
  sim::Topology topology = GridTopology(25, 4);
  FaultPlanOptions opt;
  opt.horizon = 300;
  opt.crash_prob = 0.01;
  opt.mean_downtime = 8;
  FaultPlan plan = FaultPlan::Generate(topology, opt, 11);
  // Per node, crash and recover events alternate starting with a crash.
  std::vector<int> state(topology.num_nodes(), 0);  // 0 = up, 1 = down
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind == FaultEvent::Kind::kCrash) {
      EXPECT_EQ(state[ev.node], 0) << "double crash on node " << ev.node;
      state[ev.node] = 1;
    } else if (ev.kind == FaultEvent::Kind::kRecover) {
      EXPECT_EQ(state[ev.node], 1) << "recovery without crash on node " << ev.node;
      state[ev.node] = 0;
    }
  }
}

/// FNV-1a over the full event stream (epoch, kind, node, quantized loss).
uint64_t PlanDigest(const FaultPlan& plan) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const FaultEvent& ev : plan.events) {
    mix(ev.at);
    mix(static_cast<uint64_t>(ev.kind));
    mix(ev.node);
    mix(static_cast<uint64_t>(ev.extra_loss * 1e6));
  }
  return h;
}

FaultPlanOptions GoldenOptions() {
  FaultPlanOptions opt;
  opt.horizon = 120;
  opt.crash_prob = 0.01;
  opt.mean_downtime = 10;
  opt.degrade_prob = 0.008;
  opt.degrade_extra_loss = 0.35;
  opt.degrade_duration = 6;
  return opt;
}

// Golden pin of the generated plan for fixed seeds. Any change to the
// sampling scheme, the per-node substream derivation, the sweep order, or
// the horizon boundary handling moves these digests — regenerating them is
// a deliberate, reviewed act, never a silent drift.
TEST(FaultPlanTest, GoldenPlanPinnedForFixedSeeds) {
  sim::Topology topology = GridTopology(49, 8);
  FaultPlan plan = FaultPlan::Generate(topology, GoldenOptions(), 2026);
  EXPECT_EQ(plan.events.size(), 167u);
  EXPECT_EQ(plan.CountKind(FaultEvent::Kind::kCrash), 45u);
  EXPECT_EQ(plan.CountKind(FaultEvent::Kind::kRecover), 41u);
  EXPECT_EQ(plan.CountKind(FaultEvent::Kind::kDegradeStart), 41u);
  EXPECT_EQ(plan.CountKind(FaultEvent::Kind::kDegradeEnd), 40u);
  EXPECT_EQ(PlanDigest(plan), 0x83ee4679875e41f9ULL);
  // The head of the stream, spelled out so a digest mismatch has a
  // human-readable witness.
  ASSERT_GE(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].at, 2u);
  EXPECT_EQ(plan.events[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(plan.events[0].node, 3u);
  EXPECT_EQ(plan.events[1].at, 2u);
  EXPECT_EQ(plan.events[1].node, 14u);
  EXPECT_EQ(plan.events[2].at, 6u);
  EXPECT_EQ(plan.events[2].kind, FaultEvent::Kind::kDegradeStart);
  EXPECT_EQ(plan.events[2].node, 5u);
  EXPECT_DOUBLE_EQ(plan.events[2].extra_loss, 0.35);
  EXPECT_EQ(plan.events[3].at, 7u);
  EXPECT_EQ(plan.events[3].kind, FaultEvent::Kind::kDegradeStart);
  EXPECT_EQ(plan.events[3].node, 20u);

  FaultPlan other = FaultPlan::Generate(topology, GoldenOptions(), 7);
  EXPECT_EQ(other.events.size(), 199u);
  EXPECT_EQ(PlanDigest(other), 0x02fc031decf6b787ULL);
}

// The horizon boundary audit: truncating the horizon must act as a pure
// filter on the event stream — events strictly before the shorter horizon
// (including at exactly horizon-1) are identical, and nothing else sneaks
// in. In particular a recovery that lands at or past the shorter horizon
// vanishes and its node simply stays down.
TEST(FaultPlanTest, ShorterHorizonIsPurePrefixFilter) {
  sim::Topology topology = GridTopology(49, 8);
  FaultPlanOptions opt = GoldenOptions();
  FaultPlan longer = FaultPlan::Generate(topology, opt, 2026);
  for (sim::Epoch horizon : {120u, 90u, 61u, 17u, 2u}) {
    FaultPlanOptions shorter_opt = opt;
    shorter_opt.horizon = horizon;
    FaultPlan shorter = FaultPlan::Generate(topology, shorter_opt, 2026);
    std::vector<FaultEvent> expect;
    for (const FaultEvent& ev : longer.events) {
      if (ev.at < horizon) expect.push_back(ev);
    }
    ASSERT_EQ(shorter.events.size(), expect.size()) << "horizon " << horizon;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(shorter.events[i].at, expect[i].at);
      EXPECT_EQ(shorter.events[i].kind, expect[i].kind);
      EXPECT_EQ(shorter.events[i].node, expect[i].node);
      EXPECT_EQ(shorter.events[i].extra_loss, expect[i].extra_loss);
    }
  }
}

TEST(FaultPlanTest, RecoveriesPastHorizonLeaveNodesDown) {
  sim::Topology topology = GridTopology(25, 4);
  FaultPlanOptions opt;
  opt.horizon = 5;
  opt.crash_prob = 1.0;       // every node crashes at epoch 1
  opt.mean_downtime = 100;    // downtimes mostly outlast the horizon
  opt.max_down_fraction = 1.0;
  FaultPlan plan = FaultPlan::Generate(topology, opt, 9);
  // Every sensor crashes at epoch 1; the handful whose short downtimes land
  // inside the horizon recover and (with p = 1) immediately crash again.
  EXPECT_GE(plan.CountKind(FaultEvent::Kind::kCrash), topology.num_sensors());
  std::vector<int> down(topology.num_nodes(), 0);
  for (const FaultEvent& ev : plan.events) {
    EXPECT_LT(ev.at, opt.horizon);
    if (ev.kind == FaultEvent::Kind::kCrash) down[ev.node] = 1;
    if (ev.kind == FaultEvent::Kind::kRecover) {
      EXPECT_EQ(down[ev.node], 1);
      down[ev.node] = 0;
    }
  }
  // With 1 + NextBounded(200) epochs of downtime from epoch 1, at least one
  // node's recovery lands past epoch 4 and is dropped: it stays down.
  size_t still_down = 0;
  for (sim::NodeId v = 1; v < topology.num_nodes(); ++v) still_down += down[v];
  EXPECT_GT(still_down, 0u);
}

TEST(FaultPlanTest, DegenerateHorizonsAndZeroCapYieldEmptyPlans) {
  sim::Topology topology = GridTopology(25, 4);
  FaultPlanOptions opt;
  opt.crash_prob = 1.0;
  opt.degrade_prob = 1.0;
  opt.mean_downtime = 3;
  opt.max_down_fraction = 1.0;
  for (sim::Epoch horizon : {0u, 1u}) {
    opt.horizon = horizon;
    EXPECT_TRUE(FaultPlan::Generate(topology, opt, 4).events.empty()) << horizon;
  }
  // Horizon 2 leaves exactly epoch 1: with p = 1 every sensor crashes there
  // (the last schedulable epoch is horizon - 1).
  opt.horizon = 2;
  opt.degrade_prob = 0.0;
  FaultPlan edge = FaultPlan::Generate(topology, opt, 4);
  EXPECT_EQ(edge.events.size(), topology.num_sensors());
  for (const FaultEvent& ev : edge.events) {
    EXPECT_EQ(ev.at, 1u);
    EXPECT_EQ(ev.kind, FaultEvent::Kind::kCrash);
  }
  // A zero max-down cap forbids every crash, exactly like the per-epoch
  // generator's short-circuited draw.
  opt.horizon = 50;
  opt.max_down_fraction = 0.0;
  EXPECT_TRUE(FaultPlan::Generate(topology, opt, 4).events.empty());
  // Zero probabilities draw nothing, whatever the cap.
  opt.max_down_fraction = 1.0;
  opt.crash_prob = 0.0;
  EXPECT_TRUE(FaultPlan::Generate(topology, opt, 4).events.empty());
  // A sink-only deployment has no sensor to fail.
  opt.crash_prob = 1.0;
  opt.degrade_prob = 1.0;
  EXPECT_TRUE(FaultPlan::Generate(GridTopology(1, 1), opt, 4).events.empty());
}

TEST(FaultPlanTest, CrashIncidenceMatchesBernoulliProcess) {
  // Distributional sanity for the geometric skip-sampling: with permanent
  // crashes the fraction of sensors that ever crash over H-1 eligible epochs
  // must track 1 - (1-p)^(H-1). 400 sensors, p=0.002, H=200: expectation
  // ~0.328, sigma ~0.023 — a +/- 5 sigma band stays meaningful.
  sim::Topology topology = GridTopology(401, 16);
  FaultPlanOptions opt;
  opt.horizon = 200;
  opt.crash_prob = 0.002;
  opt.mean_downtime = 0;
  opt.max_down_fraction = 1.0;
  size_t crashes = 0;
  FaultPlan plan = FaultPlan::Generate(topology, opt, 31337);
  crashes = plan.CountKind(FaultEvent::Kind::kCrash);
  double frac = static_cast<double>(crashes) / static_cast<double>(topology.num_sensors());
  EXPECT_GT(frac, 0.328 - 5 * 0.023);
  EXPECT_LT(frac, 0.328 + 5 * 0.023);
}

TEST(FaultPlanTest, RespectsMaxDownFraction) {
  sim::Topology topology = GridTopology(25, 4);
  FaultPlanOptions opt;
  opt.horizon = 400;
  opt.crash_prob = 0.5;  // hot plan
  opt.mean_downtime = 0;  // permanent, so the cap binds
  opt.max_down_fraction = 0.25;
  FaultPlan plan = FaultPlan::Generate(topology, opt, 5);
  size_t cap = static_cast<size_t>(0.25 * static_cast<double>(topology.num_sensors()));
  EXPECT_LE(plan.CountKind(FaultEvent::Kind::kCrash), cap);
}

TEST(FaultPlanDeathTest, MaxDownFractionOutsideUnitIntervalAborts) {
  sim::Topology topology = GridTopology(25, 4);
  FaultPlanOptions opt;
  opt.horizon = 50;
  opt.crash_prob = 0.1;
  for (double fraction : {-0.5, 1.5, std::nan("")}) {
    opt.max_down_fraction = fraction;
    EXPECT_DEATH(FaultPlan::Generate(topology, opt, 1), "max_down_fraction must lie in")
        << fraction;
  }
}

// A downtime scale of 2^31 must not wrap: in 32 bits 2 * mean_downtime is 0,
// which would bring every crashed node back one epoch later.
TEST(FaultPlanTest, HugeMeanDowntimeNeverRecoversInsideHorizon) {
  sim::Topology topology = GridTopology(25, 4);
  FaultPlanOptions opt;
  opt.horizon = 300;
  opt.crash_prob = 1.0;
  opt.mean_downtime = 1u << 31;
  opt.max_down_fraction = 1.0;
  FaultPlan plan = FaultPlan::Generate(topology, opt, 5);
  EXPECT_EQ(plan.CountKind(FaultEvent::Kind::kCrash), topology.num_sensors());
  EXPECT_EQ(plan.CountKind(FaultEvent::Kind::kRecover), 0u);
}

/// Checks the invariants every generated plan keeps, whatever its options.
void ExpectPlanInvariants(const sim::Topology& topology, const FaultPlanOptions& opt,
                          const FaultPlan& plan) {
  auto cap = static_cast<size_t>(opt.max_down_fraction *
                                 static_cast<double>(topology.num_sensors()));
  std::vector<int> down(topology.num_nodes(), 0);
  std::vector<int> degraded(topology.num_nodes(), 0);
  size_t down_count = 0;
  for (size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& ev = plan.events[i];
    if (i > 0) {
      EXPECT_LE(plan.events[i - 1].at, ev.at) << "unsorted at " << i;
    }
    ASSERT_NE(ev.node, kSinkId);
    ASSERT_LT(ev.node, topology.num_nodes());
    EXPECT_GE(ev.at, 1u);
    EXPECT_LT(ev.at, opt.horizon);
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
        EXPECT_EQ(down[ev.node], 0) << "double crash on " << ev.node;
        down[ev.node] = 1;
        ++down_count;
        EXPECT_LE(down_count, cap);
        break;
      case FaultEvent::Kind::kRecover:
        ASSERT_EQ(down[ev.node], 1) << "recovery without crash on " << ev.node;
        down[ev.node] = 0;
        --down_count;
        break;
      case FaultEvent::Kind::kDegradeStart:
        EXPECT_EQ(down[ev.node], 0) << "degradation starts while down on " << ev.node;
        EXPECT_EQ(degraded[ev.node], 0) << "double degradation on " << ev.node;
        EXPECT_EQ(ev.extra_loss, opt.degrade_extra_loss);
        degraded[ev.node] = 1;
        break;
      case FaultEvent::Kind::kDegradeEnd:
        EXPECT_EQ(degraded[ev.node], 1) << "end without start on " << ev.node;
        degraded[ev.node] = 0;
        break;
    }
  }
}

// Extreme options, table-driven: every corner keeps the plan invariants and
// the seed still determines the plan.
TEST(FaultPlanTest, ExtremeOptionsKeepPlanInvariants) {
  FaultPlanOptions hot;
  hot.horizon = 40;
  hot.crash_prob = 1.0;
  hot.degrade_prob = 1.0;
  hot.mean_downtime = 3;
  hot.max_down_fraction = 1.0;
  struct Case {
    const char* name;
    size_t nodes;
    FaultPlanOptions opt;
  };
  std::vector<Case> cases;
  auto add = [&](const char* name, size_t nodes, auto&& tweak) {
    FaultPlanOptions opt = hot;
    tweak(opt);
    cases.push_back({name, nodes, opt});
  };
  add("probabilities 1", 25, [](FaultPlanOptions&) {});
  add("probabilities 0", 25, [](FaultPlanOptions& o) { o.crash_prob = o.degrade_prob = 0.0; });
  add("crash only", 25, [](FaultPlanOptions& o) { o.degrade_prob = 0.0; });
  add("degradation only", 25, [](FaultPlanOptions& o) { o.crash_prob = 0.0; });
  add("horizon 0", 25, [](FaultPlanOptions& o) { o.horizon = 0; });
  add("horizon 1", 25, [](FaultPlanOptions& o) { o.horizon = 1; });
  add("horizon 2", 25, [](FaultPlanOptions& o) { o.horizon = 2; });
  add("max_down 0", 25, [](FaultPlanOptions& o) { o.max_down_fraction = 0.0; });
  add("max_down 0.5", 25, [](FaultPlanOptions& o) { o.max_down_fraction = 0.5; });
  add("sink only", 1, [](FaultPlanOptions&) {});
  add("one sensor", 2, [](FaultPlanOptions&) {});
  // A crash wins its epoch's tie with a degradation, so at crash_prob 1 the
  // episode cases would never start one.
  add("degrade_duration 0", 25, [](FaultPlanOptions& o) {
    o.crash_prob = 0.5;
    o.degrade_duration = 0;
  });
  add("degrade_duration max", 25, [](FaultPlanOptions& o) {
    o.crash_prob = 0.5;
    o.degrade_duration = UINT32_MAX;
  });
  add("mean_downtime 0", 25, [](FaultPlanOptions& o) { o.mean_downtime = 0; });
  add("mean_downtime max", 25,
      [](FaultPlanOptions& o) { o.mean_downtime = UINT32_MAX; });
  add("degrade_extra_loss 1", 25, [](FaultPlanOptions& o) {
    o.crash_prob = 0.0;
    o.degrade_extra_loss = 1.0;
  });
  add("half-hot", 25, [](FaultPlanOptions& o) {
    o.crash_prob = 0.5;
    o.degrade_prob = 0.5;
    o.mean_downtime = 1;
    o.degrade_duration = 1;
  });
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sim::Topology topology = GridTopology(c.nodes, 4);
    for (uint64_t seed : {1u, 2u, 3u}) {
      FaultPlan plan = FaultPlan::Generate(topology, c.opt, seed);
      ExpectPlanInvariants(topology, c.opt, plan);
      FaultPlan again = FaultPlan::Generate(topology, c.opt, seed);
      ASSERT_EQ(plan.events.size(), again.events.size());
      for (size_t i = 0; i < plan.events.size(); ++i) {
        EXPECT_EQ(plan.events[i].at, again.events[i].at);
        EXPECT_EQ(plan.events[i].kind, again.events[i].kind);
        EXPECT_EQ(plan.events[i].node, again.events[i].node);
        EXPECT_EQ(plan.events[i].extra_loss, again.events[i].extra_loss);
      }
    }
  }
}

// ---------------------------------------------------- RoutingTree::Repair

TEST(TreeRepairTest, StripsDeadAndReattachesAllReachable) {
  sim::Topology topology = GridTopology(49, 8);
  util::Rng build_rng(1);
  sim::RoutingTree tree = sim::RoutingTree::BuildClusterAware(topology, build_rng);
  std::vector<uint8_t> up(topology.num_nodes(), 1);
  util::Rng kill_rng(99);
  for (NodeId v = 1; v < topology.num_nodes(); ++v) {
    if (kill_rng.NextBernoulli(0.2)) up[v] = 0;
  }
  util::Rng repair_rng(7);
  sim::RepairReport report =
      RepairTree(tree, topology, [&](NodeId id) { return up[id] != 0; }, repair_rng);
  EXPECT_TRUE(report.changed);
  EXPECT_GT(report.dead_removed, 0u);
  ExpectTreeInvariants(tree, topology, up);
}

TEST(TreeRepairTest, NoOpWhenNothingDied) {
  sim::Topology topology = GridTopology(25, 4);
  util::Rng build_rng(1);
  sim::RoutingTree tree = sim::RoutingTree::BuildClusterAware(topology, build_rng);
  std::vector<NodeId> before;
  for (NodeId v = 0; v < topology.num_nodes(); ++v) before.push_back(tree.parent(v));
  util::Rng repair_rng(7);
  sim::RepairReport report = RepairTree(tree, topology, [](NodeId) { return true; }, repair_rng);
  EXPECT_FALSE(report.changed);
  EXPECT_TRUE(report.reattached.empty());
  for (NodeId v = 0; v < topology.num_nodes(); ++v) EXPECT_EQ(tree.parent(v), before[v]);
}

TEST(TreeRepairTest, DeterministicAcrossIdenticalRuns) {
  sim::Topology topology = GridTopology(100, 16);
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    util::Rng ra(seed), rb(seed);
    sim::RoutingTree ta = sim::RoutingTree::BuildClusterAware(topology, ra);
    sim::RoutingTree tb = sim::RoutingTree::BuildClusterAware(topology, rb);
    std::vector<uint8_t> up(topology.num_nodes(), 1);
    util::Rng kill_rng(seed * 31);
    for (NodeId v = 1; v < topology.num_nodes(); ++v) {
      if (kill_rng.NextBernoulli(0.15)) up[v] = 0;
    }
    util::Rng rra(seed ^ 0xAB), rrb(seed ^ 0xAB);
    auto is_up = [&](NodeId id) { return up[id] != 0; };
    RepairTree(ta, topology, is_up, rra);
    RepairTree(tb, topology, is_up, rrb);
    for (NodeId v = 0; v < topology.num_nodes(); ++v) {
      EXPECT_EQ(ta.parent(v), tb.parent(v)) << "seed " << seed << " node " << v;
    }
    EXPECT_EQ(ta.pre_order(), tb.pre_order());
  }
}

TEST(TreeRepairTest, OrphanPrefersSameRoomParent) {
  // 0 sink(0,0) r0; 1 (1,0) r1; 2 (1,1) r2; 3 (2.9,0.5) r1 (dies);
  // 4 (2,0.5) r2, child of 3. With range 1.2 the orphan 4 hears both 1 (r1)
  // and 2 (r2) and must adopt its roommate 2.
  sim::Topology topology({{0, 0}, {1, 0}, {1, 1}, {2.9, 0.5}, {2, 0.5}},
                         {0, 1, 2, 1, 2}, /*comm_range=*/1.2);
  sim::RoutingTree tree = sim::RoutingTree::FromParents({kNoNode, 0, 0, 1, 3});
  std::vector<uint8_t> up = {1, 1, 1, 0, 1};
  for (uint64_t seed = 0; seed < 8; ++seed) {  // any beacon arrival order
    sim::RoutingTree t = tree;
    util::Rng rng(seed);
    sim::RepairReport report =
        RepairTree(t, topology, [&](NodeId id) { return up[id] != 0; }, rng);
    ASSERT_EQ(report.reattached.size(), 1u);
    EXPECT_EQ(report.reattached[0].node, 4);
    EXPECT_EQ(t.parent(4), 2) << "seed " << seed;
    EXPECT_TRUE(t.attached(4));
  }
  // Without the roommate the orphan falls back to first-heard (node 1).
  up[2] = 0;
  util::Rng rng(3);
  sim::RoutingTree t = tree;
  RepairTree(t, topology, [&](NodeId id) { return up[id] != 0; }, rng);
  EXPECT_EQ(t.parent(4), 1);
}

TEST(TreeRepairTest, SinkAdjacentFailureReattachesWholeSubtree) {
  sim::Topology topology = GridTopology(100, 16);
  util::Rng build_rng(5);
  sim::RoutingTree tree = sim::RoutingTree::BuildClusterAware(topology, build_rng);
  // Kill the sink child with the largest subtree — the worst single failure.
  NodeId victim = kNoNode;
  size_t biggest = 0;
  for (NodeId c : tree.children(kSinkId)) {
    if (tree.SubtreeSize(c) > biggest) {
      biggest = tree.SubtreeSize(c);
      victim = c;
    }
  }
  ASSERT_NE(victim, kNoNode);
  ASSERT_GT(biggest, 1u);
  std::vector<uint8_t> up(topology.num_nodes(), 1);
  up[victim] = 0;
  util::Rng repair_rng(9);
  sim::RepairReport report =
      RepairTree(tree, topology, [&](NodeId id) { return up[id] != 0; }, repair_rng);
  EXPECT_GE(report.reattached.size(), 1u);
  ExpectTreeInvariants(tree, topology, up);
  // A grid stays connected after one interior failure: nobody detached.
  EXPECT_EQ(report.detached, 0u);
  EXPECT_EQ(tree.AttachedCount(), topology.num_nodes() - 1);
}

TEST(TreeRepairTest, PartitionLeavesNodesDetachedUntilRecovery) {
  // A chain 0-1-2: killing 1 strands 2; reviving 1 re-attaches both.
  sim::Topology topology({{0, 0}, {1, 0}, {2, 0}}, {0, 0, 0}, /*comm_range=*/1.2);
  sim::RoutingTree tree = sim::RoutingTree::FromParents({kNoNode, 0, 1});
  std::vector<uint8_t> up = {1, 0, 1};
  util::Rng rng(1);
  sim::RepairReport report =
      RepairTree(tree, topology, [&](NodeId id) { return up[id] != 0; }, rng);
  EXPECT_EQ(report.detached, 1u);
  EXPECT_FALSE(tree.attached(2));
  EXPECT_EQ(tree.parent(2), kNoNode);
  up[1] = 1;
  sim::RepairReport second =
      RepairTree(tree, topology, [&](NodeId id) { return up[id] != 0; }, rng);
  EXPECT_EQ(second.detached, 0u);
  EXPECT_TRUE(tree.attached(1));
  EXPECT_TRUE(tree.attached(2));
}

// -------------------------------------------------------------- ChurnEngine

TEST(ChurnEngineTest, AppliesScheduledEventsAndRepairs) {
  testing::TestBed bed = testing::TestBed::Grid(25, 4, 21);
  FaultPlan plan;
  plan.seed = 21;
  // Node 5 blacks out (an episode at loss 1.0) over epochs [3, 5). Its link
  // to a peer clear of every other event is measured against the baseline.
  NodeId dark = 5;
  NodeId peer = bed.tree.parent(dark);
  ASSERT_NE(peer, 3u);
  ASSERT_NE(peer, 7u);
  plan.events = {{2, FaultEvent::Kind::kCrash, 7, 0.0},
                 {3, FaultEvent::Kind::kDegradeStart, dark, 1.0},
                 {4, FaultEvent::Kind::kDegradeStart, 3, 0.4},
                 {5, FaultEvent::Kind::kDegradeEnd, dark, 0.0},
                 {6, FaultEvent::Kind::kRecover, 7, 0.0},
                 {8, FaultEvent::Kind::kDegradeEnd, 3, 0.0}};
  ChurnEngine churn(bed.net.get(), &bed.tree, plan);
  double baseline = bed.net->LinkLossProb(dark, peer);

  ChurnReport r0 = churn.BeginEpoch(0);
  EXPECT_FALSE(r0.topology_changed);
  EXPECT_TRUE(bed.net->NodeAlive(7));

  ChurnReport r2 = churn.BeginEpoch(2);
  EXPECT_EQ(r2.crashes, 1u);
  EXPECT_TRUE(r2.topology_changed);
  EXPECT_FALSE(bed.net->NodeAlive(7));
  EXPECT_FALSE(bed.tree.attached(7));

  ChurnReport r3 = churn.BeginEpoch(3);
  EXPECT_EQ(r3.degrade_changes, 1u);
  EXPECT_EQ(bed.net->LinkLossProb(dark, peer), 1.0);

  ChurnReport r4 = churn.BeginEpoch(4);
  EXPECT_EQ(r4.degrade_changes, 1u);
  EXPECT_FALSE(r4.topology_changed);  // degradation alone never repairs
  // The episode's loss passes through bit-exactly: no compounding
  // arithmetic touches it (1 - (1 - x) != x in doubles).
  EXPECT_EQ(bed.net->NodeExtraLoss(3), 0.4);
  EXPECT_EQ(bed.net->LinkLossProb(dark, peer), 1.0);

  churn.BeginEpoch(5);
  EXPECT_EQ(bed.net->NodeExtraLoss(dark), 0.0);
  EXPECT_EQ(bed.net->LinkLossProb(dark, peer), baseline);

  ChurnReport r6 = churn.BeginEpoch(6);
  EXPECT_EQ(r6.recoveries, 1u);
  EXPECT_TRUE(r6.topology_changed);
  EXPECT_TRUE(bed.net->NodeAlive(7));
  EXPECT_TRUE(bed.tree.attached(7));

  ChurnReport r8 = churn.BeginEpoch(8);
  EXPECT_EQ(bed.net->NodeExtraLoss(3), 0.0);
  EXPECT_FALSE(r8.topology_changed);
  EXPECT_GE(churn.repair_events(), 2u);
}

TEST(ChurnEngineTest, ChargesJoinHandshakesToRepairPhase) {
  testing::TestBed bed = testing::TestBed::Grid(49, 8, 33);
  // Kill an interior node with children so the repair must re-parent.
  NodeId victim = kNoNode;
  for (NodeId v = 1; v < bed.topology.num_nodes(); ++v) {
    if (!bed.tree.children(v).empty()) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  FaultPlan plan;
  plan.seed = 33;
  plan.events = {{1, FaultEvent::Kind::kCrash, victim, 0.0}};
  ChurnEngine churn(bed.net.get(), &bed.tree, plan);
  churn.BeginEpoch(0);
  ChurnReport report = churn.BeginEpoch(1);
  EXPECT_GE(report.reattached, 1u);
  EXPECT_EQ(churn.repair_messages(), 2u * report.reattached);
  EXPECT_EQ(bed.net->PhaseTotal("fault.repair").messages, churn.repair_messages());
  EXPECT_GT(bed.net->PhaseTotal("fault.repair").tx_energy_j, 0.0);
}

TEST(ChurnEngineTest, DetectsBatteryDeathAndRepairs) {
  sim::NetworkOptions net_opt;
  net_opt.battery_j = 1e-4;  // a frame or two
  testing::TestBed bed = testing::TestBed::Grid(9, 4, 5);
  bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, net_opt,
                                           util::Rng(5 ^ 0xBEEF));
  ChurnEngine churn(bed.net.get(), &bed.tree, FaultPlan{});
  EXPECT_FALSE(churn.BeginEpoch(0).topology_changed);
  // Burn a node's battery with traffic, then the next epoch must notice.
  NodeId leaf = bed.tree.post_order().front();
  ASSERT_NE(leaf, kSinkId);
  while (bed.net->meter(leaf).alive()) bed.net->UnicastToParent(leaf, 64);
  ChurnReport report = churn.BeginEpoch(1);
  EXPECT_GE(report.battery_deaths, 1u);
  EXPECT_TRUE(report.topology_changed);
  EXPECT_FALSE(bed.tree.attached(leaf));
}

TEST(ChurnEngineTest, SinkBatteryDeathEndsRepairsInsteadOfAdoptingDeadSink) {
  sim::NetworkOptions net_opt;
  net_opt.battery_j = 1e-4;
  testing::TestBed bed = testing::TestBed::Grid(9, 4, 5, net_opt);
  ChurnEngine churn(bed.net.get(), &bed.tree, FaultPlan{});
  churn.BeginEpoch(0);
  // Drain the sink (it receives every message, so this is the realistic
  // first casualty when the base station is battery-budgeted by mistake).
  NodeId child = bed.tree.children(kSinkId).front();
  while (bed.net->meter(kSinkId).alive()) bed.net->UnicastToParent(child, 64);
  ChurnReport report = churn.BeginEpoch(1);
  EXPECT_GE(report.battery_deaths, 1u);
  // No repair runs against a dead sink: nobody is re-adopted under it and
  // no handshakes are charged into the black hole.
  EXPECT_EQ(report.reattached, 0u);
  EXPECT_EQ(churn.repair_messages(), 0u);
  EXPECT_FALSE(bed.net->NodeAlive(kSinkId));
}

// ------------------------------------------------- Network fault controls

TEST(NetworkFaultTest, AdminDownBlocksTrafficWithoutTouchingBattery) {
  testing::TestBed bed = testing::TestBed::Grid(9, 4, 5);
  NodeId leaf = bed.tree.post_order().front();
  ASSERT_NE(leaf, kSinkId);
  EXPECT_TRUE(bed.net->UnicastToParent(leaf, 16));
  bed.net->SetNodeUp(leaf, false);
  EXPECT_FALSE(bed.net->NodeAlive(leaf));
  EXPECT_TRUE(bed.net->meter(leaf).alive());  // battery untouched by the crash
  EXPECT_FALSE(bed.net->UnicastToParent(leaf, 16));
  size_t alive_down = bed.net->AliveCount();
  bed.net->SetNodeUp(leaf, true);
  EXPECT_EQ(bed.net->AliveCount(), alive_down + 1);
  EXPECT_TRUE(bed.net->UnicastToParent(leaf, 16));
}

TEST(NetworkFaultTest, ExtraLossCompoundsOnLinks) {
  testing::TestBed bed = testing::TestBed::Grid(9, 4, 5);
  NodeId leaf = bed.tree.post_order().front();
  NodeId parent = bed.tree.parent(leaf);
  double base = bed.net->LinkLossProb(leaf, parent);
  bed.net->SetNodeExtraLoss(leaf, 0.3);
  double one_end = bed.net->LinkLossProb(leaf, parent);
  EXPECT_NEAR(one_end, base + (1 - base) * 0.3, 1e-12);
  bed.net->SetNodeExtraLoss(parent, 0.5);
  double both_ends = bed.net->LinkLossProb(leaf, parent);
  EXPECT_NEAR(both_ends, 1 - (1 - one_end) * 0.5, 1e-12);
  EXPECT_LE(both_ends, 1.0);
}

}  // namespace
}  // namespace kspot::fault
