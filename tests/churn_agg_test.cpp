#include <gtest/gtest.h>

#include <memory>

#include "core/fila.hpp"
#include "core/mint.hpp"
#include "core/oracle.hpp"
#include "core/tag.hpp"
#include "data/generators.hpp"
#include "fault/churn_engine.hpp"
#include "test_util.hpp"

namespace kspot::fault {
namespace {

using sim::NodeId;

core::QuerySpec RoomAvgSpec(int k) {
  core::QuerySpec spec;
  spec.k = k;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kRoom;
  spec.domain_max = 100.0;
  return spec;
}

std::unique_ptr<data::DataGenerator> RoomGen(const sim::Topology& topology, uint64_t seed) {
  std::vector<sim::GroupId> rooms;
  for (NodeId id = 0; id < topology.num_nodes(); ++id) rooms.push_back(topology.room(id));
  return std::make_unique<data::RoomCorrelatedGenerator>(
      std::move(rooms), data::Modality::kSound, 0.5, 0.5, util::Rng(seed), 0.0, 1.0);
}

/// A plan that kills, kills again, and revives — exercising shrink and
/// regrow of the contributing population.
FaultPlan HandPlan(NodeId first, NodeId second) {
  FaultPlan plan;
  plan.seed = 77;
  plan.events = {{3, FaultEvent::Kind::kCrash, first, 0.0},
                 {6, FaultEvent::Kind::kCrash, second, 0.0},
                 {9, FaultEvent::Kind::kRecover, first, 0.0}};
  return plan;
}

/// Runs `algo` through the plan and checks every epoch's answer against the
/// oracle evaluated over the population that could contribute that epoch
/// (alive and routable). Lossless links, so the match must be exact.
/// `full_contributors` asserts the answer saw every survivor — true for TAG
/// (it always collects everything); MINT's threshold pruning legitimately
/// keeps non-candidate groups out of the sink view, so it only gets a
/// bounds check.
template <typename Algo>
void ExpectMatchesSurvivorOracle(uint64_t seed, bool full_contributors) {
  testing::TestBed bed = testing::TestBed::Grid(25, 6, seed);
  core::QuerySpec spec = RoomAvgSpec(3);
  auto gen = RoomGen(bed.topology, seed);
  auto oracle_gen = RoomGen(bed.topology, seed);
  core::Oracle oracle(&bed.topology, oracle_gen.get(), spec);

  // Two interior victims (nodes with children stress re-attachment).
  NodeId first = 0, second = 0;
  for (NodeId v = 1; v < bed.topology.num_nodes(); ++v) {
    if (!bed.tree.children(v).empty()) {
      if (first == 0) {
        first = v;
      } else if (second == 0 && v != first) {
        second = v;
        break;
      }
    }
  }
  ASSERT_NE(first, 0);
  ASSERT_NE(second, 0);

  ChurnEngine churn(bed.net.get(), &bed.tree, HandPlan(first, second));
  Algo algo(bed.net.get(), gen.get(), spec);
  for (size_t e = 0; e < 12; ++e) {
    auto epoch = static_cast<sim::Epoch>(e);
    ChurnReport report = churn.BeginEpoch(epoch);
    if (report.topology_changed) algo.OnTopologyChanged();
    core::TopKResult got = algo.RunEpoch(epoch);
    core::TopKResult want = oracle.TopKOver(epoch, [&](NodeId id) {
      return bed.net->NodeAlive(id) && bed.tree.attached(id);
    });
    EXPECT_TRUE(got.Matches(want))
        << "epoch " << e << "\ngot:\n" << got.ToString() << "want:\n" << want.ToString();
    // Partial aggregation is visible: the answer reports how many sensors
    // actually contributed, bounded by (TAG: equal to) the survivors.
    EXPECT_GT(got.contributors, 0u) << "epoch " << e;
    EXPECT_LE(got.contributors, want.contributors) << "epoch " << e;
    if (full_contributors) {
      EXPECT_EQ(got.contributors, want.contributors) << "epoch " << e;
    }
  }
}

TEST(ChurnPartialAggTest, TagMatchesOracleOnSurvivorsOnly) {
  ExpectMatchesSurvivorOracle<core::TagTopK>(101, /*full_contributors=*/true);
}

TEST(ChurnPartialAggTest, MintMatchesOracleOnSurvivorsOnly) {
  ExpectMatchesSurvivorOracle<core::MintViews>(101, /*full_contributors=*/false);
}

TEST(ChurnPartialAggTest, ContributorCountShrinksWithDeaths) {
  testing::TestBed bed = testing::TestBed::Grid(25, 6, 7);
  core::QuerySpec spec = RoomAvgSpec(2);
  auto gen = RoomGen(bed.topology, 7);
  core::TagTopK tag(bed.net.get(), gen.get(), spec);
  core::TopKResult before = tag.RunEpoch(0);
  EXPECT_EQ(before.contributors, bed.topology.num_sensors());

  // Kill a leaf directly (no churn engine): TAG tolerates the missing child
  // without any notification because every epoch re-collects.
  NodeId leaf = bed.tree.post_order().front();
  bed.net->SetNodeUp(leaf, false);
  core::TopKResult after = tag.RunEpoch(1);
  EXPECT_EQ(after.contributors, bed.topology.num_sensors() - 1);
}

TEST(ChurnPartialAggTest, MintDropsGroupWhoseOnlySensorDied) {
  // Node-grouped query: each sensor is its own group, so a death must make
  // its group disappear from the answer after the rebuild.
  testing::TestBed bed = testing::TestBed::Grid(9, 4, 13);
  core::QuerySpec spec;
  spec.k = static_cast<int>(bed.topology.num_sensors());
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kNode;
  spec.domain_max = 100.0;
  auto gen = RoomGen(bed.topology, 13);

  FaultPlan plan;
  plan.seed = 13;
  NodeId victim = bed.tree.post_order().front();
  plan.events = {{2, FaultEvent::Kind::kCrash, victim, 0.0}};
  ChurnEngine churn(bed.net.get(), &bed.tree, plan);
  core::MintViews mint(bed.net.get(), gen.get(), spec);
  for (size_t e = 0; e < 5; ++e) {
    ChurnReport report = churn.BeginEpoch(static_cast<sim::Epoch>(e));
    if (report.topology_changed) mint.OnTopologyChanged();
    core::TopKResult got = mint.RunEpoch(static_cast<sim::Epoch>(e));
    bool has_victim = false;
    for (const auto& item : got.items) {
      if (item.group == static_cast<sim::GroupId>(victim)) has_victim = true;
    }
    EXPECT_EQ(has_victim, e < 2) << "epoch " << e;
  }
}

/// FILA under churn: the targeted eviction must (a) stop ranking dead nodes
/// on stale cached values, (b) keep the monitoring useful for the survivors,
/// and (c) stay a pure function of the seed (the churn determinism contract).
TEST(ChurnPartialAggTest, FilaEvictsDeadNodesAndStaysDeterministic) {
  core::QuerySpec spec;
  spec.k = 3;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kNode;
  spec.domain_max = 100.0;

  auto run = [&](std::vector<core::TopKResult>* out) -> double {
    testing::TestBed bed = testing::TestBed::Grid(25, 6, 23);
    auto gen = RoomGen(bed.topology, 23);
    auto oracle_gen = RoomGen(bed.topology, 23);
    core::Oracle oracle(&bed.topology, oracle_gen.get(), spec);
    core::Fila fila(bed.net.get(), gen.get(), spec);

    // Warm up, then crash whoever leads the ranking: its cached value is the
    // exact stale state the eviction must flush.
    core::TopKResult warm = fila.RunEpoch(0);
    NodeId victim = static_cast<NodeId>(warm.items.front().group);
    FaultPlan plan;
    plan.seed = 23;
    plan.events = {{2, FaultEvent::Kind::kCrash, victim, 0.0}};
    ChurnEngine churn(bed.net.get(), &bed.tree, plan);

    double recall_sum = 0.0;
    size_t scored = 0;
    for (size_t e = 1; e < 10; ++e) {
      auto epoch = static_cast<sim::Epoch>(e);
      ChurnReport report = churn.BeginEpoch(epoch);
      if (report.topology_changed) fila.OnTopologyChanged(report.delta);
      core::TopKResult got = fila.RunEpoch(epoch);
      if (out != nullptr) out->push_back(got);
      if (e >= 2) {
        for (const auto& item : got.items) {
          EXPECT_NE(item.group, static_cast<sim::GroupId>(victim))
              << "dead node still ranked at epoch " << e;
        }
        core::TopKResult want = oracle.TopKOver(epoch, [&](NodeId id) {
          return bed.net->NodeAlive(id) && bed.tree.attached(id);
        });
        recall_sum += got.RecallAgainst(want);
        ++scored;
      }
    }
    return scored > 0 ? recall_sum / static_cast<double>(scored) : 0.0;
  };

  std::vector<core::TopKResult> first;
  std::vector<core::TopKResult> second;
  double recall = run(&first);
  run(&second);
  EXPECT_GE(recall, 0.6) << "survivor monitoring collapsed after eviction";
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].Matches(second[i])) << "nondeterministic answer at index " << i;
  }
}

/// The conservative no-arg fallback wipes everything: the next epoch must
/// behave like a fresh initial collection over the survivors.
TEST(ChurnPartialAggTest, FilaFullEvictionReinitializes) {
  core::QuerySpec spec;
  spec.k = 2;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kNode;
  spec.domain_max = 100.0;
  testing::TestBed bed = testing::TestBed::Grid(16, 4, 31);
  auto gen = RoomGen(bed.topology, 31);
  core::Fila fila(bed.net.get(), gen.get(), spec);
  fila.RunEpoch(0);
  int broadcasts_before = fila.filter_updates();
  fila.OnTopologyChanged();
  core::TopKResult after = fila.RunEpoch(1);
  EXPECT_GT(fila.filter_updates(), broadcasts_before) << "re-init must re-arm filters";
  EXPECT_EQ(after.items.size(), 2u);
}

}  // namespace
}  // namespace kspot::fault
