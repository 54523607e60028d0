/// Tests for the end-to-end reliability layer: LinkLossProb clamping under
/// compounded episodes, the adaptive retry/backoff unicast core (EWMA
/// estimator, retry budgets, backoff charged as idle listening), epoch
/// deadlines with graceful degradation, completeness accounting
/// (TopKResult::completeness conservation on a lossless bed), and
/// the fault side's blackout / burst-loss episodes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/tag.hpp"
#include "fault/churn_engine.hpp"
#include "fault/fault_plan.hpp"
#include "sim/network.hpp"

namespace kspot {
namespace {

using sim::kSinkId;
using sim::NodeId;

// ------------------------------------------------ LinkLossProb clamping

TEST(LinkLossTest, ExtremeEdgeLossClampsToOne) {
  sim::NetworkOptions opt;
  opt.loss_prob = 0.1;
  opt.edge_max_loss = 3.0;  // misconfigured: would push p to 2.8 unclamped
  opt.edge_onset = 0.5;
  bench::Bed bed = bench::Bed::Grid(49, 8, 11, opt);
  // A pair well beyond the communication range maxes out the gray zone.
  NodeId far_a = 1;
  auto far_b = static_cast<NodeId>(bed.topology.num_nodes() - 1);
  EXPECT_EQ(bed.net->LinkLossProb(far_a, far_b), 1.0);
  // Every real tree link stays a probability.
  for (NodeId v = 1; v < bed.topology.num_nodes(); ++v) {
    double p = bed.net->LinkLossProb(v, bed.tree.parent(v));
    EXPECT_GE(p, 0.0) << v;
    EXPECT_LE(p, 1.0) << v;
  }
}

TEST(LinkLossTest, EpisodeLossNearOneCompoundsWithinBounds) {
  // Regression for the compounding formula near extra_loss = 1.0: two
  // endpoints at 0.99 over a lossy baseline must stay <= 1, and an exact
  // 1.0 episode (a blackout) pins the link at exactly 1.0.
  bench::Bed bed = bench::Bed::Grid(9, 4, 5);
  NodeId leaf = bed.tree.post_order().front();
  NodeId parent = bed.tree.parent(leaf);
  bed.net->SetNodeExtraLoss(leaf, 0.99);
  bed.net->SetNodeExtraLoss(parent, 0.99);
  double p = bed.net->LinkLossProb(leaf, parent);
  EXPECT_GE(p, 0.99);
  EXPECT_LE(p, 1.0);
  bed.net->SetNodeExtraLoss(leaf, 1.0);
  EXPECT_EQ(bed.net->LinkLossProb(leaf, parent), 1.0);
  bed.net->SetNodeExtraLoss(leaf, 0.0);
  bed.net->SetNodeExtraLoss(parent, 0.0);
  EXPECT_EQ(bed.net->LinkLossProb(leaf, parent), bed.net->options().loss_prob);
}

// ------------------------------------------------------ adaptive retries

/// Everything observable about a finished reliability run, for exact
/// comparison across configurations.
struct RelSummary {
  std::vector<std::string> answers;
  std::vector<double> completeness;
  std::vector<uint32_t> contributors;
  uint64_t messages = 0;
  uint64_t retries = 0;
  uint64_t backoff_us = 0;
  sim::TimeUs now = 0;

  bool operator==(const RelSummary& o) const {
    return answers == o.answers && completeness == o.completeness &&
           contributors == o.contributors && messages == o.messages &&
           retries == o.retries && backoff_us == o.backoff_us && now == o.now;
  }
};

/// TAG for `epochs` epochs with per-epoch reliability contracts, the way the
/// coordinator drives it.
RelSummary RunTag(bench::Bed& bed, size_t epochs) {
  auto gen = bed.RoomData(17);
  core::TagTopK tag(bed.net.get(), gen.get(), bench::RoomAvgSpec(3));
  RelSummary s;
  for (size_t e = 0; e < epochs; ++e) {
    bed.net->BeginReliabilityEpoch();
    core::TopKResult result = tag.RunEpoch(static_cast<sim::Epoch>(e));
    s.answers.push_back(result.ToString());
    s.completeness.push_back(result.completeness);
    s.contributors.push_back(result.contributors);
  }
  s.messages = bed.net->total().messages;
  s.retries = bed.net->total().retries;
  s.backoff_us = bed.net->total().backoff_us;
  s.now = bed.net->events().now();
  return s;
}

TEST(ReliabilityTest, OffModeKeepsRetryCountersZero) {
  sim::NetworkOptions opt;
  opt.loss_prob = 0.3;  // lossy, but the layer is off: no ARQ, no backoff
  bench::Bed bed = bench::Bed::Clustered(49, 12, 23, opt);
  RelSummary s = RunTag(bed, 10);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.backoff_us, 0u);
  // Completeness accounting is free: lossy answers advertise their thinning
  // even with the layer off, but nothing is marked structurally degraded.
  for (double c : s.completeness) EXPECT_LE(c, 1.0);
  EXPECT_FALSE(bed.net->EpochDegraded());
}

TEST(ReliabilityTest, AdaptiveRetriesRecoverCompleteness) {
  sim::NetworkOptions off_opt;
  off_opt.loss_prob = 0.3;
  bench::Bed off_bed = bench::Bed::Clustered(49, 12, 23, off_opt);
  RelSummary off = RunTag(off_bed, 20);

  sim::NetworkOptions on_opt = off_opt;
  on_opt.reliability.enabled = true;
  on_opt.reliability.max_retries = 6;
  on_opt.reliability.residual_target = 0.01;
  bench::Bed on_bed = bench::Bed::Clustered(49, 12, 23, on_opt);
  RelSummary on = RunTag(on_bed, 20);

  EXPECT_GT(on.retries, 0u);
  EXPECT_GT(on.backoff_us, 0u);
  double off_mean = 0.0, on_mean = 0.0;
  for (double c : off.completeness) off_mean += c;
  for (double c : on.completeness) on_mean += c;
  off_mean /= static_cast<double>(off.completeness.size());
  on_mean /= static_cast<double>(on.completeness.size());
  EXPECT_GT(on_mean, off_mean) << "retries bought nothing";
  EXPECT_GT(on_mean, 0.9);
}

TEST(ReliabilityTest, RetryBudgetBoundsPerEpochSpend) {
  sim::NetworkOptions opt;
  opt.loss_prob = 0.5;
  opt.reliability.enabled = true;
  opt.reliability.max_retries = 6;
  opt.reliability.residual_target = 0.01;
  opt.reliability.retry_budget = 1;
  bench::Bed bed = bench::Bed::Clustered(49, 12, 29, opt);
  auto gen = bed.RoomData(17);
  core::TagTopK tag(bed.net.get(), gen.get(), bench::RoomAvgSpec(3));
  size_t n = bed.topology.num_nodes();
  uint64_t budget_total = 0;
  for (size_t e = 0; e < 10; ++e) {
    bed.net->BeginReliabilityEpoch();
    uint64_t before = bed.net->total().retries;
    tag.RunEpoch(static_cast<sim::Epoch>(e));
    uint64_t spent = bed.net->total().retries - before;
    // Each node may spend at most its budget of 1 per epoch.
    EXPECT_LE(spent, n) << "epoch " << e;
    budget_total += spent;
  }

  // The same deployment with an ample budget retries strictly more.
  sim::NetworkOptions wide = opt;
  wide.reliability.retry_budget = 0;  // unlimited
  bench::Bed wide_bed = bench::Bed::Clustered(49, 12, 29, wide);
  RelSummary unlimited = RunTag(wide_bed, 10);
  EXPECT_GT(unlimited.retries, budget_total);
}

// --------------------------------------------------------- epoch deadlines

size_t MaxTreeDepth(const sim::RoutingTree& tree) {
  size_t max_depth = 0;
  for (NodeId v : tree.wave_order()) {
    max_depth = std::max(max_depth, static_cast<size_t>(tree.depth(v)));
  }
  return max_depth;
}

TEST(ReliabilityTest, WaveDeadlineTruncatesAndMarksDegraded) {
  sim::NetworkOptions opt;
  opt.reliability.enabled = true;
  opt.reliability.wave_depth_budget = 1;  // only depth-1 nodes make the cut
  bench::Bed bed = bench::Bed::Grid(100, 12, 41, opt);
  ASSERT_GE(MaxTreeDepth(bed.tree), 2u) << "bed too shallow to truncate";
  RelSummary s = RunTag(bed, 5);
  EXPECT_TRUE(bed.net->EpochDegraded());
  EXPECT_GT(bed.net->TruncatedNodes(), 0u);
  for (double c : s.completeness) EXPECT_LT(c, 1.0);
  for (uint32_t c : s.contributors) {
    EXPECT_LT(c, bed.net->AliveAttachedSensors());
  }
}

TEST(ReliabilityTest, GenerousDeadlineIsBitInert) {
  // A deadline deeper than the tree cuts nobody: the run must be
  // bit-identical to the same deployment with no deadline at all.
  auto run = [](int budget) {
    sim::NetworkOptions opt;
    opt.reliability.enabled = true;
    opt.reliability.wave_depth_budget = budget;
    bench::Bed bed = bench::Bed::Grid(100, 12, 41, opt);
    RelSummary s = RunTag(bed, 8);
    EXPECT_FALSE(bed.net->EpochDegraded()) << "budget " << budget;
    return s;
  };
  sim::NetworkOptions probe_opt;
  bench::Bed probe = bench::Bed::Grid(100, 12, 41, probe_opt);
  int deep = static_cast<int>(MaxTreeDepth(probe.tree));
  EXPECT_TRUE(run(0) == run(deep));
  EXPECT_TRUE(run(0) == run(deep + 7));
}

// -------------------------------------------------- completeness conservation

TEST(ReliabilityTest, LosslessCompletenessConserved) {
  sim::NetworkOptions opt;
  opt.reliability.enabled = true;
  opt.reliability.max_retries = 4;
  bench::Bed bed = bench::Bed::Grid(150, 10, 77, opt);
  RelSummary serial = RunTag(bed, 12);
  for (double c : serial.completeness) EXPECT_EQ(c, 1.0);
  // Every sensor contributed: the completeness denominator conserves.
  sim::NetworkOptions probe_opt;
  bench::Bed probe = bench::Bed::Grid(150, 10, 77, probe_opt);
  for (uint32_t c : serial.contributors) {
    EXPECT_EQ(c, probe.net->AliveAttachedSensors());
  }
}

// ------------------------------------------------- blackout / burst faults

TEST(ChurnEpisodeTest, BlackoutAndBurstCompoundAndRestore) {
  bench::Bed bed = bench::Bed::Grid(25, 4, 21);
  fault::FaultPlan plan;
  plan.seed = 21;
  using Kind = fault::FaultEvent::Kind;
  plan.events = {{1, Kind::kDegradeStart, 3, 0.3}, {2, Kind::kBurstStart, 3, 0.5},
                 {3, Kind::kBlackoutStart, 3, 1.0}, {4, Kind::kBlackoutEnd, 3, 0.0},
                 {5, Kind::kBurstEnd, 3, 0.0},      {6, Kind::kDegradeEnd, 3, 0.0}};
  fault::ChurnEngine churn(bed.net.get(), &bed.tree, plan);

  churn.BeginEpoch(0);
  EXPECT_EQ(bed.net->NodeExtraLoss(3), 0.0);

  fault::ChurnReport r1 = churn.BeginEpoch(1);
  EXPECT_EQ(r1.degrade_changes, 1u);
  // A single episode passes its loss through bit-exactly (no compounding
  // arithmetic may touch it — 1-(1-x) != x in doubles).
  EXPECT_DOUBLE_EQ(bed.net->NodeExtraLoss(3), 0.3);

  fault::ChurnReport r2 = churn.BeginEpoch(2);
  EXPECT_EQ(r2.burst_changes, 1u);
  EXPECT_NEAR(bed.net->NodeExtraLoss(3), 0.65, 1e-12);  // 1-(1-0.3)(1-0.5)

  fault::ChurnReport r3 = churn.BeginEpoch(3);
  EXPECT_EQ(r3.blackout_changes, 1u);
  EXPECT_EQ(bed.net->NodeExtraLoss(3), 1.0);  // blackout dominates outright

  // Ends restore the still-running episodes, not a clean slate.
  churn.BeginEpoch(4);
  EXPECT_NEAR(bed.net->NodeExtraLoss(3), 0.65, 1e-12);
  churn.BeginEpoch(5);
  EXPECT_DOUBLE_EQ(bed.net->NodeExtraLoss(3), 0.3);
  churn.BeginEpoch(6);
  EXPECT_EQ(bed.net->NodeExtraLoss(3), 0.0);
}

TEST(FaultPlanEpisodeTest, GeneratesPairedBlackoutAndBurstEvents) {
  sim::TopologyOptions topt;
  topt.num_nodes = 49;
  topt.num_rooms = 8;
  sim::Topology topology = sim::MakeGrid(topt);
  fault::FaultPlanOptions opt;
  opt.horizon = 300;
  opt.blackout_prob = 0.01;
  opt.blackout_duration = 3;
  opt.burst_prob = 0.01;
  opt.burst_extra_loss = 0.6;
  opt.burst_duration = 5;
  fault::FaultPlan plan = fault::FaultPlan::Generate(topology, opt, 13);
  using Kind = fault::FaultEvent::Kind;
  EXPECT_GT(plan.CountKind(Kind::kBlackoutStart), 0u);
  EXPECT_GT(plan.CountKind(Kind::kBurstStart), 0u);
  // Starts and ends alternate per node; losses carry the configured values.
  std::vector<int> blackout_on(topology.num_nodes(), 0);
  std::vector<int> burst_on(topology.num_nodes(), 0);
  for (const fault::FaultEvent& ev : plan.events) {
    EXPECT_NE(ev.node, kSinkId);
    EXPECT_GE(ev.at, 1u);
    EXPECT_LT(ev.at, opt.horizon);
    switch (ev.kind) {
      case Kind::kBlackoutStart:
        EXPECT_EQ(blackout_on[ev.node], 0) << "double blackout on " << ev.node;
        EXPECT_DOUBLE_EQ(ev.extra_loss, 1.0);
        blackout_on[ev.node] = 1;
        break;
      case Kind::kBlackoutEnd:
        EXPECT_EQ(blackout_on[ev.node], 1) << "end without start on " << ev.node;
        blackout_on[ev.node] = 0;
        break;
      case Kind::kBurstStart:
        EXPECT_EQ(burst_on[ev.node], 0) << "double burst on " << ev.node;
        EXPECT_DOUBLE_EQ(ev.extra_loss, opt.burst_extra_loss);
        burst_on[ev.node] = 1;
        break;
      case Kind::kBurstEnd:
        EXPECT_EQ(burst_on[ev.node], 1) << "end without start on " << ev.node;
        burst_on[ev.node] = 0;
        break;
      default:
        break;
    }
  }
  // Determinism holds for the new event kinds too.
  fault::FaultPlan again = fault::FaultPlan::Generate(topology, opt, 13);
  ASSERT_EQ(plan.events.size(), again.events.size());
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(plan.events[i].at, again.events[i].at);
    EXPECT_EQ(plan.events[i].kind, again.events[i].kind);
    EXPECT_EQ(plan.events[i].node, again.events[i].node);
  }
}

TEST(FaultPlanEpisodeTest, ZeroProbabilitiesProduceNoEpisodeEvents) {
  sim::TopologyOptions topt;
  topt.num_nodes = 49;
  topt.num_rooms = 8;
  sim::Topology topology = sim::MakeGrid(topt);
  fault::FaultPlanOptions opt;
  opt.horizon = 200;
  opt.crash_prob = 0.01;
  opt.mean_downtime = 10;
  fault::FaultPlan plan = fault::FaultPlan::Generate(topology, opt, 7);
  using Kind = fault::FaultEvent::Kind;
  EXPECT_EQ(plan.CountKind(Kind::kBlackoutStart), 0u);
  EXPECT_EQ(plan.CountKind(Kind::kBlackoutEnd), 0u);
  EXPECT_EQ(plan.CountKind(Kind::kBurstStart), 0u);
  EXPECT_EQ(plan.CountKind(Kind::kBurstEnd), 0u);
}

}  // namespace
}  // namespace kspot
