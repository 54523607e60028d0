/// Tests for the end-to-end reliability layer: LinkLossProb clamping under
/// compounded episodes, the adaptive retry/backoff unicast core (EWMA
/// estimator, retry budgets, backoff charged as idle listening), epoch
/// deadlines with graceful degradation, completeness accounting
/// (TopKResult::completeness conservation on a lossless bed).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/tag.hpp"
#include "sim/network.hpp"

namespace kspot {
namespace {

using sim::NodeId;

// ------------------------------------------------ LinkLossProb clamping

TEST(LinkLossTest, ExtremeEdgeLossClampsToOne) {
  sim::NetworkOptions opt;
  opt.loss_prob = 0.1;
  opt.edge_max_loss = 1.0;  // the largest the constructor accepts
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
  on_opt.max_retries = 6;
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

TEST(ReliabilityTest, MaxRetriesCapsAdaptiveAttempts) {
  // A link that loses every frame makes the policy spend its whole
  // allowance: exactly max_retries + 1 transmissions, one message.
  for (int max_retries : {0, 2}) {
    SCOPED_TRACE(max_retries);
    sim::NetworkOptions opt;
    opt.loss_prob = 1.0;
    opt.max_retries = max_retries;
    opt.reliability.enabled = true;
    bench::Bed bed = bench::Bed::Grid(9, 4, 5, opt);
    NodeId leaf = bed.tree.post_order().front();
    EXPECT_FALSE(bed.net->UnicastToParent(leaf, 10));
    EXPECT_EQ(bed.net->total().messages, static_cast<uint64_t>(max_retries) + 1);
    EXPECT_EQ(bed.net->total().retries, static_cast<uint64_t>(max_retries));
  }
}

TEST(ReliabilityTest, RetryBudgetBoundsPerEpochSpend) {
  sim::NetworkOptions opt;
  opt.loss_prob = 0.5;
  opt.reliability.enabled = true;
  opt.max_retries = 6;
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
  opt.max_retries = 4;
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

}  // namespace
}  // namespace kspot
