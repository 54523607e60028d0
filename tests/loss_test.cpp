#include <gtest/gtest.h>

#include "core/mint.hpp"
#include "core/oracle.hpp"
#include "core/tag.hpp"
#include "test_util.hpp"

namespace kspot::core {
namespace {

using kspot::testing::TestBed;

QuerySpec SoundSpec(int k) {
  QuerySpec spec;
  spec.k = k;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = Grouping::kRoom;
  spec.domain_min = 0.0;
  spec.domain_max = 100.0;
  return spec;
}

double AverageRecall(EpochAlgorithm& algo, const Oracle& oracle, sim::Epoch epochs) {
  double recall = 0.0;
  for (sim::Epoch e = 0; e < epochs; ++e) {
    recall += algo.RunEpoch(e).RecallAgainst(oracle.TopK(e));
  }
  return recall / static_cast<double>(epochs);
}

TEST(LossTest, TagDegradesGracefully) {
  sim::NetworkOptions lossy;
  lossy.loss_prob = 0.1;
  auto bed = TestBed::Grid(36, 6, 601, lossy);
  data::GaussianGenerator gen(36, data::Modality::kSound, 2.0, util::Rng(71));
  data::GaussianGenerator ogen(36, data::Modality::kSound, 2.0, util::Rng(71));
  QuerySpec spec = SoundSpec(3);
  TagTopK tag(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  double recall = AverageRecall(tag, oracle, 20);
  EXPECT_GT(recall, 0.5);
  EXPECT_LE(recall, 1.0);
}

TEST(LossTest, MintStaysUsableUnderModerateLoss) {
  sim::NetworkOptions lossy;
  lossy.loss_prob = 0.05;
  auto bed = TestBed::Clustered(36, 6, 607, lossy);
  data::RandomWalkGenerator gen(36, data::Modality::kSound, 1.0, util::Rng(73));
  data::RandomWalkGenerator ogen(36, data::Modality::kSound, 1.0, util::Rng(73));
  QuerySpec spec = SoundSpec(3);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  double recall = AverageRecall(mint, oracle, 30);
  EXPECT_GT(recall, 0.6);
}

TEST(LossTest, RetriesRecoverRecall) {
  auto run = [&](int retries) {
    sim::NetworkOptions opt;
    opt.loss_prob = 0.2;
    opt.max_retries = retries;
    auto bed = TestBed::Grid(25, 4, 613, opt);
    data::GaussianGenerator gen(25, data::Modality::kSound, 1.0, util::Rng(79));
    data::GaussianGenerator ogen(25, data::Modality::kSound, 1.0, util::Rng(79));
    QuerySpec spec = SoundSpec(2);
    TagTopK tag(bed.net.get(), &gen, spec);
    Oracle oracle(&bed.topology, &ogen, spec);
    return AverageRecall(tag, oracle, 20);
  };
  double without = run(0);
  double with = run(4);
  EXPECT_GT(with, without);
  EXPECT_GT(with, 0.9);
}

TEST(LossTest, RetriesCostExtraTransmissions) {
  sim::NetworkOptions opt;
  opt.loss_prob = 0.3;
  opt.max_retries = 3;
  auto lossy = TestBed::Grid(25, 4, 617, opt);
  auto clean = TestBed::Grid(25, 4, 617);
  data::UniformGenerator gen_a(25, data::Modality::kSound, util::Rng(83));
  data::UniformGenerator gen_b(25, data::Modality::kSound, util::Rng(83));
  QuerySpec spec = SoundSpec(2);
  TagTopK a(lossy.net.get(), &gen_a, spec);
  TagTopK b(clean.net.get(), &gen_b, spec);
  for (sim::Epoch e = 0; e < 10; ++e) {
    a.RunEpoch(e);
    b.RunEpoch(e);
  }
  EXPECT_GT(lossy.net->total().messages, clean.net->total().messages);
}

TEST(LossTest, GrayZoneLinksAreLossier) {
  sim::NetworkOptions opt;
  opt.edge_max_loss = 0.6;
  // An 8 x 8 grid under an 18 m range: adjacent cells (0.69 of the range)
  // sit just short of the gray zone, diagonal tree links (0.98) deep in it.
  auto bed = TestBed::Grid(64, 4, 631, opt);
  double short_loss = 1.0, long_loss = 0.0;
  for (sim::NodeId id = 1; id < bed.tree.num_nodes(); ++id) {
    double p = bed.net->LinkLossProb(id, bed.tree.parent(id));
    short_loss = std::min(short_loss, p);
    long_loss = std::max(long_loss, p);
  }
  EXPECT_EQ(short_loss, 0.0);
  EXPECT_GT(long_loss, short_loss);
  EXPECT_LE(long_loss, 0.6 + 1e-9);
  // Baseline loss composes with the gray zone.
  sim::NetworkOptions both = opt;
  both.loss_prob = 0.1;
  auto bed2 = TestBed::Grid(64, 4, 631, both);
  for (sim::NodeId id = 1; id < bed2.tree.num_nodes(); ++id) {
    EXPECT_GE(bed2.net->LinkLossProb(id, bed2.tree.parent(id)), 0.1 - 1e-12);
  }
}

TEST(LossTest, GrayZoneDegradesRecallOnSparseDeployments) {
  // A deployment whose tree needs near-range links: with gray-zone loss the
  // recall must drop below the lossless baseline.
  sim::NetworkOptions gray;
  gray.edge_max_loss = 0.9;
  auto lossy = TestBed::Grid(36, 6, 641, gray);
  auto clean = TestBed::Grid(36, 6, 641);
  data::GaussianGenerator gen_a(36, data::Modality::kSound, 2.0, util::Rng(97));
  data::GaussianGenerator gen_b(36, data::Modality::kSound, 2.0, util::Rng(97));
  data::GaussianGenerator ogen(36, data::Modality::kSound, 2.0, util::Rng(97));
  QuerySpec spec = SoundSpec(3);
  TagTopK tag_lossy(lossy.net.get(), &gen_a, spec);
  TagTopK tag_clean(clean.net.get(), &gen_b, spec);
  Oracle oracle(&lossy.topology, &ogen, spec);
  double lossy_recall = AverageRecall(tag_lossy, oracle, 15);
  // Fresh oracle stream for the clean run (same values).
  data::GaussianGenerator ogen2(36, data::Modality::kSound, 2.0, util::Rng(97));
  Oracle oracle2(&clean.topology, &ogen2, spec);
  double clean_recall = AverageRecall(tag_clean, oracle2, 15);
  EXPECT_LT(lossy_recall, clean_recall);
  EXPECT_DOUBLE_EQ(clean_recall, 1.0);
}

TEST(LossTest, ZeroLossIsExact) {
  // Control: the recall machinery itself reports 1.0 when links are clean.
  auto bed = TestBed::Grid(25, 4, 619);
  data::GaussianGenerator gen(25, data::Modality::kSound, 1.0, util::Rng(89));
  data::GaussianGenerator ogen(25, data::Modality::kSound, 1.0, util::Rng(89));
  QuerySpec spec = SoundSpec(3);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  EXPECT_DOUBLE_EQ(AverageRecall(mint, oracle, 15), 1.0);
}

}  // namespace
}  // namespace kspot::core
