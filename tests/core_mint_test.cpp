#include <gtest/gtest.h>

#include "core/mint.hpp"
#include "core/oracle.hpp"
#include "core/tag.hpp"
#include "test_util.hpp"
#include "util/task_pool.hpp"

namespace kspot::core {
namespace {

using kspot::testing::TestBed;

QuerySpec SoundSpec(int k, agg::AggKind kind = agg::AggKind::kAvg,
                    Grouping grouping = Grouping::kRoom) {
  QuerySpec spec;
  spec.k = k;
  spec.agg = kind;
  spec.grouping = grouping;
  spec.domain_min = 0.0;
  spec.domain_max = 100.0;
  return spec;
}

TEST(MintTest, Figure1CorrectAnswerUnlikeNaive) {
  auto bed = TestBed::Figure1();
  data::ConstantGenerator gen(sim::Figure1Readings());
  MintViews mint(bed.net.get(), &gen, SoundSpec(1));
  for (sim::Epoch e = 0; e < 5; ++e) {
    TopKResult result = mint.RunEpoch(e);
    ASSERT_EQ(result.items.size(), 1u) << "epoch " << e;
    EXPECT_EQ(result.items[0].group, 2) << "epoch " << e;   // room C
    EXPECT_DOUBLE_EQ(result.items[0].value, 75.0);
  }
}

TEST(MintTest, SteadyStateCheaperThanTagOnStableData) {
  auto mint_bed = TestBed::Clustered(61, 6, 211);
  auto tag_bed = TestBed::Clustered(61, 6, 211);
  auto make_gen = [&] {
    std::vector<sim::GroupId> rooms;
    for (sim::NodeId id = 0; id < mint_bed.topology.num_nodes(); ++id) {
      rooms.push_back(mint_bed.topology.room(id));
    }
    // Integer ADC grid: stable readings genuinely repeat, the regime the
    // demo's sound sensors live in.
    return data::RoomCorrelatedGenerator(rooms, data::Modality::kSound, 0.3, 0.2, util::Rng(5),
                                         /*global_sigma=*/0.0, /*quantize_step=*/1.0);
  };
  auto gen_m = make_gen();
  auto gen_t = make_gen();
  QuerySpec spec = SoundSpec(2);
  MintViews mint(mint_bed.net.get(), &gen_m, spec);
  TagTopK tag(tag_bed.net.get(), &gen_t, spec);
  // Skip the creation epoch, then compare steady-state traffic.
  mint.RunEpoch(0);
  tag.RunEpoch(0);
  auto mint_mark = mint_bed.net->total();
  auto tag_mark = tag_bed.net->total();
  TopKResult mint_last, tag_last;
  for (sim::Epoch e = 1; e <= 20; ++e) {
    mint_last = mint.RunEpoch(e);
    tag_last = tag.RunEpoch(e);
  }
  auto mint_cost = mint_bed.net->total().Since(mint_mark);
  auto tag_cost = tag_bed.net->total().Since(tag_mark);
  EXPECT_LT(mint_cost.payload_bytes, tag_cost.payload_bytes);
  // Nothing is lost, yet MINT's completeness is below 1: sensors its views
  // pruned count as absent. TAG hears every sensor.
  EXPECT_LT(mint_last.completeness, 1.0);
  EXPECT_EQ(tag_last.completeness, 1.0);
}

TEST(MintTest, MatchesOracleEveryEpochOnDriftingData) {
  auto bed = TestBed::Clustered(41, 8, 223);
  data::RandomWalkGenerator gen(41, data::Modality::kSound, 2.0, util::Rng(23));
  data::RandomWalkGenerator ogen(41, data::Modality::kSound, 2.0, util::Rng(23));
  QuerySpec spec = SoundSpec(3);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 40; ++e) {
    TopKResult got = mint.RunEpoch(e);
    TopKResult want = oracle.TopK(e);
    ASSERT_TRUE(got.Matches(want)) << "epoch " << e << "\ngot:\n"
                                   << got.ToString() << "want:\n"
                                   << want.ToString();
  }
}

TEST(MintTest, RepairsTriggerWhenValuesCollapse) {
  // Data that crashes after epoch 3: every group's value drops far below
  // the old threshold, so the sink must under-run and repair.
  class CollapsingGen : public data::DataGenerator {
   public:
    explicit CollapsingGen(size_t n) : n_(n), info_(data::GetModalityInfo(
                                                  data::Modality::kSound)) {}
    double Value(sim::NodeId id, sim::Epoch epoch) override {
      if (id == 0) return 0;
      double base = epoch < 3 ? 80.0 : 10.0;
      return base + static_cast<double>(id % 7);
    }
    const data::ModalityInfo& modality() const override { return info_; }

   private:
    size_t n_;
    data::ModalityInfo info_;
  };
  auto bed = TestBed::Grid(36, 6, 227);
  CollapsingGen gen(36);
  CollapsingGen ogen(36);
  QuerySpec spec = SoundSpec(2);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 6; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e))) << "epoch " << e;
  }
  EXPECT_GE(mint.repair_count(), 1);
}

TEST(MintTest, NodeGroupingDegeneratesToThresholdMonitoring) {
  auto bed = TestBed::Grid(25, 4, 229);
  data::GaussianGenerator gen(25, data::Modality::kSound, 0.5, util::Rng(31));
  data::GaussianGenerator ogen(25, data::Modality::kSound, 0.5, util::Rng(31));
  QuerySpec spec = SoundSpec(3, agg::AggKind::kAvg, Grouping::kNode);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 15; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e))) << "epoch " << e;
  }
  // Stable per-node values: far fewer messages than TAG's n-1 per epoch.
  double per_epoch = static_cast<double>(bed.net->total().messages) / 15.0;
  EXPECT_LT(per_epoch, static_cast<double>(bed.topology.num_nodes() - 1));
}

class MintAggKindTest : public ::testing::TestWithParam<agg::AggKind> {};

TEST_P(MintAggKindTest, MatchesOracleForAggKind) {
  agg::AggKind kind = GetParam();
  auto bed = TestBed::Clustered(31, 5, 233 + static_cast<uint64_t>(kind));
  data::RandomWalkGenerator gen(31, data::Modality::kSound, 1.5, util::Rng(37));
  data::RandomWalkGenerator ogen(31, data::Modality::kSound, 1.5, util::Rng(37));
  QuerySpec spec = SoundSpec(2, kind);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 25; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e)))
        << agg::AggKindName(kind) << " epoch " << e << "\ngot:\n"
        << got.ToString() << "want:\n"
        << oracle.TopK(e).ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MintAggKindTest,
                         ::testing::Values(agg::AggKind::kAvg, agg::AggKind::kSum,
                                           agg::AggKind::kMin, agg::AggKind::kMax),
                         [](const ::testing::TestParamInfo<agg::AggKind>& info) {
                           return agg::AggKindName(info.param);
                         });

TEST(MintTest, KLargerThanGroupCountNeverRepairsForever) {
  auto bed = TestBed::Grid(16, 4, 239);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(41));
  data::UniformGenerator ogen(16, data::Modality::kSound, util::Rng(41));
  QuerySpec spec = SoundSpec(10);  // more than 4 rooms exist
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 10; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e))) << "epoch " << e;
    EXPECT_LE(got.items.size(), 4u);
  }
  EXPECT_EQ(mint.repair_count(), 0);
}

TEST(MintTest, AblationGammaOffCostsLikeTag) {
  MintViews::Options gamma_off;
  gamma_off.gamma_suppression = false;
  auto a = TestBed::Clustered(41, 5, 241);
  auto b = TestBed::Clustered(41, 5, 241);
  data::RandomWalkGenerator gen_a(41, data::Modality::kSound, 0.5, util::Rng(43),
                                  /*quantize_step=*/1.0);
  data::RandomWalkGenerator gen_b(41, data::Modality::kSound, 0.5, util::Rng(43),
                                  /*quantize_step=*/1.0);
  QuerySpec spec = SoundSpec(2);
  MintViews with_gamma(a.net.get(), &gen_a, spec);
  MintViews without_gamma(b.net.get(), &gen_b, spec, gamma_off);
  for (sim::Epoch e = 0; e < 12; ++e) {
    TopKResult ga = with_gamma.RunEpoch(e);
    TopKResult gb = without_gamma.RunEpoch(e);
    ASSERT_TRUE(ga.Matches(gb)) << "epoch " << e;
  }
  EXPECT_LT(a.net->total().payload_bytes, b.net->total().payload_bytes);
  // Without suppression every node ships its whole view: message count must
  // equal TAG's (n-1 per update epoch) plus beacons.
  EXPECT_GT(b.net->total().messages, a.net->total().messages);
}

TEST(MintTest, TauVisibleAfterCreation) {
  auto bed = TestBed::Figure1();
  data::ConstantGenerator gen(sim::Figure1Readings());
  MintViews mint(bed.net.get(), &gen, SoundSpec(1));
  EXPECT_FALSE(mint.created());
  mint.RunEpoch(0);
  EXPECT_TRUE(mint.created());
  EXPECT_TRUE(mint.tau_valid());
  // tau = k-th value (room C's 75) minus the hysteresis margin (2% of the
  // 0..100 sound domain).
  EXPECT_DOUBLE_EQ(mint.tau(), 73.0);
}

TEST(MintTest, SuppressionSilencesBoringSubtrees) {
  // Constant data: after creation and one epoch of tombstone deltas, the
  // materialized views are in steady state and *nothing* needs to be sent —
  // the Update Phase's ideal case.
  auto bed = TestBed::Figure1();
  data::ConstantGenerator gen(sim::Figure1Readings());
  MintViews mint(bed.net.get(), &gen, SoundSpec(1));
  mint.RunEpoch(0);
  mint.RunEpoch(1);  // prune-tombstones flow once
  auto mark = bed.net->total();
  TopKResult result = mint.RunEpoch(2);
  auto steady = bed.net->total().Since(mark);
  EXPECT_EQ(steady.messages, 0u);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].group, 2);
  // The first update epoch did transmit (the tombstones), so suppression is
  // doing the work, not a dead network.
  EXPECT_GT(bed.net->PhaseTotal("mint.update").messages, 0u);
}

TEST(MintTest, SplitUpdateWavesMatchSerialBitForBit) {
  // The same session twice, the second with a pool bound so its update
  // waves split across lanes: every answer and every charge agree, through
  // creation, beacons and probe/repair waves.
  // Readings that drift, collapse at epoch 12 (the sink under-runs and
  // repairs) and recover at epoch 25 (tau is re-broadcast).
  class PhasedGen : public data::DataGenerator {
   public:
    double Value(sim::NodeId id, sim::Epoch epoch) override {
      if (id == 0) return 0.0;
      const double base = epoch < 12 ? 70.0 : epoch < 25 ? 20.0 : 60.0;
      return base + static_cast<double>((id * 7 + epoch * 13 + id * epoch) % 11);
    }
    const data::ModalityInfo& modality() const override {
      return data::GetModalityInfo(data::Modality::kSound);
    }
  };
  for (Grouping grouping : {Grouping::kRoom, Grouping::kNode}) {
    auto serial = TestBed::Clustered(601, 12, 251);
    auto split = TestBed::Clustered(601, 12, 251);
    PhasedGen serial_gen;
    PhasedGen split_gen;
    QuerySpec spec = SoundSpec(3, agg::AggKind::kAvg, grouping);
    MintViews serial_mint(serial.net.get(), &serial_gen, spec);
    MintViews split_mint(split.net.get(), &split_gen, spec);
    util::SharedTaskPool pool;
    for (sim::Epoch e = 0; e < 40; ++e) {
      TopKResult want = serial_mint.RunEpoch(e);
      sim::Network::PoolScope scope(*split.net, &pool);
      TopKResult got = split_mint.RunEpoch(e);
      ASSERT_EQ(got.ToString(), want.ToString()) << "epoch " << e;
      ASSERT_EQ(got.contributors, want.contributors) << "epoch " << e;
    }
    EXPECT_GE(serial_mint.repair_count(), 1);
    EXPECT_GE(serial_mint.beacon_count(), 2);
    EXPECT_EQ(split_mint.repair_count(), serial_mint.repair_count());
    EXPECT_EQ(split_mint.beacon_count(), serial_mint.beacon_count());
    EXPECT_EQ(kspot::testing::ChargeDigest(*split.net),
              kspot::testing::ChargeDigest(*serial.net));
  }
}

}  // namespace
}  // namespace kspot::core
