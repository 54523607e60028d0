#include <gtest/gtest.h>

#include <tuple>

#include "agg/group_view.hpp"
#include "core/mint.hpp"
#include "core/oracle.hpp"
#include "core/tag.hpp"
#include "core/tja.hpp"
#include "core/tput.hpp"
#include "test_util.hpp"

namespace kspot::core {
namespace {

using kspot::testing::TestBed;

// =====================================================================
// Property suite 1: MINT == Oracle, swept over (topology, k, seed).
// The exactness invariant of DESIGN.md section 3 — every epoch of every
// configuration must match the centralized reference bit-for-bit.
// =====================================================================

enum class TopoKind { kGrid, kClustered };

using MintParam = std::tuple<TopoKind, int /*k*/, uint64_t /*seed*/>;

class MintPropertyTest : public ::testing::TestWithParam<MintParam> {};

TEST_P(MintPropertyTest, MatchesOracleEveryEpoch) {
  auto [topo, k, seed] = GetParam();
  TestBed bed = topo == TopoKind::kGrid ? TestBed::Grid(49, 9, seed)
                                        : TestBed::Clustered(49, 8, seed);
  size_t n = bed.topology.num_nodes();
  data::RandomWalkGenerator gen(n, data::Modality::kSound, 1.0, util::Rng(seed * 31 + 7));
  data::RandomWalkGenerator ogen(n, data::Modality::kSound, 1.0, util::Rng(seed * 31 + 7));
  QuerySpec spec;
  spec.k = k;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = Grouping::kRoom;
  spec.domain_min = 0.0;
  spec.domain_max = 100.0;
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 20; ++e) {
    TopKResult got = mint.RunEpoch(e);
    TopKResult want = oracle.TopK(e);
    ASSERT_TRUE(got.Matches(want))
        << "epoch " << e << " k=" << k << " seed=" << seed << "\ngot:\n"
        << got.ToString() << "want:\n"
        << want.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MintPropertyTest,
    ::testing::Combine(::testing::Values(TopoKind::kGrid, TopoKind::kClustered),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull)),
    [](const ::testing::TestParamInfo<MintParam>& info) {
      std::string name = std::get<0>(info.param) == TopoKind::kGrid ? "Grid" : "Clustered";
      return name + "_k" + std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// =====================================================================
// Property suite 2: TJA == centralized reference over (window, k, seed),
// with and without Bloom compression.
// =====================================================================

std::vector<agg::RankedItem> HistoricOracle(const HistorySource& history, size_t k) {
  agg::GroupView view;
  for (sim::NodeId id = 1; id < history.num_nodes(); ++id) {
    std::vector<double> w = history.MaterializeWindow(id);
    for (size_t t = 0; t < w.size(); ++t) {
      view.AddReading(static_cast<sim::GroupId>(t), w[t]);
    }
  }
  return view.TopK(agg::AggKind::kAvg, k);
}

using TjaParam = std::tuple<size_t /*window*/, int /*k*/, bool /*bloom*/, uint64_t /*seed*/>;

class TjaPropertyTest : public ::testing::TestWithParam<TjaParam> {};

TEST_P(TjaPropertyTest, ExactTopKTimeInstances) {
  auto [window, k, bloom, seed] = GetParam();
  auto bed = TestBed::Grid(36, 4, seed + 9000);
  data::RandomWalkGenerator gen(36, data::Modality::kTemperature, 0.8,
                                util::Rng(seed * 131 + 3));
  RingHistory history(data::DrawnRing(gen, 36, 0, window), window);
  HistoricOptions opt;
  opt.k = k;
  opt.use_bloom = bloom;
  Tja tja(bed.net.get(), &history, opt);
  HistoricResult got = tja.Run();
  auto want = HistoricOracle(history, static_cast<size_t>(k));
  ASSERT_EQ(got.items.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.items[i].group, want[i].group) << "rank " << i;
    EXPECT_NEAR(got.items[i].value, want[i].value, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TjaPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(16, 64), ::testing::Values(1, 4, 12),
                       ::testing::Bool(), ::testing::Values(1ull, 2ull, 3ull)),
    [](const ::testing::TestParamInfo<TjaParam>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_bloom" : "_plain") + "_s" +
             std::to_string(std::get<3>(info.param));
    });

// =====================================================================
// Property suite 3: TPUT == centralized reference over (k, seed).
// =====================================================================

using TputParam = std::tuple<int /*k*/, uint64_t /*seed*/>;

class TputPropertyTest : public ::testing::TestWithParam<TputParam> {};

TEST_P(TputPropertyTest, ExactTopKTimeInstances) {
  auto [k, seed] = GetParam();
  auto bed = TestBed::Grid(36, 4, seed + 7000);
  data::GaussianGenerator gen(36, data::Modality::kSound, 4.0, util::Rng(seed * 17 + 11));
  RingHistory history(data::DrawnRing(gen, 36, 0, 48), 48);
  HistoricOptions opt;
  opt.k = k;
  Tput tput(bed.net.get(), &history, opt);
  HistoricResult got = tput.Run();
  auto want = HistoricOracle(history, static_cast<size_t>(k));
  ASSERT_EQ(got.items.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.items[i].group, want[i].group) << "rank " << i;
    EXPECT_NEAR(got.items[i].value, want[i].value, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TputPropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 10),
                                            ::testing::Values(1ull, 2ull, 3ull, 4ull)),
                         [](const ::testing::TestParamInfo<TputParam>& info) {
                           return "k" + std::to_string(std::get<0>(info.param)) + "_s" +
                                  std::to_string(std::get<1>(info.param));
                         });

// =====================================================================
// Property suite 4: MINT savings monotonicity — the System-Panel claim.
// Steady-state MINT bytes never exceed TAG's on identical data.
// =====================================================================

class SavingsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SavingsPropertyTest, MintNeverCostsMoreBytesThanTagSteadyState) {
  uint64_t seed = GetParam();
  auto mint_bed = TestBed::Clustered(49, 8, seed);
  auto tag_bed = TestBed::Clustered(49, 8, seed);
  // The demo's regime: rooms with distinct drifting activity levels, sensor
  // noise on an integer ADC grid.
  std::vector<sim::GroupId> rooms;
  for (sim::NodeId id = 0; id < mint_bed.topology.num_nodes(); ++id) {
    rooms.push_back(mint_bed.topology.room(id));
  }
  data::RoomCorrelatedGenerator gen_m(rooms, data::Modality::kSound, 0.5, 0.5,
                                      util::Rng(seed + 1), 0.0, /*quantize_step=*/1.0);
  data::RoomCorrelatedGenerator gen_t(rooms, data::Modality::kSound, 0.5, 0.5,
                                      util::Rng(seed + 1), 0.0, /*quantize_step=*/1.0);
  QuerySpec spec;
  spec.k = 2;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = Grouping::kRoom;
  spec.domain_max = 100.0;
  MintViews mint(mint_bed.net.get(), &gen_m, spec);
  TagTopK tag(tag_bed.net.get(), &gen_t, spec);
  mint.RunEpoch(0);
  tag.RunEpoch(0);
  auto mint_mark = mint_bed.net->total();
  auto tag_mark = tag_bed.net->total();
  for (sim::Epoch e = 1; e <= 15; ++e) {
    mint.RunEpoch(e);
    tag.RunEpoch(e);
  }
  uint64_t mint_bytes = mint_bed.net->total().Since(mint_mark).payload_bytes;
  uint64_t tag_bytes = tag_bed.net->total().Since(tag_mark).payload_bytes;
  EXPECT_LE(mint_bytes, tag_bytes) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SavingsPropertyTest,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull, 55ull, 66ull));

}  // namespace
}  // namespace kspot::core
