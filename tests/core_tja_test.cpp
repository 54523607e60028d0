#include <gtest/gtest.h>

#include <set>

#include "agg/group_view.hpp"
#include "core/centralized.hpp"
#include "core/tja.hpp"
#include "query/parser.hpp"
#include "test_util.hpp"
#include "util/task_pool.hpp"

namespace kspot::core {
namespace {

using kspot::testing::TestBed;

/// Exact historic top-k reference: aggregate each window key across nodes.
std::vector<agg::RankedItem> HistoricOracle(const HistorySource& history, agg::AggKind kind,
                                            size_t k) {
  agg::GroupView view;
  for (sim::NodeId id = 1; id < history.num_nodes(); ++id) {
    std::vector<double> w = history.MaterializeWindow(id);
    for (size_t t = 0; t < w.size(); ++t) {
      view.AddReading(static_cast<sim::GroupId>(t), w[t]);
    }
  }
  return view.TopK(kind, k);
}

bool SameItems(const std::vector<agg::RankedItem>& a, const std::vector<agg::RankedItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].group != b[i].group || std::abs(a[i].value - b[i].value) > 1e-9) return false;
  }
  return true;
}

TEST(TjaTest, ExactOnRandomWindows) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto bed = TestBed::Grid(25, 4, 400 + seed);
    data::UniformGenerator gen(25, data::Modality::kTemperature, util::Rng(seed));
    RingHistory history(data::DrawnRing(gen, 25, 0, 32), 32);
    HistoricOptions opt;
    opt.k = 4;
    Tja tja(bed.net.get(), &history, opt);
    HistoricResult got = tja.Run();
    auto want = HistoricOracle(history, opt.agg, 4);
    EXPECT_TRUE(SameItems(got.items, want)) << "seed " << seed;
    EXPECT_GE(got.lsink_size, 4u);
  }
}

TEST(TjaTest, ExactWithBloomCompression) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    auto bed = TestBed::Grid(25, 4, 430 + seed);
    data::UniformGenerator gen(25, data::Modality::kSound, util::Rng(77 + seed));
    RingHistory history(data::DrawnRing(gen, 25, 0, 64), 64);
    HistoricOptions opt;
    opt.k = 5;
    opt.use_bloom = true;
    Tja tja(bed.net.get(), &history, opt);
    HistoricResult got = tja.Run();
    auto want = HistoricOracle(history, opt.agg, 5);
    EXPECT_TRUE(SameItems(got.items, want)) << "seed " << seed;
  }
}

TEST(TjaTest, ConstantDataStaysExactViaTieExtension) {
  // All keys tie: the tie-extended LB lists cover the whole window in one
  // round (no blind deepening), and the answer is still exact with the
  // deterministic key tie-break.
  auto bed = TestBed::Grid(16, 4, 443);
  // trace[t][id] layout for TraceGenerator: epochs x nodes.
  data::TraceGenerator gen(std::vector<std::vector<double>>(16, std::vector<double>(16, 42.0)),
                           data::Modality::kSound);
  RingHistory history(data::DrawnRing(gen, 16, 0, 16), 16);
  HistoricOptions opt;
  opt.k = 2;
  Tja tja(bed.net.get(), &history, opt);
  HistoricResult got = tja.Run();
  ASSERT_EQ(got.items.size(), 2u);
  // Ties break by key: keys 0 and 1.
  EXPECT_EQ(got.items[0].group, 0);
  EXPECT_EQ(got.items[1].group, 1);
  EXPECT_EQ(got.rounds, 1);
  EXPECT_EQ(got.lsink_size, 16u);  // the union covered the window
}

TEST(TjaTest, PhaseAccountingCoversLbAndHj) {
  auto bed = TestBed::Grid(25, 4, 449);
  data::UniformGenerator gen(25, data::Modality::kSound, util::Rng(83));
  RingHistory history(data::DrawnRing(gen, 25, 0, 32), 32);
  HistoricOptions opt;
  opt.k = 3;
  Tja tja(bed.net.get(), &history, opt);
  tja.Run();
  EXPECT_GT(bed.net->PhaseTotal("tja.lb").payload_bytes, 0u);
  EXPECT_GT(bed.net->PhaseTotal("tja.hj").payload_bytes, 0u);
  EXPECT_EQ(bed.net->PhaseTotal("tja.lb").payload_bytes +
                bed.net->PhaseTotal("tja.hj").payload_bytes,
            bed.net->total().payload_bytes);
}

TEST(TjaTest, CheaperThanCentralizedBaselines) {
  auto tja_bed = TestBed::Grid(49, 4, 457);
  auto cja_bed = TestBed::Grid(49, 4, 457);
  auto tagh_bed = TestBed::Grid(49, 4, 457);
  // Temporally correlated data (a building-wide walk + per-sensor noise):
  // hot time instances are shared across nodes, so the LB union stays small
  // — the regime historic top-k monitoring targets.
  auto make_history = [&](uint64_t seed) {
    std::vector<sim::GroupId> rooms(49, 0);
    data::RoomCorrelatedGenerator gen(rooms, data::Modality::kSound, /*room_sigma=*/4.0,
                                      /*noise_sigma=*/1.0, util::Rng(seed));
    return RingHistory(data::DrawnRing(gen, 49, 0, 64), 64);
  };
  RingHistory h1 = make_history(91);
  RingHistory h2 = make_history(91);
  RingHistory h3 = make_history(91);
  HistoricOptions opt;
  opt.k = 3;
  Tja tja(tja_bed.net.get(), &h1, opt);
  Cja cja(cja_bed.net.get(), &h2, opt);
  TagHistoric tagh(tagh_bed.net.get(), &h3, opt);
  auto tja_result = tja.Run();
  auto cja_result = cja.Run();
  auto tagh_result = tagh.Run();
  EXPECT_TRUE(SameItems(tja_result.items, cja_result.items));
  EXPECT_TRUE(SameItems(tja_result.items, tagh_result.items));
  EXPECT_LT(tja_bed.net->total().payload_bytes, tagh_bed.net->total().payload_bytes);
  EXPECT_LT(tagh_bed.net->total().payload_bytes, cja_bed.net->total().payload_bytes);
}

TEST(TjaTest, MaxAggregateFallsBackToExactFullCoverage) {
  // MAX has no sound union-threshold certificate; TJA must widen to the full
  // window (one round, Lsink = window) and still rank exactly.
  auto bed = TestBed::Grid(16, 4, 471);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(43));
  RingHistory history(data::DrawnRing(gen, 16, 0, 24), 24);
  HistoricOptions opt;
  opt.k = 3;
  opt.agg = agg::AggKind::kMax;
  Tja tja(bed.net.get(), &history, opt);
  HistoricResult got = tja.Run();
  auto want = HistoricOracle(history, agg::AggKind::kMax, 3);
  EXPECT_TRUE(SameItems(got.items, want));
  EXPECT_EQ(got.rounds, 1);
  EXPECT_EQ(got.lsink_size, 24u);
}

TEST(TjaTest, ValidatorRejectsMaxHistoricSql) {
  auto q = query::Parse(
      "SELECT TOP 3 epoch, MAX(sound) FROM sensors GROUP BY epoch WITH HISTORY 32");
  ASSERT_TRUE(q.ok());
  auto status = query::Validate(q.value());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("AVG and SUM"), std::string::npos);
}

TEST(TjaTest, LsinkGrowsWithK) {
  auto run_lsink = [&](int k) {
    auto bed = TestBed::Grid(25, 4, 461);
    data::UniformGenerator gen(25, data::Modality::kSound, util::Rng(97));
    RingHistory history(data::DrawnRing(gen, 25, 0, 64), 64);
    HistoricOptions opt;
    opt.k = k;
    Tja tja(bed.net.get(), &history, opt);
    return tja.Run().lsink_size;
  };
  EXPECT_LE(run_lsink(1), run_lsink(8));
}

TEST(CjaTest, ShipsEntireWindows) {
  auto bed = TestBed::Grid(16, 4, 467);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(101));
  RingHistory history(data::DrawnRing(gen, 16, 0, 32), 32);
  HistoricOptions opt;
  opt.k = 2;
  Cja cja(bed.net.get(), &history, opt);
  auto result = cja.Run();
  EXPECT_EQ(result.lsink_size, 32u);  // sink saw every key
  // Every sensor contributes 32 entries relayed along its whole path:
  // payload must exceed raw entry volume.
  EXPECT_GT(bed.net->total().payload_bytes, 15u * 32u * 6u);
}

TEST(TjaTest, SplitWavesMatchSerialBitForBit) {
  // The same query twice, the second with a pool bound so its LB and HJ
  // converge-casts split across lanes: same answer, rounds and charges.
  std::set<int> rounds;
  for (bool bloom : {false, true}) {
    for (size_t k : {1u, 3u, 8u}) {
      auto serial = TestBed::Clustered(601, 12, 263 + k);
      auto split = TestBed::Clustered(601, 12, 263 + k);
      std::vector<sim::GroupId> rooms;
      for (sim::NodeId id = 0; id < 601; ++id) rooms.push_back(serial.topology.room(id));
      // A building-wide walk on an integer ADC grid: hot instances tie, so
      // some queries deepen.
      data::RoomCorrelatedGenerator gen(rooms, data::Modality::kSound, 0.4, 0.3,
                                        util::Rng(59 + k), /*global_sigma=*/1.0,
                                        /*quantize_step=*/1.0);
      RingHistory history(data::DrawnRing(gen, 601, 0, 32), 32);
      HistoricOptions opt;
      opt.k = static_cast<int>(k);
      opt.use_bloom = bloom;
      HistoricResult want = Tja(serial.net.get(), &history, opt).Run();
      util::SharedTaskPool pool;
      sim::Network::PoolScope scope(*split.net, &pool);
      HistoricResult got = Tja(split.net.get(), &history, opt).Run();
      ASSERT_EQ(got.items, want.items) << "k " << k << " bloom " << bloom;
      EXPECT_EQ(got.lsink_size, want.lsink_size);
      EXPECT_EQ(got.rounds, want.rounds);
      rounds.insert(want.rounds);
      EXPECT_EQ(kspot::testing::ChargeDigest(*split.net),
                kspot::testing::ChargeDigest(*serial.net));
    }
  }
  EXPECT_GT(rounds.size(), 1u);  // some queries deepened
}

}  // namespace
}  // namespace kspot::core
