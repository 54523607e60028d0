#include <gtest/gtest.h>

#include "agg/group_view.hpp"
#include "core/tja.hpp"
#include "core/tput.hpp"
#include "test_util.hpp"

namespace kspot::core {
namespace {

using kspot::testing::TestBed;

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

TEST(TputTest, ExactAcrossSeedsAndK) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (int k : {1, 3, 8}) {
      auto bed = TestBed::Grid(25, 4, 500 + seed);
      data::UniformGenerator gen(25, data::Modality::kSound, util::Rng(seed * 7 + 1));
      RingHistory history(data::DrawnRing(gen, 25, 0, 32), 32);
      HistoricOptions opt;
      opt.k = k;
      Tput tput(bed.net.get(), &history, opt);
      HistoricResult got = tput.Run();
      auto want = HistoricOracle(history, opt.agg, static_cast<size_t>(k));
      EXPECT_TRUE(SameItems(got.items, want)) << "seed " << seed << " k " << k;
    }
  }
}

TEST(TputTest, KLargerThanWindowReturnsEverything) {
  auto bed = TestBed::Grid(16, 4, 521);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(11));
  RingHistory history(data::DrawnRing(gen, 16, 0, 8), 8);
  HistoricOptions opt;
  opt.k = 20;  // > window
  Tput tput(bed.net.get(), &history, opt);
  HistoricResult got = tput.Run();
  EXPECT_EQ(got.items.size(), 8u);
  auto want = HistoricOracle(history, opt.agg, 8);
  EXPECT_TRUE(SameItems(got.items, want));
}

TEST(TputTest, PhaseStructureAccounted) {
  auto bed = TestBed::Grid(25, 4, 523);
  data::UniformGenerator gen(25, data::Modality::kSound, util::Rng(13));
  RingHistory history(data::DrawnRing(gen, 25, 0, 32), 32);
  HistoricOptions opt;
  opt.k = 3;
  Tput tput(bed.net.get(), &history, opt);
  tput.Run();
  EXPECT_GT(bed.net->PhaseTotal("tput.p1").payload_bytes, 0u);
  EXPECT_GT(bed.net->PhaseTotal("tput.p2").payload_bytes, 0u);
  EXPECT_GT(bed.net->PhaseTotal("tput.p3").payload_bytes, 0u);
}

TEST(TputTest, TjaBeatsTputInBytesOnSkewedData) {
  // Spiky data gives every node a distinct set of hot keys: TPUT's flat
  // relaying pays full path cost for each, TJA unions in-network.
  auto tja_bed = TestBed::Grid(49, 4, 541);
  auto tput_bed = TestBed::Grid(49, 4, 541);
  data::SpikeGenerator g1(49, data::Modality::kSound, 20.0, 0.05, util::Rng(17));
  data::SpikeGenerator g2(49, data::Modality::kSound, 20.0, 0.05, util::Rng(17));
  RingHistory h1(data::DrawnRing(g1, 49, 0, 64), 64);
  RingHistory h2(data::DrawnRing(g2, 49, 0, 64), 64);
  HistoricOptions opt;
  opt.k = 5;
  Tja tja(tja_bed.net.get(), &h1, opt);
  Tput tput(tput_bed.net.get(), &h2, opt);
  auto a = tja.Run();
  auto b = tput.Run();
  EXPECT_TRUE(SameItems(a.items, b.items));
  EXPECT_LT(tja_bed.net->total().payload_bytes, tput_bed.net->total().payload_bytes);
}

TEST(TputTest, CandidateSetContainsAtLeastK) {
  auto bed = TestBed::Grid(25, 4, 547);
  data::GaussianGenerator gen(25, data::Modality::kSound, 5.0, util::Rng(19));
  RingHistory history(data::DrawnRing(gen, 25, 0, 32), 32);
  HistoricOptions opt;
  opt.k = 4;
  Tput tput(bed.net.get(), &history, opt);
  HistoricResult got = tput.Run();
  EXPECT_GE(got.lsink_size, 4u);
}

}  // namespace
}  // namespace kspot::core
