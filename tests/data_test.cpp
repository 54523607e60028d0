#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "data/generators.hpp"
#include "data/modality.hpp"
#include "data/windowed.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"

namespace kspot::data {
namespace {

constexpr size_t kNodes = 20;

template <typename Gen>
void ExpectDomainAndDeterminism(Gen& gen) {
  const ModalityInfo& info = gen.modality();
  for (sim::Epoch e = 0; e < 30; ++e) {
    for (sim::NodeId id = 1; id < kNodes; ++id) {
      double v1 = gen.Value(id, e);
      double v2 = gen.Value(id, e);  // repeat query of same epoch
      EXPECT_DOUBLE_EQ(v1, v2);
      EXPECT_GE(v1, info.min_value);
      EXPECT_LE(v1, info.max_value);
      // Values live on the fixed-point grid (source quantization).
      EXPECT_DOUBLE_EQ(v1, util::fixed_point::Quantize(v1));
    }
  }
}

TEST(ModalityTest, LookupAndParse) {
  const ModalityInfo& sound = GetModalityInfo(Modality::kSound);
  EXPECT_EQ(sound.name, "sound");
  EXPECT_DOUBLE_EQ(sound.max_value, 100.0);
  Modality m;
  EXPECT_TRUE(ParseModality("TEMPERATURE", &m));
  EXPECT_EQ(m, Modality::kTemperature);
  EXPECT_FALSE(ParseModality("flux", &m));
}

TEST(ConstantGeneratorTest, ReturnsFixedValues) {
  ConstantGenerator gen({0, 10, 20, 30}, Modality::kSound);
  EXPECT_DOUBLE_EQ(gen.Value(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(gen.Value(1, 99), 10.0);
  EXPECT_DOUBLE_EQ(gen.Value(3, 5), 30.0);
  EXPECT_DOUBLE_EQ(gen.Value(9, 0), 0.0);  // out of range -> 0
}

TEST(UniformGeneratorTest, DomainAndDeterminism) {
  UniformGenerator gen(kNodes, Modality::kSound, util::Rng(5));
  ExpectDomainAndDeterminism(gen);
}

TEST(UniformGeneratorTest, SameSeedSameSeries) {
  UniformGenerator a(kNodes, Modality::kLight, util::Rng(9));
  UniformGenerator b(kNodes, Modality::kLight, util::Rng(9));
  for (sim::Epoch e = 0; e < 10; ++e) {
    for (sim::NodeId id = 1; id < kNodes; ++id) {
      EXPECT_DOUBLE_EQ(a.Value(id, e), b.Value(id, e));
    }
  }
}

TEST(GaussianGeneratorTest, CentersOnMeans) {
  GaussianGenerator gen(kNodes, Modality::kSound, 1.0, util::Rng(7));
  ExpectDomainAndDeterminism(gen);
  // Averaged over epochs, node values should stay near their per-node mean:
  // variance of the mean of 200 samples with sigma=1 is tiny. The epochs
  // continue after the 30 the determinism check read.
  double first_epoch = gen.Value(1, 30);
  double acc = 0;
  for (sim::Epoch e = 30; e < 230; ++e) acc += gen.Value(1, e);
  EXPECT_NEAR(acc / 200.0, first_epoch, 3.0);
}

TEST(RandomWalkGeneratorTest, StepsAreBounded) {
  RandomWalkGenerator gen(kNodes, Modality::kSound, 0.5, util::Rng(11));
  ExpectDomainAndDeterminism(gen);
}

TEST(RandomWalkGeneratorTest, VolatilityScalesWithSigma) {
  RandomWalkGenerator calm(kNodes, Modality::kSound, 0.1, util::Rng(13));
  RandomWalkGenerator wild(kNodes, Modality::kSound, 5.0, util::Rng(13));
  double calm_move = 0, wild_move = 0;
  double calm_prev = calm.Value(1, 0), wild_prev = wild.Value(1, 0);
  for (sim::Epoch e = 1; e < 100; ++e) {
    calm_move += std::abs(calm.Value(1, e) - calm_prev);
    wild_move += std::abs(wild.Value(1, e) - wild_prev);
    calm_prev = calm.Value(1, e);
    wild_prev = wild.Value(1, e);
  }
  EXPECT_LT(calm_move * 4, wild_move);
}

TEST(RoomCorrelatedGeneratorTest, NodesInSameRoomCorrelate) {
  // Rooms: nodes 1-5 in room 0, nodes 6-10 in room 1.
  std::vector<sim::GroupId> rooms(11, 0);
  for (sim::NodeId id = 6; id <= 10; ++id) rooms[id] = 1;
  RoomCorrelatedGenerator gen(rooms, Modality::kSound, 2.0, 0.5, util::Rng(17));
  ExpectDomainAndDeterminism(gen);
  // Same-room spread should be much smaller than the room separation on
  // average (not guaranteed per epoch; average over many). The epochs
  // continue after the 30 the determinism check read.
  double within = 0, across = 0;
  for (sim::Epoch e = 30; e < 130; ++e) {
    within += std::abs(gen.Value(1, e) - gen.Value(2, e));
    across += std::abs(gen.Value(1, e) - gen.Value(6, e));
  }
  EXPECT_LT(within, across);
}

TEST(SpikeGeneratorTest, SpikesAppearAtRoughlyTheConfiguredRate) {
  SpikeGenerator gen(kNodes, Modality::kSound, 20.0, 0.05, util::Rng(19));
  ExpectDomainAndDeterminism(gen);
  int spikes = 0, total = 0;
  for (sim::Epoch e = 30; e < 330; ++e) {
    for (sim::NodeId id = 1; id < kNodes; ++id) {
      spikes += gen.Value(id, e) > 80.0;
      ++total;
    }
  }
  double rate = static_cast<double>(spikes) / total;
  EXPECT_NEAR(rate, 0.05, 0.02);
}

TEST(TraceGeneratorTest, ReplaysAndWraps) {
  std::vector<std::vector<double>> m = {{0, 1, 2}, {0, 3, 4}};
  TraceGenerator gen(m, Modality::kSound);
  EXPECT_EQ(gen.trace_length(), 2u);
  EXPECT_DOUBLE_EQ(gen.Value(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(gen.Value(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(gen.Value(1, 2), 1.0);  // wrap
  EXPECT_DOUBLE_EQ(gen.Value(2, 5), 4.0);
}

TEST(WindowAggregateGeneratorTest, AveragesSlidingWindow) {
  std::vector<std::vector<double>> m = {{0, 10}, {0, 20}, {0, 30}, {0, 40}};
  TraceGenerator inner(m, Modality::kSound);
  WindowAggregateGenerator gen(&inner, 2, /*window=*/2, agg::AggKind::kAvg);
  EXPECT_DOUBLE_EQ(gen.Value(1, 0), 10.0);          // only one sample yet
  EXPECT_DOUBLE_EQ(gen.Value(1, 1), 15.0);          // (10+20)/2
  EXPECT_DOUBLE_EQ(gen.Value(1, 2), 25.0);          // (20+30)/2
  EXPECT_DOUBLE_EQ(gen.Value(1, 3), 35.0);          // (30+40)/2
}

TEST(WindowAggregateGeneratorTest, MaxAndMinKinds) {
  std::vector<std::vector<double>> m = {{0, 10}, {0, 40}, {0, 20}};
  TraceGenerator inner_max(m, Modality::kSound);
  WindowAggregateGenerator gmax(&inner_max, 2, 3, agg::AggKind::kMax);
  EXPECT_DOUBLE_EQ(gmax.Value(1, 2), 40.0);
  TraceGenerator inner_min(m, Modality::kSound);
  WindowAggregateGenerator gmin(&inner_min, 2, 3, agg::AggKind::kMin);
  EXPECT_DOUBLE_EQ(gmin.Value(1, 2), 10.0);
}

// ------------------------------------------------------------ pinned draws
//
// FNV-1a digests of every reading over 300 epochs, recorded on the generator
// that kept its room levels in a hash map, so a change of room-level storage
// or of window bookkeeping that moved any draw or any bit shows.

uint64_t FnvReading(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// 200 nodes over 69 scattered room ids, so the per-epoch room walk visits
/// the rooms in an order unlike both their ids and their first appearance.
std::vector<sim::GroupId> ScatteredRooms() {
  std::vector<sim::GroupId> rooms(200, 0);
  for (size_t i = 1; i < rooms.size(); ++i) {
    rooms[i] = static_cast<sim::GroupId>((i * 37) % 23 + (i % 3) * 100);
  }
  return rooms;
}

RoomCorrelatedGenerator PinnedRoomGenerator() {
  return RoomCorrelatedGenerator(ScatteredRooms(), Modality::kSound, /*room_sigma=*/2.0,
                                 /*noise_sigma=*/1.0, util::Rng(2024), /*global_sigma=*/3.0,
                                 /*quantize_step=*/1.0);
}

TEST(RoomCorrelatedGeneratorTest, First300EpochsMatchPinnedDigest) {
  RoomCorrelatedGenerator gen = PinnedRoomGenerator();
  uint64_t h = 0xcbf29ce484222325ULL;
  for (sim::Epoch e = 0; e < 300; ++e) {
    for (sim::NodeId id = 0; id < 200; ++id) h = FnvReading(h, gen.Value(id, e));
  }
  EXPECT_EQ(h, 0xd087cf5bb55e2e8fULL);
}

TEST(WindowAggregateGeneratorTest, RoomWalkWindowsMatchPinnedDigest) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (agg::AggKind kind : {agg::AggKind::kAvg, agg::AggKind::kMin, agg::AggKind::kMax,
                            agg::AggKind::kSum, agg::AggKind::kCount}) {
    RoomCorrelatedGenerator inner = PinnedRoomGenerator();
    WindowAggregateGenerator gen(&inner, 200, /*window=*/7, kind);
    for (sim::Epoch e = 0; e < 300; ++e) {
      for (sim::NodeId id = 0; id < 200; ++id) h = FnvReading(h, gen.Value(id, e));
    }
  }
  EXPECT_EQ(h, 0xa0d77f1ae219e42bULL);
}

// ------------------------------------------------------------- checkpoints

/// One of each library generator that hands out checkpoints (the ones a
/// session can install), freshly built from fixed seeds.
std::vector<std::function<std::unique_ptr<DataGenerator>()>> EveryCheckpointingGenerator() {
  return {
      [] { return std::make_unique<ConstantGenerator>(std::vector<double>{0, 10, 20, 30}); },
      [] { return std::make_unique<RoomCorrelatedGenerator>(PinnedRoomGenerator()); },
      [] {
        return std::make_unique<TraceGenerator>(
            std::vector<std::vector<double>>{{0, 1, 2}, {0, 3, 4}, {0, 5, 6}}, Modality::kSound);
      },
  };
}

TEST(GeneratorCheckpointTest, ResumedGeneratorsContinueBitForBit) {
  const std::vector<sim::Epoch> checkpoint_after = {0, 1, 7, 16};
  auto makers = EveryCheckpointingGenerator();
  for (size_t g = 0; g < makers.size(); ++g) {
    for (sim::Epoch c : checkpoint_after) {
      SCOPED_TRACE("generator " + std::to_string(g) + ", checkpoint after epoch " +
                   std::to_string(c));
      std::unique_ptr<DataGenerator> original = makers[g]();
      for (sim::Epoch e = 0; e <= c; ++e) original->PrepareEpoch(e);
      std::optional<GeneratorCheckpoint> checkpoint = original->Checkpoint();
      ASSERT_TRUE(checkpoint.has_value());
      EXPECT_LE(checkpoint->next_epoch, c + 1);
      // The original moves on before the checkpoint is resumed, as a
      // session's generator does before an admit resumes an old checkpoint.
      std::vector<double> want;
      for (sim::Epoch e = c + 1; e <= c + 40; ++e) {
        for (sim::NodeId id = 0; id < 200; ++id) want.push_back(original->Value(id, e));
      }
      std::unique_ptr<DataGenerator> resumed = original->Resume(*checkpoint);
      ASSERT_NE(resumed, nullptr);
      size_t i = 0;
      for (sim::Epoch e = c + 1; e <= c + 40; ++e) {
        for (sim::NodeId id = 0; id < 200; ++id, ++i) {
          double got = resumed->Value(id, e);
          ASSERT_EQ(std::memcmp(&want[i], &got, sizeof got), 0) << "epoch " << e << " node " << id;
        }
      }
    }
  }
}

TEST(GeneratorCheckpointTest, FreshCheckpointReplaysFromEpochZero) {
  for (const auto& make : EveryCheckpointingGenerator()) {
    std::unique_ptr<DataGenerator> fresh = make();
    std::unique_ptr<DataGenerator> reference = make();
    std::unique_ptr<DataGenerator> resumed = fresh->Resume(*fresh->Checkpoint());
    for (sim::Epoch e = 0; e < 20; ++e) {
      for (sim::NodeId id = 0; id < 200; ++id) {
        EXPECT_EQ(resumed->Value(id, e), reference->Value(id, e));
      }
    }
  }
}

TEST(GeneratorCheckpointTest, RoomWalkCheckpointIsRoomSized) {
  // 69 rooms over 200 nodes: the checkpoint carries room levels, not nodes.
  RoomCorrelatedGenerator gen = PinnedRoomGenerator();
  gen.PrepareEpoch(3);
  std::optional<GeneratorCheckpoint> checkpoint = gen.Checkpoint();
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->levels.size(), 69u);
  EXPECT_EQ(checkpoint->next_epoch, 4u);
}

// ------------------------------------------------ epochs only move forward

TEST(GeneratorEpochOrderDeathTest, StatefulGeneratorsAbortWhenAskedBackwards) {
  EXPECT_DEATH(
      {
        RoomCorrelatedGenerator gen = PinnedRoomGenerator();
        gen.Value(1, 5);
        gen.Value(1, 3);
      },
      "RoomCorrelatedGenerator: epoch 3 asked after");
  EXPECT_DEATH(
      {
        RandomWalkGenerator gen(kNodes, Modality::kSound, 1.0, util::Rng(3));
        gen.Value(1, 5);
        gen.Value(1, 4);
      },
      "RandomWalkGenerator: epoch 4 asked after");
  EXPECT_DEATH(
      {
        UniformGenerator gen(kNodes, Modality::kSound, util::Rng(3));
        gen.Value(1, 5);
        gen.Value(1, 2);
      },
      "UniformGenerator: epoch 2 asked after");
  EXPECT_DEATH(
      {
        // A resumed generator cannot serve the epoch its checkpoint followed.
        RoomCorrelatedGenerator gen = PinnedRoomGenerator();
        gen.PrepareEpoch(6);
        gen.Resume(*gen.Checkpoint())->Value(1, 6);
      },
      "epoch 6 asked after");
}

TEST(GeneratorEpochOrderDeathTest, WindowsAbortWhenReadBackwardsOrPushedOutOfOrder) {
  std::vector<std::vector<double>> m = {{0, 10}, {0, 20}, {0, 30}, {0, 40}};
  EXPECT_DEATH(
      {
        TraceGenerator inner(m, Modality::kSound);
        WindowAggregateGenerator gen(&inner, 2, 2, agg::AggKind::kAvg);
        gen.Value(1, 3);
        gen.Value(1, 1);
      },
      "epoch 1 asked after");
  EXPECT_DEATH(
      {
        TraceGenerator inner(m, Modality::kSound);
        ReadingRing ring(2, 2, /*first=*/4);
        ring.Push(inner, 4);
        ring.Push(inner, 6);
      },
      "epoch 6 pushed, expected 5");
  EXPECT_DEATH(
      {
        // A view reads only the epoch its ring took last.
        TraceGenerator inner(m, Modality::kSound);
        ReadingRing ring(2, 2);
        ring.Push(inner, 0);
        WindowAggregateGenerator view(&ring, 2, agg::AggKind::kAvg, inner.modality());
        view.Value(1, 1);
      },
      "epoch 1 asked before its ring took it");
}

TEST(GeneratorEpochOrderDeathTest, WindowsOfNoEpochAbort) {
  std::vector<std::vector<double>> m = {{0, 10}, {0, 20}};
  EXPECT_DEATH({ ReadingRing ring(2, 0); }, "ReadingRing: a window must hold at least one epoch");
  EXPECT_DEATH(
      {
        TraceGenerator inner(m, Modality::kSound);
        WindowAggregateGenerator gen(&inner, 2, 0, agg::AggKind::kAvg);
      },
      "WindowAggregateGenerator: a window must hold at least one epoch");
  EXPECT_DEATH(
      {
        TraceGenerator inner(m, Modality::kSound);
        ReadingRing ring(2, 2);
        WindowAggregateGenerator view(&ring, 0, agg::AggKind::kAvg, inner.modality());
      },
      "WindowAggregateGenerator: a window must hold at least one epoch");
}

TEST(WindowAggregateGeneratorTest, PushedWindowMatchesPulledWindow) {
  // A view over a ring started at epoch 9 and pushed from there equals a
  // window pulled from epoch 0 once that has forgotten everything before
  // epoch 9.
  for (agg::AggKind kind : {agg::AggKind::kAvg, agg::AggKind::kMin, agg::AggKind::kMax}) {
    RoomCorrelatedGenerator pull_inner = PinnedRoomGenerator();
    RoomCorrelatedGenerator push_inner = PinnedRoomGenerator();
    WindowAggregateGenerator pulled(&pull_inner, 200, 4, kind);
    ReadingRing ring(200, 4, /*first=*/9);
    WindowAggregateGenerator pushed(&ring, 4, kind, push_inner.modality());
    for (sim::Epoch e = 0; e < 30; ++e) {
      push_inner.PrepareEpoch(e);
      if (e >= 9) ring.Push(push_inner, e);
      if (e < 12) continue;
      for (sim::NodeId id = 0; id < 200; ++id) EXPECT_EQ(pushed.Value(id, e), pulled.Value(id, e));
    }
  }
}

/// Node `id`'s readings in `ring`'s last `count` epochs, oldest first.
std::vector<double> LastReadings(const ReadingRing& ring, sim::NodeId id, size_t count) {
  std::vector<double> out;
  for (size_t age = ring.held() - count; age < ring.held(); ++age) out.push_back(ring.Row(age)[id]);
  return out;
}

TEST(ReadingRingTest, HoldsTheLastRowsEpochsAndNeverMoreThanPushed) {
  std::vector<std::vector<double>> m;
  for (int e = 0; e < 9; ++e) m.push_back({0, 10.0 + e, 20.0 + e});
  TraceGenerator inner(m, Modality::kSound);
  ReadingRing ring(3, 4);
  for (sim::Epoch e = 0; e < 9; ++e) {
    ring.Push(inner, e);
    EXPECT_EQ(ring.held(), std::min<size_t>(e + 1, 4));
    EXPECT_EQ(ring.next_epoch(), e + 1);
  }
  // Epochs 5..8, wrapped in storage; any suffix reads oldest first.
  EXPECT_EQ(LastReadings(ring, 1, 4), (std::vector<double>{15, 16, 17, 18}));
  EXPECT_EQ(LastReadings(ring, 2, 2), (std::vector<double>{27, 28}));
  EXPECT_EQ(LastReadings(ring, 0, 3), (std::vector<double>{0, 0, 0}));
}

TEST(ReadingRingTest, SumsEqualAMergeOfTheLastReadings) {
  // Every suffix of every node's readings, while the ring fills and after
  // it wraps.
  RoomCorrelatedGenerator inner = PinnedRoomGenerator();
  ReadingRing ring(200, 5);
  for (sim::Epoch e = 0; e < 13; ++e) {
    ring.Push(inner, e);
    for (sim::NodeId id = 0; id < 200; ++id) {
      for (size_t count = 1; count <= ring.held(); ++count) {
        int64_t merged = 0;
        for (double v : LastReadings(ring, id, count)) merged += util::fixed_point::Encode(v);
        EXPECT_EQ(ring.SumFx(id, count), merged) << "epoch " << e << " node " << id;
      }
    }
  }
}

TEST(ReadingRingTest, DrawnRingMatchesAPushedOne) {
  // A ring drawn from epochs [first, first + count) of a generator, as a
  // pre-history is, equals one pushed through the same epochs, and keeps
  // equal once both take more.
  RoomCorrelatedGenerator inner = PinnedRoomGenerator();
  RoomCorrelatedGenerator reference_inner = PinnedRoomGenerator();
  ReadingRing ring = DrawnRing(inner, 200, /*first=*/5, /*count=*/8);
  ReadingRing reference(200, 8, /*first=*/5);
  for (sim::Epoch e = 5; e < 13; ++e) reference.Push(reference_inner, e);
  EXPECT_EQ(ring.held(), 8u);
  EXPECT_EQ(ring.next_epoch(), 13u);
  for (sim::Epoch e = 13; e < 20; ++e) {
    ring.Push(inner, e);
    reference.Push(reference_inner, e);
    for (sim::NodeId id = 0; id < 200; ++id) {
      EXPECT_EQ(LastReadings(ring, id, 8), LastReadings(reference, id, 8));
    }
  }
}

}  // namespace
}  // namespace kspot::data
