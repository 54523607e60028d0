/// Historic query processing (core::HistoricStream and the coordinator's
/// one-shot vertical path):
///
///  1. the O(delta) incremental window maintenance is bit-identical to
///     re-collecting every window from scratch, every epoch, every agg kind;
///  2. predictive suppression bounds reconstruction error by eps and
///     actually cuts radio traffic; off, it is bit-inert;
///  3. flash archiving/accounting charges the energy ledger without
///     perturbing a single answer bit;
///  4. through the QueryCoordinator, a vertical query runs one TJA over its
///     buffered window at bind time;
///  5. a one-shot vertical query ranks the window it names: [0, W) when bound
///     before the first step, the W epochs before its admit epoch otherwise
///     (fewer when fewer exist), checked against a brute-force ranking;
///  6. audits and horizontal windows admitted around a growth of the
///     session's reading ring answer as that replay oracle does, whether or
///     not the generator hands out checkpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/historic_stream.hpp"
#include "data/windowed.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "util/fixed_point.hpp"

namespace kspot {
namespace {

constexpr const char* kVerticalSql =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16";

struct StreamRun {
  std::vector<core::TopKResult> per_epoch;
  sim::TrafficCounters total;
  uint64_t suppressed = 0;
  double max_recon_err = 0.0;
  double suppression_ratio = 0.0;
  storage::IoCounters flash_io;
};

StreamRun RunStream(const core::HistoricStreamOptions& hopt, size_t nodes, size_t rooms,
                    size_t epochs, uint64_t seed) {
  auto bed = bench::Bed::Grid(nodes, rooms, seed);
  auto gen = bed.RoomData(seed);
  core::HistoricStream stream(bed.net.get(), gen.get(), hopt);
  StreamRun run;
  for (size_t e = 0; e < epochs; ++e) {
    run.per_epoch.push_back(stream.RunEpoch(static_cast<sim::Epoch>(e)));
  }
  run.total = bed.net->total();
  run.suppressed = stream.suppressed();
  run.max_recon_err = stream.max_reconstruction_error();
  run.suppression_ratio = stream.suppression_ratio();
  run.flash_io = stream.FlashIoTotal();
  return run;
}

// ------------------------------------------------------- delta == scratch

TEST(HistoricStreamTest, DeltaMatchesScratchBitExactEveryEpoch) {
  for (agg::AggKind kind : {agg::AggKind::kAvg, agg::AggKind::kMax, agg::AggKind::kSum}) {
    SCOPED_TRACE(static_cast<int>(kind));
    core::HistoricStreamOptions hopt;
    hopt.k = 3;
    hopt.agg = kind;
    hopt.window = 16;
    hopt.incremental = true;
    StreamRun delta = RunStream(hopt, 49, 8, 40, 17);
    hopt.incremental = false;
    StreamRun scratch = RunStream(hopt, 49, 8, 40, 17);
    ASSERT_EQ(delta.per_epoch.size(), scratch.per_epoch.size());
    for (size_t e = 0; e < delta.per_epoch.size(); ++e) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      // Bit-exact, not approximate: the fixed-point partials merge to the
      // same integers regardless of when each epoch's wave collected them.
      EXPECT_EQ(delta.per_epoch[e].items, scratch.per_epoch[e].items);
      EXPECT_EQ(delta.per_epoch[e].completeness, 1.0);
    }
    // The whole point: the delta path ships O(1) partials per node instead
    // of O(W) — identical answers at a fraction of the bytes.
    EXPECT_LT(delta.total.payload_bytes * 2, scratch.total.payload_bytes);
  }
}

TEST(HistoricStreamTest, ResultsRankAtMostKWindowEpochs) {
  core::HistoricStreamOptions hopt;
  hopt.k = 3;
  hopt.window = 8;
  StreamRun run = RunStream(hopt, 25, 4, 20, 5);
  for (size_t e = 0; e < run.per_epoch.size(); ++e) {
    const core::TopKResult& r = run.per_epoch[e];
    EXPECT_LE(r.items.size(), 3u);
    for (const auto& item : r.items) {
      // Ranked groups are epochs inside the current window.
      EXPECT_LE(item.group, static_cast<sim::GroupId>(e));
      EXPECT_GE(item.group, static_cast<sim::GroupId>(e) - 7);
    }
  }
}

// ------------------------------------------------------------- suppression

TEST(HistoricStreamTest, SuppressionBoundsErrorAndCutsTraffic) {
  core::HistoricStreamOptions hopt;
  hopt.k = 3;
  hopt.window = 16;
  StreamRun base = RunStream(hopt, 49, 8, 40, 23);
  hopt.suppression = true;
  hopt.suppression_eps = 2.0;
  StreamRun on = RunStream(hopt, 49, 8, 40, 23);

  EXPECT_GT(on.suppressed, 0u) << "bed produced no suppressible readings";
  EXPECT_GT(on.suppression_ratio, 0.0);
  EXPECT_LE(on.suppression_ratio, 1.0);
  EXPECT_LE(on.max_recon_err, hopt.suppression_eps);
  EXPECT_LT(on.total.payload_bytes, base.total.payload_bytes);

  // Suppression off is bit-inert: eps is never consulted.
  core::HistoricStreamOptions inert = hopt;
  inert.suppression = false;
  inert.suppression_eps = 99.0;
  StreamRun off = RunStream(inert, 49, 8, 40, 23);
  ASSERT_EQ(off.per_epoch.size(), base.per_epoch.size());
  for (size_t e = 0; e < off.per_epoch.size(); ++e) {
    EXPECT_EQ(off.per_epoch[e].items, base.per_epoch[e].items);
  }
  EXPECT_EQ(off.total.payload_bytes, base.total.payload_bytes);
  EXPECT_EQ(off.total.messages, base.total.messages);
  EXPECT_EQ(off.suppressed, 0u);
  EXPECT_EQ(off.max_recon_err, 0.0);
}

// ----------------------------------------------------------- flash archiving

TEST(HistoricStreamTest, FlashArchivingLeavesAnswersAndRadioUntouched) {
  const size_t epochs = 80;  // window 4: enough evictions to flush pages
  core::HistoricStreamOptions hopt;
  hopt.k = 2;
  hopt.window = 4;
  StreamRun base = RunStream(hopt, 25, 4, epochs, 31);
  EXPECT_EQ(base.flash_io.writes, 0u);

  hopt.archive_to_flash = true;
  StreamRun flash = RunStream(hopt, 25, 4, epochs, 31);
  EXPECT_GT(flash.flash_io.writes, 0u) << "no pages flushed; test bed too small";
  EXPECT_GT(flash.flash_io.bytes, 0u);

  // Archiving never touches an answer bit, a radio byte or a radio joule.
  ASSERT_EQ(flash.per_epoch.size(), base.per_epoch.size());
  for (size_t e = 0; e < base.per_epoch.size(); ++e) {
    EXPECT_EQ(flash.per_epoch[e].items, base.per_epoch[e].items);
  }
  EXPECT_EQ(flash.total.payload_bytes, base.total.payload_bytes);
  EXPECT_EQ(flash.total.messages, base.total.messages);
  EXPECT_EQ(flash.total.energy_j(), base.total.energy_j());
}

// ------------------------------------------------------- coordinator serving

TEST(HistoricSessionTest, DefaultConfigKeepsOneShotTja) {
  system::QueryCoordinator::Options opt;
  opt.epochs = 8;
  opt.seed = 99;
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(4, 3, 5), opt);
  ASSERT_TRUE(coordinator.Admit(kVerticalSql).ok());
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().outcomes.size(), 1u);
  const auto& outcome = report.value().outcomes[0];
  EXPECT_EQ(outcome.algorithm.rfind("TJA", 0), 0u);  // one-shot, as seeded
  EXPECT_TRUE(outcome.per_epoch.empty());
  EXPECT_FALSE(outcome.historic.items.empty());
}

// ------------------------------------------------- one-shot audit windows

constexpr uint64_t kAuditSeed = 99;

/// Runs one default-config session with a continuous snapshot query and one
/// vertical audit (kVerticalSql, W = 16) admitted at each of `admits`
/// (ascending; 0 = before Open, later epochs mid-session, every audit live
/// until Close). Returns each audit's ranked items, in the order of `admits`.
std::vector<std::vector<agg::RankedItem>> AuditsAdmittedAt(const std::vector<sim::Epoch>& admits,
                                                           sim::Epoch epochs) {
  system::QueryCoordinator::Options opt;
  opt.epochs = epochs;
  opt.seed = kAuditSeed;
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(4, 3, 5), opt);
  EXPECT_TRUE(std::is_sorted(admits.begin(), admits.end()));
  EXPECT_TRUE(
      coordinator.Admit("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid").ok());
  for (sim::Epoch a : admits) {
    if (a == 0) {
      EXPECT_TRUE(coordinator.Admit(kVerticalSql).ok());
    }
  }
  EXPECT_TRUE(coordinator.Open().ok());
  for (sim::Epoch e = 0; e < epochs; ++e) {
    for (sim::Epoch a : admits) {
      if (a == e && a > 0) {
        EXPECT_TRUE(coordinator.Admit(kVerticalSql).ok());
      }
    }
    EXPECT_TRUE(coordinator.StepEpoch().ok());
  }
  auto report = coordinator.Close();
  EXPECT_TRUE(report.ok());
  // Outcomes come in admission order: the snapshot query, then the audits.
  const auto& outcomes = report.value().outcomes;
  EXPECT_EQ(outcomes.size(), admits.size() + 1);
  std::vector<std::vector<agg::RankedItem>> out;
  for (size_t i = 1; i < outcomes.size(); ++i) out.push_back(outcomes[i].historic.items);
  return out;
}

/// Brute-force top-k of epochs [first, end) by the AVG reading over every
/// sensor, best first, earlier epochs winning ties. Group i stands for epoch
/// first + i. Sums run in the aggregates' fixed point so ties are exact.
std::vector<agg::RankedItem> OracleTopK(sim::Epoch first, sim::Epoch end, size_t k) {
  system::Deployment deployment(system::Scenario::ConferenceFloor(4, 3, 5), kAuditSeed);
  auto gen = deployment.DefaultGenerator(kAuditSeed);
  size_t n = deployment.topology.num_nodes();
  std::vector<int64_t> sum_fx(end - first, 0);
  for (sim::Epoch e = first; e < end; ++e) {
    for (sim::NodeId id = 1; id < n; ++id) {
      sum_fx[e - first] += util::fixed_point::Encode(gen->Value(id, e));
    }
  }
  std::vector<size_t> order(sum_fx.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return sum_fx[a] > sum_fx[b]; });
  std::vector<agg::RankedItem> out;
  for (size_t i = 0; i < std::min(k, order.size()); ++i) {
    double avg = static_cast<double>(sum_fx[order[i]]) / util::fixed_point::kScale /
                 static_cast<double>(n - 1);
    out.push_back(agg::RankedItem{static_cast<sim::GroupId>(order[i]), avg});
  }
  return out;
}

TEST(HistoricAuditWindowTest, MidSessionAdmitRanksTheLastWEpochs) {
  auto items = AuditsAdmittedAt({20}, 24);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], OracleTopK(4, 20, 3));
}

TEST(HistoricAuditWindowTest, EarlyAdmitRanksOnlyReadingsThatExist) {
  auto items = AuditsAdmittedAt({6}, 12);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], OracleTopK(0, 6, 3));
}

TEST(HistoricAuditWindowTest, OpenTimeBindRanksPreHistory) {
  auto items = AuditsAdmittedAt({0}, 4);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0], OracleTopK(0, 16, 3));
}

TEST(HistoricAuditWindowTest, LiveAuditsAtDifferentEpochsDoNotShare) {
  auto items = AuditsAdmittedAt({20, 25}, 28);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], OracleTopK(4, 20, 3));
  EXPECT_EQ(items[1], OracleTopK(9, 25, 3));
}

TEST(HistoricAuditWindowTest, LateAndBoundaryAdmitsEqualFullReplay) {
  // Windows starting one epoch before a multiple of 16 and on one (31/32 and
  // 47/48 admits), and an audit admitted late in the session, each against
  // an oracle that replays the generator from epoch 0.
  const std::vector<sim::Epoch> admits = {31, 32, 47, 48, 300};
  auto items = AuditsAdmittedAt(admits, 301);
  ASSERT_EQ(items.size(), admits.size());
  for (size_t i = 0; i < admits.size(); ++i) {
    SCOPED_TRACE("admit " + std::to_string(admits[i]));
    EXPECT_EQ(items[i], OracleTopK(admits[i] - 16, admits[i], 3));
  }
}

// ------------------------------------------------- reading-ring growth

/// The deployment's default readings from a generator that hands out no
/// checkpoint, so every replay starts over from epoch 0.
class UncheckpointedGenerator : public data::DataGenerator {
 public:
  explicit UncheckpointedGenerator(std::unique_ptr<data::DataGenerator> inner)
      : inner_(std::move(inner)) {}
  double Value(sim::NodeId id, sim::Epoch epoch) override { return inner_->Value(id, epoch); }
  void PrepareEpoch(sim::Epoch epoch) override { inner_->PrepareEpoch(epoch); }
  const data::ModalityInfo& modality() const override { return inner_->modality(); }

 private:
  std::unique_ptr<data::DataGenerator> inner_;
};

constexpr const char* kWideVerticalSql =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 40";
constexpr const char* kHorizontalSql =
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 24";

/// A W = 16 audit at epoch 40 sizes the session's reading ring; at 300 a
/// W = 40 audit grows it, at 301 a W = 16 audit reads the newest 16 of its
/// 40 rows, and at 302 a period-3 W = 24 horizontal group joins. Every
/// answer is checked against an oracle that replays the generator from
/// epoch 0.
void CheckGrowthBoundary(bool checkpointed) {
  const system::Scenario scenario = system::Scenario::ConferenceFloor(4, 3, 5);
  const system::Deployment deployment(scenario, kAuditSeed);
  system::QueryCoordinator::Options opt;
  opt.epochs = 320;
  opt.seed = kAuditSeed;
  if (!checkpointed) {
    opt.make_generator = [&deployment](const system::Scenario&, uint64_t seed) {
      return std::unique_ptr<data::DataGenerator>(
          std::make_unique<UncheckpointedGenerator>(deployment.DefaultGenerator(seed)));
    };
  }
  system::QueryCoordinator coordinator(scenario, opt);
  ASSERT_TRUE(
      coordinator.Admit("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid").ok());
  ASSERT_TRUE(coordinator.Open().ok());
  system::AdmitOptions every3;
  every3.period = 3;
  for (sim::Epoch e = 0; e < opt.epochs; ++e) {
    if (e == 40) {
      ASSERT_TRUE(coordinator.Admit(kVerticalSql).ok());
    }
    if (e == 300) {
      ASSERT_TRUE(coordinator.Admit(kWideVerticalSql).ok());
    }
    if (e == 301) {
      ASSERT_TRUE(coordinator.Admit(kVerticalSql).ok());
    }
    if (e == 302) {
      ASSERT_TRUE(coordinator.Admit(kHorizontalSql, every3).ok());
    }
    ASSERT_TRUE(coordinator.StepEpoch().ok());
  }
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  const auto& outcomes = report.value().outcomes;
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[1].historic.items, OracleTopK(24, 40, 3));
  EXPECT_EQ(outcomes[2].historic.items, OracleTopK(260, 300, 3));
  EXPECT_EQ(outcomes[3].historic.items, OracleTopK(285, 301, 3));

  // The horizontal oracle shares no code with the view: each room's AVG over
  // every reading its nodes took in [max(0, e - 23), e], from a plain replay.
  const system::QueryOutcome& horizontal = outcomes[4];
  EXPECT_EQ(horizontal.algorithm, "MINT+history");
  ASSERT_EQ(horizontal.per_epoch.size(), 6u);  // epochs 302, 305, ..., 317
  auto gen = deployment.DefaultGenerator(kAuditSeed);
  const size_t n = deployment.topology.num_nodes();
  std::vector<std::vector<double>> readings(opt.epochs, std::vector<double>(n, 0.0));
  for (sim::Epoch e = 0; e < opt.epochs; ++e) {
    for (sim::NodeId id = 1; id < n; ++id) readings[e][id] = gen->Value(id, e);
  }
  for (size_t i = 0; i < horizontal.per_epoch.size(); ++i) {
    const sim::Epoch e = 302 + 3 * i;
    SCOPED_TRACE("epoch " + std::to_string(e));
    std::map<sim::GroupId, std::pair<double, size_t>> rooms;  // sum, readings
    for (sim::Epoch t = e - 23; t <= e; ++t) {
      for (sim::NodeId id = 1; id < n; ++id) {
        auto& [sum, count] = rooms[deployment.topology.room(id)];
        sum += readings[t][id];
        ++count;
      }
    }
    // Node windows are quantized to 1/256 before the rooms average them.
    const double tolerance = 1.0 / util::fixed_point::kScale;
    const auto& items = horizontal.per_epoch[i].items;
    EXPECT_EQ(horizontal.per_epoch[i].epoch, e);
    ASSERT_EQ(items.size(), 2u);
    for (const agg::RankedItem& item : items) {
      const auto& [sum, count] = rooms.at(item.group);
      EXPECT_NEAR(item.value, sum / static_cast<double>(count), tolerance);
    }
    EXPECT_GE(items[0].value, items[1].value);
    for (const auto& [room, total] : rooms) {
      if (room == items[0].group || room == items[1].group) continue;
      EXPECT_LE(total.first / static_cast<double>(total.second), items[1].value + tolerance);
    }
  }
}

TEST(HistoricAuditWindowTest, RingGrowthMatchesReplayOracle) { CheckGrowthBoundary(true); }

TEST(HistoricAuditWindowTest, RingGrowthWithoutCheckpointsMatchesReplayOracle) {
  CheckGrowthBoundary(false);
}

TEST(HistoricAuditWindowTest, WideWindowsKeepTheRingToTheEpochsDrawn) {
  // A W = 65535 audit at epoch 10 ranks the 10 epochs that exist and sizes
  // the reading ring to them, not to W. A W = 65535 horizontal group at
  // epoch 20 grows it to W rows, of which it holds one per epoch drawn.
  system::QueryCoordinator::Options opt;
  opt.epochs = 60;
  opt.seed = kAuditSeed;
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(4, 3, 5), opt);
  ASSERT_TRUE(
      coordinator.Admit("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid").ok());
  ASSERT_TRUE(coordinator.Open().ok());
  EXPECT_EQ(coordinator.session_ring(), nullptr);
  for (sim::Epoch e = 0; e < opt.epochs; ++e) {
    if (e == 10) {
      ASSERT_TRUE(coordinator
                      .Admit("SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch "
                             "WITH HISTORY 65535")
                      .ok());
      ASSERT_NE(coordinator.session_ring(), nullptr);
    }
    if (e == 20) {
      ASSERT_TRUE(coordinator
                      .Admit("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid "
                             "WITH HISTORY 65535")
                      .ok());
    }
    if (const data::ReadingRing* ring = coordinator.session_ring()) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      EXPECT_EQ(ring->rows(), e < 20 ? 10u : 65535u);
      EXPECT_EQ(ring->held(), e < 20 ? 10u : e);
      EXPECT_EQ(ring->next_epoch(), e);
    }
    ASSERT_TRUE(coordinator.StepEpoch().ok());
  }
  EXPECT_EQ(coordinator.session_ring()->held(), opt.epochs);
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().outcomes.size(), 3u);
  EXPECT_EQ(report.value().outcomes[1].historic.items, OracleTopK(0, 10, 3));
  EXPECT_EQ(report.value().outcomes[2].per_epoch.size(), 40u);
}

}  // namespace
}  // namespace kspot
