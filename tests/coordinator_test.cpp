#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/generators.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/server.hpp"
#include "util/rng.hpp"

namespace kspot::system {
namespace {

constexpr const char* kSnapshotSql =
    "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kSelectSql = "SELECT nodeid, sound FROM sensors WHERE sound > 40";
constexpr const char* kGroupedSelectSql =
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kVerticalSql =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 24";
constexpr const char* kHorizontalSql =
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8";

QueryCoordinator::Options SmallRun(size_t epochs = 10, uint64_t seed = 99) {
  QueryCoordinator::Options opt;
  opt.epochs = epochs;
  opt.seed = seed;
  return opt;
}

std::string EpochDigest(const std::vector<core::TopKResult>& per_epoch) {
  char buf[64];
  std::string out;
  for (const auto& epoch : per_epoch) {
    for (const auto& item : epoch.items) {
      std::snprintf(buf, sizeof buf, "%d:%.17g;", item.group, item.value);
      out += buf;
    }
    out += '|';
  }
  return out;
}

std::string ReportDigest(const CoordinatorReport& report) {
  char buf[96];
  std::string out;
  for (const auto& outcome : report.outcomes) {
    out += outcome.algorithm + "/" + EpochDigest(outcome.per_epoch);
    for (const auto& rows : outcome.rows_per_epoch) {
      for (const auto& t : rows) {
        std::snprintf(buf, sizeof buf, "%u=%.17g;", t.node, t.value);
        out += buf;
      }
    }
    for (const auto& item : outcome.historic.items) {
      std::snprintf(buf, sizeof buf, "H%d:%.17g;", item.group, item.value);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "[m=%llu,b=%llu]",
                  static_cast<unsigned long long>(outcome.shared_cost.messages),
                  static_cast<unsigned long long>(outcome.shared_cost.payload_bytes));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "total=%llu/%llu",
                static_cast<unsigned long long>(report.total.messages),
                static_cast<unsigned long long>(report.total.payload_bytes));
  out += buf;
  return out;
}

TEST(CoordinatorTest, AdmitValidatesAndCancelWithdraws) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(4, 3, 5), SmallRun());
  EXPECT_EQ(coordinator.active_queries(), 0u);
  EXPECT_FALSE(coordinator.Admit("SELECT").ok());
  EXPECT_FALSE(coordinator.Admit("SELECT bogus FROM sensors").ok());
  EXPECT_FALSE(coordinator.Admit("SELECT TOP 2 roomid, AVG(sound) FROM sensors").ok());
  EXPECT_EQ(coordinator.active_queries(), 0u);

  auto a = coordinator.Admit(kSnapshotSql);
  auto b = coordinator.Admit(kSelectSql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(coordinator.active_queries(), 2u);

  EXPECT_TRUE(coordinator.Cancel(a.value()).ok());
  EXPECT_FALSE(coordinator.Cancel(a.value()).ok());  // already withdrawn
  EXPECT_FALSE(coordinator.Cancel(777).ok());
  EXPECT_EQ(coordinator.active_queries(), 1u);

  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().outcomes.size(), 1u);
  EXPECT_EQ(report.value().outcomes[0].id, b.value());
}

/// Everything a query answered: ranked epochs, tuple rows, historic items.
std::string AnswerDigest(const QueryOutcome& outcome) {
  char buf[64];
  std::string out = outcome.algorithm + "/" + EpochDigest(outcome.per_epoch);
  for (const auto& rows : outcome.rows_per_epoch) {
    for (const auto& t : rows) {
      std::snprintf(buf, sizeof buf, "%u=%.17g;", t.node, t.value);
      out += buf;
    }
    out += '|';
  }
  for (const auto& item : outcome.historic.items) {
    std::snprintf(buf, sizeof buf, "H%d:%.17g;", item.group, item.value);
    out += buf;
  }
  return out;
}

TEST(CoordinatorTest, LoneQueryMatchesServerExecuteForEveryClass) {
  // KSpotServer::Execute is a single-query coordinator session, so one
  // admitted query of any class answers and costs exactly what Execute
  // reports — lossy, with retries, with and without churn.
  struct Shape {
    const char* sql;
    const char* algorithm;
    bool continuous;
  };
  const Shape shapes[] = {
      {kSnapshotSql, "MINT", true},
      {kGroupedSelectSql, "TAG", true},
      {kSelectSql, "SELECT", true},
      {kHorizontalSql, "MINT+history", true},
      {kVerticalSql, "TJA", false},
  };
  for (bool with_churn : {false, true}) {
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(std::string(with_churn ? "churn: " : "clean: ") + shape.sql);
      KSpotServer::Options server_opt;
      server_opt.epochs = 20;
      server_opt.seed = 42;
      server_opt.loss_prob = 0.05;
      server_opt.max_retries = 1;
      server_opt.enable_churn = with_churn;
      server_opt.churn.crash_prob = 0.01;
      server_opt.churn.mean_downtime = 5;
      server_opt.run_baseline = false;
      KSpotServer server(Scenario::ConferenceFloor(6, 3, 5), server_opt);
      auto server_outcome = server.Execute(shape.sql);
      ASSERT_TRUE(server_outcome.ok());

      QueryCoordinator::Options opt = SmallRun(20, 42);
      opt.loss_prob = 0.05;
      opt.max_retries = 1;
      opt.enable_churn = with_churn;
      opt.churn.crash_prob = 0.01;
      opt.churn.mean_downtime = 5;
      QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
      ASSERT_TRUE(coordinator.Admit(shape.sql).ok());
      auto report = coordinator.Run();
      ASSERT_TRUE(report.ok());
      ASSERT_EQ(report.value().outcomes.size(), 1u);
      const QueryOutcome& outcome = report.value().outcomes[0];
      EXPECT_EQ(outcome.algorithm, shape.algorithm);
      EXPECT_EQ(AnswerDigest(outcome), AnswerDigest(server_outcome.value()));
      // Execute's cost is its session's whole bill (operator traffic plus
      // tree-repair handshakes). A vertical query ranks its window at Open
      // and Execute steps no epoch, while Run() still steps (and churns)
      // the plane, so only the query's own bill compares.
      const sim::TrafficCounters& want =
          shape.continuous ? report.value().total : outcome.shared_cost;
      EXPECT_EQ(want.messages, server_outcome.value().cost.messages);
      EXPECT_EQ(want.payload_bytes, server_outcome.value().cost.payload_bytes);
    }
  }
}

TEST(CoordinatorTest, IdenticalSnapshotQueriesShareOneOperator) {
  // 8 identical snapshot queries piggyback on ONE operator: one
  // converge-cast per epoch, so the whole fleet pays what a single query
  // pays, and every member reads the same ranked answers.
  QueryCoordinator single(Scenario::ConferenceFloor(6, 3, 5), SmallRun(15));
  ASSERT_TRUE(single.Admit(kSnapshotSql).ok());
  auto single_report = single.Run();
  ASSERT_TRUE(single_report.ok());

  QueryCoordinator fleet(Scenario::ConferenceFloor(6, 3, 5), SmallRun(15));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(fleet.Admit(kSnapshotSql).ok());
  auto fleet_report = fleet.Run();
  ASSERT_TRUE(fleet_report.ok());

  EXPECT_EQ(fleet_report.value().operators, 1u);
  EXPECT_EQ(fleet_report.value().queries, 8u);
  // The shared plane's total bill equals the single-query bill exactly.
  EXPECT_EQ(fleet_report.value().total.messages, single_report.value().total.messages);
  EXPECT_EQ(fleet_report.value().total.payload_bytes,
            single_report.value().total.payload_bytes);
  ASSERT_EQ(fleet_report.value().outcomes.size(), 8u);
  for (const QueryOutcome& outcome : fleet_report.value().outcomes) {
    EXPECT_EQ(outcome.share_group_size, 8u);
    EXPECT_EQ(EpochDigest(outcome.per_epoch),
              EpochDigest(fleet_report.value().outcomes[0].per_epoch));
    EXPECT_EQ(outcome.per_epoch.size(), 15u);
  }
}

TEST(CoordinatorTest, MixedClassesAllServedOnOneDeployment) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), SmallRun(12));
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  ASSERT_TRUE(coordinator.Admit(kSelectSql).ok());
  ASSERT_TRUE(coordinator.Admit(kGroupedSelectSql).ok());
  ASSERT_TRUE(coordinator.Admit(kVerticalSql).ok());
  ASSERT_TRUE(coordinator.Admit(kHorizontalSql).ok());
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());  // piggybacks on the first

  auto report_or = coordinator.Run();
  ASSERT_TRUE(report_or.ok());
  const CoordinatorReport& report = report_or.value();
  EXPECT_EQ(report.queries, 6u);
  EXPECT_EQ(report.operators, 5u);  // the duplicate snapshot shares

  ASSERT_EQ(report.outcomes.size(), 6u);
  EXPECT_EQ(report.outcomes[0].algorithm, "MINT");
  EXPECT_EQ(report.outcomes[0].per_epoch.size(), 12u);
  EXPECT_EQ(report.outcomes[0].share_group_size, 2u);
  EXPECT_EQ(report.outcomes[1].algorithm, "SELECT");
  EXPECT_EQ(report.outcomes[1].rows_per_epoch.size(), 12u);
  EXPECT_EQ(report.outcomes[2].algorithm, "TAG");
  // A grouped basic select reports every group every epoch.
  for (const auto& epoch : report.outcomes[2].per_epoch) {
    EXPECT_EQ(epoch.items.size(), 6u);
  }
  EXPECT_EQ(report.outcomes[3].algorithm, "TJA");
  EXPECT_EQ(report.outcomes[3].historic.items.size(), 3u);
  EXPECT_EQ(report.outcomes[4].algorithm, "MINT+history");
  EXPECT_EQ(report.outcomes[4].per_epoch.size(), 12u);
  EXPECT_EQ(report.outcomes[5].share_group_size, 2u);
  EXPECT_EQ(EpochDigest(report.outcomes[5].per_epoch),
            EpochDigest(report.outcomes[0].per_epoch));

  // Every operator's attributed traffic is accounted inside the shared
  // total (repair traffic and nothing else lives outside the groups here).
  uint64_t attributed = 0;
  for (size_t i = 0; i < report.outcomes.size(); ++i) {
    if (report.outcomes[i].share_group_size == 2 && i == 5) continue;  // counted at [0]
    attributed += report.outcomes[i].shared_cost.messages;
  }
  EXPECT_EQ(attributed, report.total.messages);
}

TEST(CoordinatorTest, RunIsDeterministicAndRepeatable) {
  auto build = [] {
    QueryCoordinator::Options opt = SmallRun(15, 77);
    opt.loss_prob = 0.05;
    opt.max_retries = 1;
    opt.battery_j = 0.5;
    opt.enable_churn = true;
    opt.churn.crash_prob = 0.01;
    opt.churn.mean_downtime = 6;
    return QueryCoordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
  };
  QueryCoordinator a = build();
  QueryCoordinator b = build();
  for (QueryCoordinator* c : {&a, &b}) {
    ASSERT_TRUE(c->Admit(kSnapshotSql).ok());
    ASSERT_TRUE(c->Admit(kSelectSql).ok());
    ASSERT_TRUE(c->Admit(kVerticalSql).ok());
  }
  auto ra1 = a.Run();
  auto ra2 = a.Run();  // a second Run over the same admissions
  auto rb = b.Run();
  ASSERT_TRUE(ra1.ok());
  ASSERT_TRUE(ra2.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ReportDigest(ra1.value()), ReportDigest(ra2.value()));
  EXPECT_EQ(ReportDigest(ra1.value()), ReportDigest(rb.value()));
}

TEST(CoordinatorTest, ChurnRepairsSharedTreeOnceForAllQueries) {
  QueryCoordinator::Options opt = SmallRun(40, 21);
  opt.enable_churn = true;
  opt.churn.crash_prob = 0.02;
  opt.churn.mean_downtime = 8;
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  ASSERT_TRUE(coordinator.Admit(kGroupedSelectSql).ok());
  auto report_or = coordinator.Run();
  ASSERT_TRUE(report_or.ok());
  const CoordinatorReport& report = report_or.value();
  // The shared tree was repaired (once per epoch, for everyone): repair
  // traffic exists and is exactly the slice of the total outside the
  // operator groups.
  EXPECT_GT(report.repair_events, 0u);
  EXPECT_GT(report.repair_messages, 0u);
  uint64_t attributed = 0;
  for (const QueryOutcome& outcome : report.outcomes) {
    attributed += outcome.shared_cost.messages;
  }
  EXPECT_EQ(report.total.messages, attributed + report.repair_messages);
  // Both queries kept producing answers through the churn.
  for (const QueryOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.per_epoch.size(), 40u);
  }
}

// ------------------------------------------------------ multi-group pins
//
// Digests of three multi-group sessions, recorded on the serial
// group-by-group StepEpoch. They hash every per-epoch answer and row, every
// outcome's shared bill, the session network's totals and per-phase
// counters, every node's tx/rx energy bits and send count, and the final
// clock, so any reordering of an epoch's charges shows.

/// FNV-1a over raw bytes; doubles hash by their bit patterns.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Counters(const sim::TrafficCounters& c) {
    // The three zeros and the trailing 0.0 stand where the network's
    // always-zero flash counters were hashed when the digests were recorded.
    for (uint64_t v : {c.messages, c.frames, c.payload_bytes, c.onair_bytes, c.retries,
                       c.backoff_us, uint64_t{0}, uint64_t{0}, uint64_t{0}}) {
      U64(v);
    }
    F64(c.tx_energy_j);
    F64(c.rx_energy_j);
    F64(0.0);
  }
  void Result(const core::TopKResult& r) {
    U64(r.epoch);
    U64(r.items.size());
    for (const agg::RankedItem& item : r.items) {
      U64(static_cast<uint64_t>(item.group));
      F64(item.value);
    }
    U64(r.contributors);
    F64(r.completeness);
  }
  void Rows(const std::vector<core::SelectTuple>& rows) {
    U64(rows.size());
    for (const core::SelectTuple& t : rows) {
      U64(t.node);
      U64(static_cast<uint64_t>(t.room));
      F64(t.value);
    }
  }
  /// Totals, per-phase counters, every node's tx/rx energy bits and send
  /// count, and the clock.
  void Network(const sim::Network& net) {
    Counters(net.total());
    for (const auto& [phase, counters] : net.by_phase()) {
      Str(phase);
      Counters(counters);
    }
    for (size_t i = 0; i < net.topology().num_nodes(); ++i) {
      auto id = static_cast<sim::NodeId>(i);
      F64(net.meter(id).tx_joules());
      F64(net.meter(id).rx_joules());
      U64(net.MessagesSentBy(id));
    }
    U64(net.events().now());
  }
};

enum class PinBed { kLossless, kBattery, kLossy };

/// Drives the pinned session: six opening queries in five groups (snapshot
/// room and node, TAG, SELECT, horizontal WITH HISTORY, a period-4 MIN),
/// a mid-session admit that spins up a group and one that piggybacks, a
/// vertical audit, and cancels that release the new group again.
uint64_t SessionPinDigest(PinBed bed) {
  QueryCoordinator::Options opt = SmallRun(24, 41);
  if (bed == PinBed::kBattery) opt.battery_j = 0.2;
  if (bed == PinBed::kLossy) {
    opt.loss_prob = 0.05;
    opt.max_retries = 1;
  }
  QueryCoordinator coordinator(Scenario::ConferenceFloor(8, 256, 5), opt);
  EXPECT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  EXPECT_TRUE(
      coordinator.Admit("SELECT TOP 4 nodeid, MAX(sound) FROM sensors GROUP BY nodeid").ok());
  EXPECT_TRUE(coordinator.Admit(kGroupedSelectSql).ok());
  EXPECT_TRUE(coordinator.Admit(kSelectSql).ok());
  EXPECT_TRUE(coordinator.Admit(kHorizontalSql).ok());
  AdmitOptions every4;
  every4.period = 4;
  EXPECT_TRUE(
      coordinator.Admit("SELECT TOP 2 roomid, MIN(sound) FROM sensors GROUP BY roomid", every4)
          .ok());
  EXPECT_TRUE(coordinator.Open().ok());

  Fnv h;
  QueryId late_group = 0;
  QueryId late_rider = 0;
  for (size_t e = 0; e < opt.epochs; ++e) {
    if (e == 5) {
      late_group =
          coordinator.Admit("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid").value();
      late_rider = coordinator.Admit(kSnapshotSql).value();
    }
    if (e == 9) {
      EXPECT_TRUE(coordinator.Admit(kVerticalSql).ok());
    }
    if (e == 14) {
      EXPECT_TRUE(coordinator.Cancel(late_group).ok());
      EXPECT_TRUE(coordinator.Cancel(late_rider).ok());
    }
    auto step = coordinator.StepEpoch();
    EXPECT_TRUE(step.ok());
    if (!step.ok()) return 0;
    const EpochUpdate& update = step.value();
    h.U64(update.epoch);
    h.Counters(update.epoch_cost);
    h.U64(update.alive);
    h.U64(update.degraded ? 1 : 0);
    for (const GroupUpdate& gu : update.groups) {
      h.U64(gu.group_id);
      h.Str(gu.algorithm);
      for (QueryId id : gu.members) h.U64(id);
      h.U64(gu.ran ? 1 : 0);
      if (gu.result) h.Result(*gu.result);
      if (gu.rows) h.Rows(*gu.rows);
    }
  }

  h.Network(coordinator.session_network());

  auto report = coordinator.Close();
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return 0;
  for (const QueryOutcome& outcome : report.value().outcomes) {
    h.U64(outcome.id);
    h.Str(outcome.algorithm);
    for (const core::TopKResult& r : outcome.per_epoch) h.Result(r);
    for (const auto& rows : outcome.rows_per_epoch) h.Rows(rows);
    for (const agg::RankedItem& item : outcome.historic.items) {
      h.U64(static_cast<uint64_t>(item.group));
      h.F64(item.value);
    }
    h.Counters(outcome.shared_cost);
    h.U64(outcome.share_group_size);
    h.U64(outcome.joined_epoch);
    h.U64(outcome.cancelled_mid_session ? 1 : 0);
  }
  h.Counters(report.value().total);
  return h.h;
}

TEST(CoordinatorTest, LosslessMultiGroupSessionMatchesPinnedDigest) {
  EXPECT_EQ(SessionPinDigest(PinBed::kLossless), 0x9c6883da87f851e0ULL);
}

TEST(CoordinatorTest, BatteryDeathMultiGroupSessionMatchesPinnedDigest) {
  EXPECT_EQ(SessionPinDigest(PinBed::kBattery), 0xa9797bd4f47f7a87ULL);
}

TEST(CoordinatorTest, LossyMultiGroupSessionMatchesPinnedDigest) {
  EXPECT_EQ(SessionPinDigest(PinBed::kLossy), 0x41e3de50937a3343ULL);
}

// ---------------------------------------------------- horizontal window pins
//
// Digests of sessions with horizontal (WITH HISTORY) groups: one rate
// limited from the first epoch, and two admitted mid-session, when the window
// is not yet full (epoch 3 of W = 8) and when it is (epoch 20). Each is pinned
// on the 46-mote floor, which steps serially, and on a 2049-mote floor, whose
// epochs step their groups concurrently. Recorded on the code where every
// horizontal group replayed a generator of its own from epoch 0.

constexpr const char* kHorizontalMaxSql =
    "SELECT TOP 3 roomid, MAX(sound) FROM sensors GROUP BY roomid WITH HISTORY 8";
constexpr const char* kHorizontalMinSql =
    "SELECT TOP 2 roomid, MIN(sound) FROM sensors GROUP BY roomid WITH HISTORY 8";

void HashStep(Fnv& h, const EpochUpdate& update) {
  h.U64(update.epoch);
  h.Counters(update.epoch_cost);
  for (const GroupUpdate& gu : update.groups) {
    h.U64(gu.group_id);
    h.Str(gu.algorithm);
    for (QueryId id : gu.members) h.U64(id);
    h.U64(gu.ran ? 1 : 0);
    if (gu.result) h.Result(*gu.result);
  }
}

void HashReport(Fnv& h, const CoordinatorReport& report) {
  for (const QueryOutcome& outcome : report.outcomes) {
    h.U64(outcome.id);
    for (const core::TopKResult& r : outcome.per_epoch) h.Result(r);
    h.Counters(outcome.shared_cost);
    h.U64(outcome.joined_epoch);
  }
  h.Counters(report.total);
}

Scenario HorizontalPinBed(bool large) {
  return large ? Scenario::ConferenceFloor(8, 256, 5) : Scenario::ConferenceFloor(9, 5, 5);
}

/// A snapshot query and a period-3 horizontal AVG W = 8 group from Open on.
uint64_t RateLimitedHorizontalDigest(bool large) {
  QueryCoordinator coordinator(HorizontalPinBed(large), SmallRun(24, 17));
  AdmitOptions every3;
  every3.period = 3;
  EXPECT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  EXPECT_TRUE(coordinator.Admit(kHorizontalSql, every3).ok());
  EXPECT_TRUE(coordinator.Open().ok());
  Fnv h;
  for (size_t e = 0; e < 24; ++e) {
    auto step = coordinator.StepEpoch();
    EXPECT_TRUE(step.ok());
    if (!step.ok()) return 0;
    HashStep(h, step.value());
  }
  auto report = coordinator.Close();
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return 0;
  HashReport(h, report.value());
  return h.h;
}

/// A snapshot query and a horizontal MIN group from Open on; at `admit`, a
/// horizontal AVG and a horizontal MAX group (both W = 8) join.
uint64_t MidSessionHorizontalDigest(bool large, sim::Epoch admit) {
  QueryCoordinator coordinator(HorizontalPinBed(large), SmallRun(28, 23));
  EXPECT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  EXPECT_TRUE(coordinator.Admit(kHorizontalMinSql).ok());
  EXPECT_TRUE(coordinator.Open().ok());
  Fnv h;
  for (sim::Epoch e = 0; e < 28; ++e) {
    if (e == admit) {
      EXPECT_TRUE(coordinator.Admit(kHorizontalSql).ok());
      EXPECT_TRUE(coordinator.Admit(kHorizontalMaxSql).ok());
    }
    auto step = coordinator.StepEpoch();
    EXPECT_TRUE(step.ok());
    if (!step.ok()) return 0;
    HashStep(h, step.value());
  }
  auto report = coordinator.Close();
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return 0;
  HashReport(h, report.value());
  return h.h;
}

TEST(CoordinatorTest, RateLimitedHorizontalGroupMatchesPinnedDigest) {
  EXPECT_EQ(RateLimitedHorizontalDigest(false), 0xf8a37f5bdb2f0ac2ULL);
  EXPECT_EQ(RateLimitedHorizontalDigest(true), 0xe88b71d6f2e2aa58ULL);
}

TEST(CoordinatorTest, HorizontalAdmitBeforeWindowFillsMatchesPinnedDigest) {
  EXPECT_EQ(MidSessionHorizontalDigest(false, 3), 0xa60c96351603aaadULL);
  EXPECT_EQ(MidSessionHorizontalDigest(true, 3), 0xc59d33d2a7dff082ULL);
}

TEST(CoordinatorTest, HorizontalAdmitAfterWindowFillsMatchesPinnedDigest) {
  EXPECT_EQ(MidSessionHorizontalDigest(false, 20), 0xcd88d1c4086fb193ULL);
  EXPECT_EQ(MidSessionHorizontalDigest(true, 20), 0xab20921ca0eb1562ULL);
}

// ------------------------------------------------------- lone-wave pins
//
// Digests of sessions whose epochs step a single operator group on at least
// 2048 motes, so every epoch's converge-cast runs alone: a MINT room group
// four identical dashboards share (creation, beacons and probe/repair
// waves), a TAG group, a SELECT ... WHERE group, and a 5000-mote grid floor
// whose vertical audits run TJA for one, two and three rounds. Recorded on
// the code where a lone wave ran on one thread. Each hashes every answer
// and row, every epoch's cost, the session network (see Fnv::Network) and
// every outcome.

/// A servebench-style control-room floor: `motes` motes on a square grid,
/// sink in the first cell, each displaced by at most 5% of the grid step,
/// rooms in an 8 x 8 tiling, 18 m radio range with about 20 neighbours each.
Scenario GridFloor(size_t motes, uint64_t seed) {
  Scenario s;
  s.name = "grid-floor";
  s.comm_range = 18.0;
  const double spacing = s.comm_range / 2.5;
  const size_t side = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(motes))));
  const size_t rows = (motes + side - 1) / side;
  s.field_w = static_cast<double>(side) * spacing;
  s.field_h = static_cast<double>(rows) * spacing;
  for (sim::GroupId r = 0; r < 64; ++r) s.cluster_names[r] = "room-" + std::to_string(r);
  util::Rng place(seed);
  for (size_t i = 0; i < motes; ++i) {
    const size_t gx = i % side;
    const size_t gy = i / side;
    const double jx = i == 0 ? 0.0 : (place.NextDouble() - 0.5) * 0.1;
    const double jy = i == 0 ? 0.0 : (place.NextDouble() - 0.5) * 0.1;
    Scenario::Node n;
    n.id = static_cast<sim::NodeId>(i);
    n.x = (static_cast<double>(gx) + 0.5 + jx) * spacing;
    n.y = (static_cast<double>(gy) + 0.5 + jy) * spacing;
    n.room = static_cast<sim::GroupId>((gy * 8 / rows) * 8 + gx * 8 / side);
    s.nodes.push_back(n);
  }
  return s;
}

/// What a lone-wave session did besides its digest: the phases it charged
/// and the TJA rounds of each audit.
struct LoneWaveRun {
  uint64_t digest = 0;
  std::vector<std::string> phases;
  std::vector<int> audit_rounds;
};

/// Opens `sqls` on `scenario`, steps `epochs` epochs and admits kAuditSql
/// at each of `audits`, cancelling it five epochs later.
LoneWaveRun RunLoneWave(Scenario scenario, const std::vector<std::string>& sqls,
                        size_t epochs, uint64_t seed, const std::vector<sim::Epoch>& audits) {
  static constexpr const char* kAuditSql =
      "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 32";
  LoneWaveRun run;
  QueryCoordinator coordinator(std::move(scenario), SmallRun(epochs, seed));
  for (const std::string& sql : sqls) EXPECT_TRUE(coordinator.Admit(sql).ok());
  EXPECT_TRUE(coordinator.Open().ok());
  Fnv h;
  std::vector<std::pair<QueryId, sim::Epoch>> live;
  for (sim::Epoch e = 0; e < epochs; ++e) {
    for (const auto& [id, at] : live) {
      if (at + 5 == e) {
        EXPECT_TRUE(coordinator.Cancel(id).ok());
      }
    }
    if (std::find(audits.begin(), audits.end(), e) != audits.end()) {
      auto id = coordinator.Admit(kAuditSql);
      EXPECT_TRUE(id.ok());
      if (id.ok()) live.emplace_back(id.value(), e);
    }
    auto step = coordinator.StepEpoch();
    EXPECT_TRUE(step.ok());
    if (!step.ok()) return run;
    HashStep(h, step.value());
    for (const GroupUpdate& gu : step.value().groups) {
      if (gu.rows) h.Rows(*gu.rows);
    }
  }
  const sim::Network& net = coordinator.session_network();
  h.Network(net);
  for (const auto& [phase, counters] : net.by_phase()) run.phases.push_back(phase);
  auto report = coordinator.Close();
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return run;
  for (const QueryOutcome& outcome : report.value().outcomes) {
    h.U64(outcome.id);
    h.Str(outcome.algorithm);
    for (const core::TopKResult& r : outcome.per_epoch) h.Result(r);
    for (const auto& rows : outcome.rows_per_epoch) h.Rows(rows);
    for (const agg::RankedItem& item : outcome.historic.items) {
      h.U64(static_cast<uint64_t>(item.group));
      h.F64(item.value);
    }
    h.U64(outcome.historic.lsink_size);
    h.U64(static_cast<uint64_t>(outcome.historic.rounds));
    h.Counters(outcome.shared_cost);
    h.U64(outcome.share_group_size);
    if (outcome.query_class == query::QueryClass::kHistoricVertical) {
      run.audit_rounds.push_back(outcome.historic.rounds);
    }
  }
  h.Counters(report.value().total);
  run.digest = h.h;
  return run;
}

bool Charged(const LoneWaveRun& run, const std::string& phase) {
  return std::find(run.phases.begin(), run.phases.end(), phase) != run.phases.end();
}

TEST(CoordinatorTest, LoneSharedMintGroupMatchesPinnedDigest) {
  const std::vector<std::string> dashboards(4, kSnapshotSql);
  LoneWaveRun run = RunLoneWave(Scenario::ConferenceFloor(8, 256, 5), dashboards, 40, 7, {});
  EXPECT_TRUE(Charged(run, "mint.create"));
  EXPECT_TRUE(Charged(run, "mint.beacon"));
  EXPECT_TRUE(Charged(run, "mint.repair"));
  EXPECT_EQ(run.digest, 0xf1efa1354b947f93ULL);
}

TEST(CoordinatorTest, LoneTagGroupMatchesPinnedDigest) {
  LoneWaveRun run =
      RunLoneWave(Scenario::ConferenceFloor(8, 256, 5), {kGroupedSelectSql}, 12, 8, {});
  EXPECT_TRUE(Charged(run, "tag.collect"));
  EXPECT_EQ(run.digest, 0xbafd8a23283fbe62ULL);
}

TEST(CoordinatorTest, LoneSelectWhereGroupMatchesPinnedDigest) {
  LoneWaveRun run = RunLoneWave(Scenario::ConferenceFloor(8, 256, 5), {kSelectSql}, 12, 9, {});
  EXPECT_TRUE(Charged(run, "select.collect"));
  EXPECT_EQ(run.digest, 0x33967e06ab8a1ec5ULL);
}

// The audits at epochs 60, 72 and 78 need one, two and three TJA rounds.
TEST(CoordinatorTest, FloorAuditsOfOneTwoAndThreeRoundsMatchPinnedDigest) {
  LoneWaveRun run = RunLoneWave(GridFloor(5000, 5), {kSnapshotSql}, 84, 5, {60, 72, 78});
  EXPECT_EQ(run.audit_rounds, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(run.digest, 0xca29daf628c2587fULL);
}

/// Readings as a pure function of node and epoch, from a generator that
/// hands out no checkpoint (the DataGenerator defaults).
class FormulaGenerator : public data::DataGenerator {
 public:
  double Value(sim::NodeId id, sim::Epoch epoch) override {
    return id == 0 ? 0.0 : static_cast<double>(20 + (id * 7 + epoch * 13) % 61);
  }
  const data::ModalityInfo& modality() const override {
    return data::GetModalityInfo(data::Modality::kSound);
  }
};

TEST(CoordinatorTest, WindowsOfAGeneratorWithoutCheckpointsMatchCheckpointedOnes) {
  // A custom generator that cannot checkpoint has its windows replayed from
  // a fresh copy; a trace of the same readings replays from checkpoints.
  // Horizontal admits at epochs 12 and 40 and audits at 20 and 45 answer alike.
  auto run = [](bool checkpointed) {
    QueryCoordinator::Options opt = SmallRun(48, 3);
    opt.make_generator = [checkpointed](const Scenario& scenario,
                                        uint64_t) -> std::unique_ptr<data::DataGenerator> {
      if (!checkpointed) return std::make_unique<FormulaGenerator>();
      FormulaGenerator formula;
      std::vector<std::vector<double>> trace(48);
      for (sim::Epoch e = 0; e < 48; ++e) {
        for (sim::NodeId id = 0; id < scenario.nodes.size(); ++id) {
          trace[e].push_back(formula.Value(id, e));
        }
      }
      return std::make_unique<data::TraceGenerator>(std::move(trace), data::Modality::kSound);
    };
    QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
    EXPECT_TRUE(coordinator.Admit(kSnapshotSql).ok());
    EXPECT_TRUE(coordinator.Open().ok());
    for (sim::Epoch e = 0; e < 48; ++e) {
      if (e == 12) {
        EXPECT_TRUE(coordinator.Admit(kHorizontalSql).ok());
      }
      if (e == 40) {
        EXPECT_TRUE(coordinator.Admit(kHorizontalMaxSql).ok());
      }
      if (e == 20 || e == 45) {
        EXPECT_TRUE(coordinator.Admit(kVerticalSql).ok());
      }
      EXPECT_TRUE(coordinator.StepEpoch().ok());
    }
    auto report = coordinator.Close();
    EXPECT_TRUE(report.ok());
    return report.ok() ? ReportDigest(report.value()) : std::string();
  };
  const std::string replayed = run(false);
  EXPECT_FALSE(replayed.empty());
  EXPECT_EQ(replayed, run(true));
}

TEST(CoordinatorTest, EmptyAdmissionSetRunsCleanly) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(4, 3, 5), SmallRun(5));
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().queries, 0u);
  EXPECT_EQ(report.value().operators, 0u);
  EXPECT_EQ(report.value().total.messages, 0u);
}

}  // namespace
}  // namespace kspot::system
