#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"

namespace kspot::system {
namespace {

constexpr const char* kSnapshotSql =
    "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kSelectSql = "SELECT nodeid, sound FROM sensors WHERE sound > 40";
constexpr const char* kVerticalSql =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 24";

QueryCoordinator::Options HarshRun(size_t epochs = 12, uint64_t seed = 77) {
  QueryCoordinator::Options opt;
  opt.epochs = epochs;
  opt.seed = seed;
  opt.loss_prob = 0.05;
  opt.max_retries = 1;
  opt.battery_j = 0.5;
  opt.enable_churn = true;
  opt.churn.crash_prob = 0.01;
  opt.churn.mean_downtime = 6;
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
      out += '|';
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

TEST(SessionTest, OpenStepCloseMatchesBatchRunBitExactly) {
  // Batch Run() is specified as Open + epochs x StepEpoch + Close; the two
  // drivings must agree bit-exactly under loss, retries, battery and churn.
  auto build = [] {
    QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), HarshRun());
    EXPECT_TRUE(coordinator.Admit(kSnapshotSql).ok());
    EXPECT_TRUE(coordinator.Admit(kSelectSql).ok());
    EXPECT_TRUE(coordinator.Admit(kVerticalSql).ok());
    return coordinator;
  };
  QueryCoordinator batch = build();
  auto batch_report = batch.Run();
  ASSERT_TRUE(batch_report.ok());

  QueryCoordinator session = build();
  ASSERT_TRUE(session.Open().ok());
  EXPECT_TRUE(session.session_open());
  for (size_t e = 0; e < 12; ++e) {
    auto update = session.StepEpoch();
    ASSERT_TRUE(update.ok());
    EXPECT_EQ(update.value().epoch, e);
    // Groups step in creation order: snapshot (0), then select (1); the
    // vertical query's TJA ran at bind time and never steps.
    const std::vector<GroupUpdate>& groups = update.value().groups;
    ASSERT_EQ(groups.size(), 2u);
    for (size_t g = 1; g < groups.size(); ++g) {
      EXPECT_LT(groups[g - 1].group_id, groups[g].group_id);
    }
  }
  EXPECT_EQ(session.session_epoch(), 12u);
  auto session_report = session.Close();
  ASSERT_TRUE(session_report.ok());
  EXPECT_FALSE(session.session_open());

  EXPECT_EQ(ReportDigest(batch_report.value()), ReportDigest(session_report.value()));
}

TEST(SessionTest, EpochCostsSumToSharedTotal) {
  // Conservation across the incremental surface: the per-epoch bills plus
  // the one-shot historic traffic (paid at Open) account for every message
  // the session's network carried.
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), HarshRun());
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  ASSERT_TRUE(coordinator.Admit(kVerticalSql).ok());
  ASSERT_TRUE(coordinator.Open().ok());
  uint64_t stepped = 0;
  for (size_t e = 0; e < 12; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    stepped += update.value().epoch_cost.messages;
  }
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  uint64_t tja_cost = 0;
  for (const QueryOutcome& outcome : report.value().outcomes) {
    if (outcome.algorithm == "TJA") tja_cost = outcome.shared_cost.messages;
  }
  EXPECT_GT(tja_cost, 0u);
  EXPECT_EQ(report.value().total.messages, stepped + tja_cost);
}

TEST(SessionTest, MidRunAdmitJoinsGroupWithoutPerturbingResults) {
  // A joiner piggybacking on an existing group performs ZERO network
  // operations, so the incumbent's realized losses, churn and answers stay
  // bit-identical to a run that never saw the joiner — and the shared bill
  // does not grow.
  QueryCoordinator alone(Scenario::ConferenceFloor(6, 3, 5), HarshRun());
  ASSERT_TRUE(alone.Admit(kSnapshotSql).ok());
  auto alone_report = alone.Run();
  ASSERT_TRUE(alone_report.ok());

  QueryCoordinator shared(Scenario::ConferenceFloor(6, 3, 5), HarshRun());
  ASSERT_TRUE(shared.Admit(kSnapshotSql).ok());
  ASSERT_TRUE(shared.Open().ok());
  for (size_t e = 0; e < 6; ++e) ASSERT_TRUE(shared.StepEpoch().ok());
  auto joiner = shared.Admit(kSnapshotSql);
  ASSERT_TRUE(joiner.ok());
  EXPECT_EQ(shared.active_operators(), 1u);  // piggybacked, no new operator
  for (size_t e = 6; e < 12; ++e) ASSERT_TRUE(shared.StepEpoch().ok());
  auto report = shared.Close();
  ASSERT_TRUE(report.ok());

  ASSERT_EQ(report.value().outcomes.size(), 2u);
  const QueryOutcome& incumbent = report.value().outcomes[0];
  const QueryOutcome& late = report.value().outcomes[1];
  EXPECT_EQ(EpochDigest(incumbent.per_epoch),
            EpochDigest(alone_report.value().outcomes[0].per_epoch));
  EXPECT_EQ(report.value().total.messages, alone_report.value().total.messages);
  // The joiner observes exactly the tail from its join epoch on.
  EXPECT_EQ(late.joined_epoch, 6u);
  ASSERT_EQ(late.per_epoch.size(), 6u);
  std::vector<core::TopKResult> tail(incumbent.per_epoch.begin() + 6,
                                     incumbent.per_epoch.end());
  EXPECT_EQ(EpochDigest(late.per_epoch), EpochDigest(tail));
  EXPECT_EQ(late.share_group_size, 2u);
}

TEST(SessionTest, MidRunAdmitSpinsUpNewOperator) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());
  ASSERT_TRUE(coordinator.Open().ok());
  for (size_t e = 0; e < 4; ++e) ASSERT_TRUE(coordinator.StepEpoch().ok());
  EXPECT_EQ(coordinator.active_operators(), 1u);
  ASSERT_TRUE(coordinator.Admit(kSelectSql).ok());
  EXPECT_EQ(coordinator.active_operators(), 2u);
  auto update = coordinator.StepEpoch();
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update.value().groups.size(), 2u);
  EXPECT_TRUE(update.value().groups[1].ran);
  ASSERT_NE(update.value().groups[1].rows, nullptr);
  for (size_t e = 5; e < 30; ++e) ASSERT_TRUE(coordinator.StepEpoch().ok());
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().operators, 2u);
  const QueryOutcome& select = report.value().outcomes[1];
  EXPECT_EQ(select.joined_epoch, 4u);
  EXPECT_EQ(select.rows_per_epoch.size(), 26u);  // epochs 4..29
}

TEST(SessionTest, CancelLastMemberReleasesOperatorMidSession) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  auto snap = coordinator.Admit(kSnapshotSql);
  auto select = coordinator.Admit(kSelectSql);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(select.ok());
  ASSERT_TRUE(coordinator.Open().ok());
  for (size_t e = 0; e < 5; ++e) ASSERT_TRUE(coordinator.StepEpoch().ok());
  EXPECT_EQ(coordinator.active_operators(), 2u);

  ASSERT_TRUE(coordinator.Cancel(select.value()).ok());
  EXPECT_EQ(coordinator.active_operators(), 1u);  // released with its last member
  // Cancel edge cases stay clean while a session is open.
  EXPECT_FALSE(coordinator.Cancel(select.value()).ok());  // twice
  EXPECT_FALSE(coordinator.Cancel(777).ok());             // unknown

  // The released operator stops costing the shared network.
  auto update = coordinator.StepEpoch();
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update.value().groups.size(), 1u);
  EXPECT_EQ(update.value().groups[0].algorithm, "MINT");

  // A fresh admission of the same SQL gets a NEW operator (the old group is
  // gone, not resurrected).
  ASSERT_TRUE(coordinator.Admit(kSelectSql).ok());
  EXPECT_EQ(coordinator.active_operators(), 2u);
  for (size_t e = 6; e < 10; ++e) ASSERT_TRUE(coordinator.StepEpoch().ok());
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().operators, 3u);  // snapshot + released select + new select

  // The cancelled query keeps the slice it observed: epochs [0, 5).
  ASSERT_EQ(report.value().outcomes.size(), 3u);
  const QueryOutcome& cancelled = report.value().outcomes[1];
  EXPECT_TRUE(cancelled.cancelled_mid_session);
  EXPECT_EQ(cancelled.rows_per_epoch.size(), 5u);
  const QueryOutcome& readmitted = report.value().outcomes[2];
  EXPECT_EQ(readmitted.joined_epoch, 6u);
  EXPECT_EQ(readmitted.rows_per_epoch.size(), 4u);
  EXPECT_EQ(readmitted.share_group_size, 1u);
}

TEST(SessionTest, RateLimitedQueryRunsEveryKthEpoch) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  AdmitOptions every_third;
  every_third.period = 3;
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql, every_third).ok());
  ASSERT_TRUE(coordinator.Open().ok());
  std::vector<bool> ran;
  for (size_t e = 0; e < 9; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    ASSERT_EQ(update.value().groups.size(), 1u);
    ran.push_back(update.value().groups[0].ran);
    EXPECT_EQ(update.value().groups[0].result != nullptr, update.value().groups[0].ran);
  }
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(ran, (std::vector<bool>{true, false, false, true, false, false, true, false,
                                    false}));
  EXPECT_EQ(report.value().outcomes[0].per_epoch.size(), 3u);
}

TEST(SessionTest, GroupStepsWheneverAnyMemberIsEligible) {
  // A period only throttles the whole share group when every member skips
  // the epoch: a period-1 member keeps the group (and thus everyone riding
  // it) running every epoch.
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  AdmitOptions every_third;
  every_third.period = 3;
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql, every_third).ok());
  ASSERT_TRUE(coordinator.Admit(kSnapshotSql).ok());  // period 1, same group
  ASSERT_TRUE(coordinator.Open().ok());
  EXPECT_EQ(coordinator.active_operators(), 1u);
  for (size_t e = 0; e < 6; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    EXPECT_TRUE(update.value().groups[0].ran);
  }
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  for (const QueryOutcome& outcome : report.value().outcomes) {
    EXPECT_EQ(outcome.per_epoch.size(), 6u);
  }
}

TEST(SessionTest, LifecycleErrorsAreClean) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(4, 3, 5),
                               QueryCoordinator::Options{});
  EXPECT_FALSE(coordinator.StepEpoch().ok());  // no session
  EXPECT_FALSE(coordinator.Close().ok());
  ASSERT_TRUE(coordinator.Open().ok());
  EXPECT_FALSE(coordinator.Open().ok());  // already open
  EXPECT_FALSE(coordinator.Run().ok());   // batch refused while a session runs
  ASSERT_TRUE(coordinator.StepEpoch().ok());
  ASSERT_TRUE(coordinator.Close().ok());
  // After Close the coordinator is reusable in either mode.
  ASSERT_TRUE(coordinator.Run().ok());
  ASSERT_TRUE(coordinator.Open().ok());
  ASSERT_TRUE(coordinator.Close().ok());
}

}  // namespace
}  // namespace kspot::system
