#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "kspot/coordinator.hpp"
#include "kspot/fanout.hpp"
#include "kspot/scenario_config.hpp"

namespace kspot::system {
namespace {

constexpr const char* kSnapshotSql =
    "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kSelectSql = "SELECT nodeid, sound FROM sensors WHERE sound > 40";
/// Served by TAG, whose answer counts every reachable sensor as a
/// contributor (MINT's pruned views count fewer even when nothing is lost).
constexpr const char* kGroupedSelectSql =
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid";

TEST(FanOutTest, EverySubscriberOfAGroupObservesTheIdenticalResult) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  // Two queries that CompatKey to ONE operator group...
  auto a = coordinator.Admit(kSnapshotSql);
  auto b = coordinator.Admit(kSnapshotSql);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  FanOutHub hub(&coordinator);
  // ...with subscribers split across both query handles.
  std::vector<SubscriberId> subs;
  for (int i = 0; i < 3; ++i) subs.push_back(hub.Subscribe(a.value()).value());
  for (int i = 0; i < 3; ++i) subs.push_back(hub.Subscribe(b.value()).value());

  ASSERT_TRUE(coordinator.Open().ok());
  EXPECT_EQ(coordinator.active_operators(), 1u);
  for (size_t e = 0; e < 8; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    hub.Publish(update.value());
    // One materialization per group per epoch: every subscriber's Latest()
    // is literally the same object, not an equal copy.
    std::shared_ptr<const core::TopKResult> first = hub.Latest(subs[0]);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->epoch, static_cast<sim::Epoch>(e));
    for (SubscriberId id : subs) EXPECT_EQ(hub.Latest(id).get(), first.get());
  }
  ASSERT_TRUE(coordinator.Close().ok());
}

TEST(FanOutTest, DeliveryCountsConserve) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  auto query = coordinator.Admit(kSnapshotSql);
  ASSERT_TRUE(query.ok());
  FanOutHub hub(&coordinator);
  constexpr size_t kSubscribers = 100;
  constexpr size_t kEpochs = 12;
  std::vector<SubscriberId> subs;
  for (size_t i = 0; i < kSubscribers; ++i) {
    subs.push_back(hub.Subscribe(query.value()).value());
  }
  EXPECT_EQ(hub.subscribers(), kSubscribers);

  ASSERT_TRUE(coordinator.Open().ok());
  size_t published = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    published += hub.Publish(update.value());
  }
  ASSERT_TRUE(coordinator.Close().ok());

  // U x E total, E per subscriber — nothing dropped, nothing duplicated.
  EXPECT_EQ(published, kSubscribers * kEpochs);
  EXPECT_EQ(hub.total_deliveries(), kSubscribers * kEpochs);
  for (SubscriberId id : subs) {
    auto stats = hub.Stats(id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().deliveries, kEpochs);
    EXPECT_EQ(stats.value().last_delivery_epoch, kEpochs - 1);
    EXPECT_EQ(stats.value().staleness, 0u);
  }
}

TEST(FanOutTest, StalenessTracksSkippedEpochsUnderRateLimit) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  AdmitOptions every_third;
  every_third.period = 3;
  auto query = coordinator.Admit(kSnapshotSql, every_third);
  ASSERT_TRUE(query.ok());
  FanOutHub hub(&coordinator);
  SubscriberId sub = hub.Subscribe(query.value()).value();

  ASSERT_TRUE(coordinator.Open().ok());
  // The group runs epochs 0, 3, 6, ...: staleness saws 0, 1, 2, 0, 1, 2, ...
  std::vector<sim::Epoch> staleness;
  for (size_t e = 0; e < 7; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    hub.Publish(update.value());
    staleness.push_back(hub.Stats(sub).value().staleness);
  }
  ASSERT_TRUE(coordinator.Close().ok());
  EXPECT_EQ(staleness, (std::vector<sim::Epoch>{0, 1, 2, 0, 1, 2, 0}));
  EXPECT_EQ(hub.Stats(sub).value().deliveries, 3u);
}

TEST(FanOutTest, MidRunJoinerDeliversFromItsJoinEpoch) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  auto incumbent = coordinator.Admit(kSnapshotSql);
  ASSERT_TRUE(incumbent.ok());
  FanOutHub hub(&coordinator);
  SubscriberId early = hub.Subscribe(incumbent.value()).value();

  ASSERT_TRUE(coordinator.Open().ok());
  for (size_t e = 0; e < 5; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    hub.Publish(update.value());
  }
  // A query admitted mid-run joins the group; a subscriber can't exist
  // before its query does, and delivers from the join epoch on.
  EXPECT_FALSE(hub.Subscribe(999).ok());
  auto joiner = coordinator.Admit(kSnapshotSql);
  ASSERT_TRUE(joiner.ok());
  SubscriberId late = hub.Subscribe(joiner.value()).value();
  for (size_t e = 5; e < 10; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    hub.Publish(update.value());
  }
  ASSERT_TRUE(coordinator.Close().ok());

  EXPECT_EQ(hub.Stats(early).value().deliveries, 10u);
  EXPECT_EQ(hub.Stats(late).value().deliveries, 5u);
  // Both ride the same group, so both views converge to the same object.
  EXPECT_EQ(hub.Latest(early).get(), hub.Latest(late).get());
}

TEST(FanOutTest, CompletenessStatMirrorsTheServedResult) {
  // Steps a lone grouped select for five epochs and returns its subscriber's
  // completeness stat next to the completeness of the result it is served.
  auto run = [](const QueryCoordinator::Options& opt) {
    QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), opt);
    auto query = coordinator.Admit(kGroupedSelectSql);
    EXPECT_TRUE(query.ok());
    FanOutHub hub(&coordinator);
    SubscriberId sub = hub.Subscribe(query.value()).value();
    EXPECT_TRUE(coordinator.Open().ok());
    for (size_t e = 0; e < 5; ++e) {
      auto update = coordinator.StepEpoch();
      EXPECT_TRUE(update.ok());
      EXPECT_EQ(hub.Publish(update.value()), 1u);
    }
    EXPECT_TRUE(coordinator.Close().ok());
    std::shared_ptr<const core::TopKResult> latest = hub.Latest(sub);
    EXPECT_NE(latest, nullptr);
    return std::make_pair(hub.Stats(sub).value().completeness,
                          latest ? latest->completeness : -1.0);
  };

  auto lossless = run(QueryCoordinator::Options{});
  EXPECT_EQ(lossless.first, 1.0);
  EXPECT_EQ(lossless.second, 1.0);

  // An epoch deadline of one slot cuts every node below depth 1 from the
  // waves, so the served answer is structurally partial.
  QueryCoordinator::Options deadline;
  deadline.reliability.enabled = true;
  deadline.reliability.wave_depth_budget = 1;
  auto partial = run(deadline);
  EXPECT_EQ(partial.first, partial.second);
  EXPECT_LT(partial.first, 1.0);
}

TEST(FanOutTest, UnsubscribeStopsDeliveriesAndCancelStopsTheFeed) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5),
                               QueryCoordinator::Options{});
  auto snap = coordinator.Admit(kSnapshotSql);
  auto select = coordinator.Admit(kSelectSql);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(select.ok());
  FanOutHub hub(&coordinator);
  SubscriberId keeper = hub.Subscribe(snap.value()).value();
  SubscriberId quitter = hub.Subscribe(snap.value()).value();
  SubscriberId orphan = hub.Subscribe(select.value()).value();

  ASSERT_TRUE(coordinator.Open().ok());
  for (size_t e = 0; e < 4; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    hub.Publish(update.value());
  }
  ASSERT_NE(hub.LatestRows(orphan), nullptr);  // selects feed rows, not ranks
  EXPECT_EQ(hub.Latest(orphan), nullptr);

  ASSERT_TRUE(hub.Unsubscribe(quitter).ok());
  EXPECT_FALSE(hub.Unsubscribe(quitter).ok());  // twice
  EXPECT_FALSE(hub.Unsubscribe(12345).ok());    // unknown
  EXPECT_FALSE(hub.Stats(quitter).ok());
  EXPECT_EQ(hub.subscribers(), 2u);
  // Cancelling a query drops it from the member lists: its subscribers stop
  // accruing deliveries and staleness grows as the plane moves on.
  ASSERT_TRUE(coordinator.Cancel(select.value()).ok());
  for (size_t e = 4; e < 8; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    hub.Publish(update.value());
  }
  ASSERT_TRUE(coordinator.Close().ok());

  EXPECT_EQ(hub.Stats(keeper).value().deliveries, 8u);
  EXPECT_EQ(hub.Stats(orphan).value().deliveries, 4u);
  EXPECT_EQ(hub.Stats(orphan).value().staleness, 4u);  // last fed at epoch 3
  EXPECT_EQ(hub.total_deliveries(), 8u + 4u + 4u);  // keeper + quitter + orphan
}

}  // namespace
}  // namespace kspot::system
