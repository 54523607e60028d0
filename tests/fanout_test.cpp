#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
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

/// An eager, per-subscriber model of the hub: every Publish walks every live
/// subscriber of every fed member query, as a naive fan-out would.
class EagerReference {
 public:
  struct Sub {
    QueryId query = 0;
    bool live = true;
    uint64_t deliveries = 0;
    sim::Epoch last_delivery_epoch = 0;
  };
  struct Feed {
    std::shared_ptr<const core::TopKResult> latest;
    std::shared_ptr<const std::vector<core::SelectTuple>> latest_rows;
  };

  void Subscribe(SubscriberId id, QueryId query) {
    subs[id].query = query;
    feeds.emplace(query, Feed{});  // a feed exists from its first subscriber on
  }

  size_t Publish(const EpochUpdate& update) {
    size_t delivered = 0;
    for (const GroupUpdate& group : update.groups) {
      if (!group.ran) continue;
      for (QueryId query : group.members) {
        auto feed = feeds.find(query);
        if (feed == feeds.end()) continue;
        feed->second.latest = group.result;
        feed->second.latest_rows = group.rows;
        for (auto& [id, sub] : subs) {
          if (!sub.live || sub.query != query) continue;
          ++sub.deliveries;
          sub.last_delivery_epoch = update.epoch;
          ++delivered;
        }
      }
    }
    total += delivered;
    last_epoch = update.epoch;
    published = true;
    return delivered;
  }

  SubscriberStats Expected(const Sub& sub) const {
    SubscriberStats stats;
    stats.query = sub.query;
    stats.deliveries = sub.deliveries;
    stats.last_delivery_epoch = sub.last_delivery_epoch;
    if (published) {
      stats.staleness =
          sub.deliveries == 0 ? last_epoch + 1 : last_epoch - sub.last_delivery_epoch;
    }
    const Feed& feed = feeds.at(sub.query);
    if (feed.latest) stats.completeness = feed.latest->completeness;
    return stats;
  }

  size_t live() const {
    size_t n = 0;
    for (const auto& [id, sub] : subs) n += sub.live ? 1 : 0;
    return n;
  }

  std::map<SubscriberId, Sub> subs;
  std::map<QueryId, Feed> feeds;
  uint64_t total = 0;
  sim::Epoch last_epoch = 0;
  bool published = false;
};

/// Checks every subscriber the reference knows, live or not, against the hub.
void ExpectHubMatches(const FanOutHub& hub, const EagerReference& ref) {
  EXPECT_EQ(hub.subscribers(), ref.live());
  EXPECT_EQ(hub.total_deliveries(), ref.total);
  for (const auto& [id, sub] : ref.subs) {
    auto stats = hub.Stats(id);
    if (!sub.live) {
      EXPECT_FALSE(stats.ok()) << "subscriber " << id;
      EXPECT_EQ(hub.Latest(id), nullptr);
      EXPECT_EQ(hub.LatestRows(id), nullptr);
      continue;
    }
    ASSERT_TRUE(stats.ok()) << "subscriber " << id;
    SubscriberStats want = ref.Expected(sub);
    EXPECT_EQ(stats.value().query, want.query) << "subscriber " << id;
    EXPECT_EQ(stats.value().deliveries, want.deliveries) << "subscriber " << id;
    EXPECT_EQ(stats.value().last_delivery_epoch, want.last_delivery_epoch) << "subscriber " << id;
    EXPECT_EQ(stats.value().staleness, want.staleness) << "subscriber " << id;
    EXPECT_EQ(stats.value().completeness, want.completeness) << "subscriber " << id;
    const EagerReference::Feed& feed = ref.feeds.at(sub.query);
    EXPECT_EQ(hub.Latest(id).get(), feed.latest.get()) << "subscriber " << id;
    EXPECT_EQ(hub.LatestRows(id).get(), feed.latest_rows.get()) << "subscriber " << id;
  }
}

TEST(FanOutTest, StatsMatchAnEagerReference) {
  QueryCoordinator coordinator(Scenario::ConferenceFloor(6, 3, 5), QueryCoordinator::Options{});
  std::vector<QueryId> queries;
  std::map<QueryId, bool> active;
  auto admit = [&](const char* sql, int period) {
    AdmitOptions options;
    options.period = period;
    auto id = coordinator.Admit(sql, options);
    ASSERT_TRUE(id.ok()) << sql;
    queries.push_back(id.value());
    active[id.value()] = true;
  };
  admit(kSnapshotSql, 1);
  admit(kSelectSql, 1);
  // Rate-limited: its own group runs epochs 0, 3, 6, ...
  admit("SELECT TOP 2 roomid, MAX(sound) FROM sensors GROUP BY roomid", 3);
  // One-shot historic: never in an epoch's group updates, so its
  // subscribers never receive a delivery.
  admit("SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 4", 1);

  FanOutHub hub(&coordinator);
  EagerReference ref;
  std::mt19937_64 rng(2025);
  std::vector<SubscriberId> ever;
  auto subscribe = [&](QueryId query) {
    auto id = hub.Subscribe(query);
    ASSERT_EQ(id.ok(), active[query]) << "query " << query;
    if (!id.ok()) return;
    ever.push_back(id.value());
    ref.Subscribe(id.value(), query);
  };
  auto unsubscribe = [&](SubscriberId id) {
    EagerReference::Sub& sub = ref.subs.at(id);
    EXPECT_EQ(hub.Unsubscribe(id).ok(), sub.live) << "subscriber " << id;
    sub.live = false;
  };

  // Before Open: the first three queries get subscribers, the rate-limited
  // one's arrive only once the session runs.
  for (int i = 0; i < 6; ++i) subscribe(queries[i % 2]);
  subscribe(queries[3]);
  ExpectHubMatches(hub, ref);

  ASSERT_TRUE(coordinator.Open().ok());
  constexpr int kEpochs = 24;
  for (int e = 0; e < kEpochs; ++e) {
    if (e == 2) subscribe(queries[2]);  // after Open, before its group's 2nd run
    if (e == 5) admit(kSnapshotSql, 1);  // mid-run: joins the snapshot group
    if (e == 8) {
      // Mid-run, a new group; first subscriber after its first run.
      admit("SELECT TOP 4 nodeid, MIN(sound) FROM sensors GROUP BY nodeid", 1);
    }
    if (e == 10) subscribe(queries.back());
    if (e == 13) {
      ASSERT_TRUE(coordinator.Cancel(queries[1]).ok());
      active[queries[1]] = false;
    }
    // A seeded mix of subscribes (cancelled targets included, which the hub
    // refuses) and unsubscribes (dead handles included, which it refuses).
    const int actions = static_cast<int>(rng() % 5);
    for (int a = 0; a < actions; ++a) {
      if (rng() % 3 != 0 || ever.empty()) {
        subscribe(queries[rng() % queries.size()]);
      } else {
        unsubscribe(ever[rng() % ever.size()]);
      }
    }
    if (e == 16) {
      SubscriberId twice = ever[rng() % ever.size()];
      unsubscribe(twice);
      unsubscribe(twice);
    }
    ExpectHubMatches(hub, ref);

    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok());
    EXPECT_EQ(hub.Publish(update.value()), ref.Publish(update.value())) << "epoch " << e;
    ExpectHubMatches(hub, ref);
  }
  ASSERT_TRUE(coordinator.Close().ok());

  // The bed reached every case: unsubscribed handles, and live subscribers
  // with no deliveries, with deliveries and lagging, and up to date.
  size_t dead = 0, never = 0, lagging = 0, fresh = 0;
  for (const auto& [id, sub] : ref.subs) {
    if (!sub.live) {
      ++dead;
    } else if (sub.deliveries == 0) {
      ++never;
    } else if (sub.last_delivery_epoch < kEpochs - 1) {
      ++lagging;
    } else {
      ++fresh;
    }
  }
  EXPECT_GT(dead, 0u);
  EXPECT_GT(never, 0u);
  EXPECT_GT(lagging, 0u);
  EXPECT_GT(fresh, 0u);
}

}  // namespace
}  // namespace kspot::system
