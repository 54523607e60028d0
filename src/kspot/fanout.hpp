#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/result.hpp"
#include "core/select.hpp"
#include "kspot/coordinator.hpp"
#include "util/status.hpp"

namespace kspot::system {

/// Handle of one subscription.
using SubscriberId = uint64_t;

/// What one subscriber has observed so far.
struct SubscriberStats {
  QueryId query = 0;               ///< The query subscribed to.
  uint64_t deliveries = 0;         ///< Epoch results delivered so far.
  sim::Epoch last_delivery_epoch = 0;  ///< Valid when deliveries > 0.
  /// Epochs the subscriber's view lags the data plane: published epochs
  /// since its query's group last ran (0 = fresh as of the last Publish).
  /// Rate-limited queries (AdmitOptions::period > 1) accrue staleness on
  /// skipped epochs and snap back to 0 when their group runs.
  sim::Epoch staleness = 0;
  /// Completeness of the view currently served (the latest materialized
  /// ranked result's TopKResult::completeness; below 1 for a MINT group
  /// that prunes, even without loss). 1.0 before any delivery and for
  /// tuple-select queries — subscribers see staleness AND how partial the
  /// data behind it is.
  double completeness = 1.0;
};

/// Subscriber fan-out over a coordinator session (the U ≫ Q production
/// shape): U subscription handles ride Q admitted queries, which the
/// CompatKey dedupe already reduces to G <= Q operator groups — so ONE
/// converge-cast per group per epoch feeds every subscriber.
///
/// The hub is the result side of that funnel. Each StepEpoch's EpochUpdate
/// carries one materialized result per group (a shared_ptr — materialized
/// once, referenced everywhere). The hub keeps it like a topic with offsets:
/// each query's feed holds the latest result, a publish count and the epoch
/// it was last published, and a subscriber records only its feed's count
/// when it subscribes. Publish() therefore costs O(member queries of the
/// groups that ran), whatever the subscriber count, and a subscriber's
/// deliveries are derived on read (feed count − subscribe-time count). E18
/// (`fanout_throughput`) measures the funnel at U up to 10^6.
///
/// The hub tracks the admitted set through the updates themselves: queries
/// admitted mid-run start delivering the epoch their group first runs for
/// them, cancelled queries drop out of the member lists and their
/// subscribers simply stop accruing deliveries (staleness then grows —
/// a dashboard's cue to resubscribe).
class FanOutHub {
 public:
  /// `coordinator` validates subscription targets; must outlive the hub.
  explicit FanOutHub(const QueryCoordinator* coordinator);

  /// Subscribes to an admitted query's results. Error for ids the
  /// coordinator does not currently serve.
  util::StatusOr<SubscriberId> Subscribe(QueryId query);
  /// Drops a subscription; the handle becomes invalid. Unknown or
  /// already-unsubscribed handles are clean errors.
  util::Status Unsubscribe(SubscriberId id);

  /// Publishes one epoch's group updates to the feeds of their member
  /// queries, touching no subscriber: O(member queries of the groups that
  /// ran). Returns the deliveries this makes (the live subscriber counts of
  /// the fed queries, summed). Call once per StepEpoch with its EpochUpdate.
  size_t Publish(const EpochUpdate& update);

  /// The subscriber's current view: the last materialized ranked result of
  /// its query's group (shared with every other subscriber of the group),
  /// or null before the first delivery / for tuple-select queries.
  std::shared_ptr<const core::TopKResult> Latest(SubscriberId id) const;
  /// Tuple-select counterpart of Latest().
  std::shared_ptr<const std::vector<core::SelectTuple>> LatestRows(SubscriberId id) const;

  /// The subscriber's counters, derived from its feed and its subscribe-time
  /// offset. Error for unknown or unsubscribed handles.
  util::StatusOr<SubscriberStats> Stats(SubscriberId id) const;

  size_t subscribers() const { return live_subscribers_; }
  /// Total deliveries across all subscribers since construction.
  uint64_t total_deliveries() const { return total_deliveries_; }

 private:
  struct Subscriber {
    QueryId query = 0;
    uint64_t offset = 0;  ///< Its feed's publish count when it subscribed.
    bool live = false;
  };
  struct QueryFeed {
    uint64_t publishes = 0;
    sim::Epoch last_epoch = 0;  ///< Valid when publishes > 0.
    size_t live = 0;            ///< Live subscribers.
    std::shared_ptr<const core::TopKResult> latest;
    std::shared_ptr<const std::vector<core::SelectTuple>> latest_rows;
  };

  const QueryCoordinator* coordinator_;
  std::vector<Subscriber> subs_;  ///< Slab; SubscriberId = index + 1.
  std::unordered_map<QueryId, QueryFeed> feeds_;
  size_t live_subscribers_ = 0;
  uint64_t total_deliveries_ = 0;
  sim::Epoch last_epoch_ = 0;
  bool published_ = false;

  const Subscriber* Find(SubscriberId id) const;
};

}  // namespace kspot::system
