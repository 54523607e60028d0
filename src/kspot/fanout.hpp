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
  /// ranked result's TopKResult::completeness). 1.0 before any delivery, for
  /// tuple-select queries, and whenever the reliability layer is off —
  /// subscribers see staleness AND how partial the data behind it is.
  double completeness = 1.0;
};

/// Subscriber fan-out over a coordinator session (the U ≫ Q production
/// shape): U subscription handles ride Q admitted queries, which the
/// CompatKey dedupe already reduces to G <= Q operator groups — so ONE
/// converge-cast per group per epoch feeds every subscriber.
///
/// The hub is the result side of that funnel. Each StepEpoch's EpochUpdate
/// carries one materialized result per group (a shared_ptr — materialized
/// once, referenced everywhere); Publish() routes it to every subscriber of
/// every member query for constant per-subscriber work (a delivery-counter
/// bump and an epoch stamp — no copy, no per-subscriber allocation). That
/// keeps delivery throughput decoupled from result size and is what E18
/// (`fanout_throughput`) measures at U up to 10^6.
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

  /// Fans one epoch's group updates out to every subscriber; returns the
  /// number of deliveries made (sum over ran groups of their subscriber
  /// counts). Call once per StepEpoch with its EpochUpdate.
  size_t Publish(const EpochUpdate& update);

  /// The subscriber's current view: the last materialized ranked result of
  /// its query's group (shared with every other subscriber of the group),
  /// or null before the first delivery / for tuple-select queries.
  std::shared_ptr<const core::TopKResult> Latest(SubscriberId id) const;
  /// Tuple-select counterpart of Latest().
  std::shared_ptr<const std::vector<core::SelectTuple>> LatestRows(SubscriberId id) const;

  util::StatusOr<SubscriberStats> Stats(SubscriberId id) const;

  size_t subscribers() const { return live_subscribers_; }
  /// Total deliveries across all subscribers since construction.
  uint64_t total_deliveries() const { return total_deliveries_; }

 private:
  struct Subscriber {
    QueryId query = 0;
    uint64_t deliveries = 0;
    sim::Epoch last_delivery_epoch = 0;
    bool live = false;
    uint32_t slot = 0;  ///< Index in its query's routing vector.
  };
  struct QueryFeed {
    /// Indices into subs_ of this query's live subscribers (contiguous, so
    /// the Publish inner loop is a linear slab walk).
    std::vector<uint32_t> routing;
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
