#include "kspot/fanout.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace kspot::system {

FanOutHub::FanOutHub(const QueryCoordinator* coordinator) : coordinator_(coordinator) {}

util::StatusOr<SubscriberId> FanOutHub::Subscribe(QueryId query) {
  if (!coordinator_->query_active(query)) {
    return util::Status::Error("cannot subscribe: no active query with id " +
                               std::to_string(query));
  }
  QueryFeed& feed = feeds_[query];
  ++feed.live;
  subs_.push_back(Subscriber{query, feed.publishes, true});
  ++live_subscribers_;
  return static_cast<SubscriberId>(subs_.size());  // ids are 1-based
}

util::Status FanOutHub::Unsubscribe(SubscriberId id) {
  if (id == 0 || id > subs_.size() || !subs_[id - 1].live) {
    return util::Status::Error("no live subscriber with id " + std::to_string(id));
  }
  Subscriber& sub = subs_[id - 1];
  sub.live = false;
  --feeds_.at(sub.query).live;
  --live_subscribers_;
  return util::Status::Ok();
}

size_t FanOutHub::Publish(const EpochUpdate& update) {
  static const uint32_t kPublishSpan = obs::GlobalTracer().InternName("fanout.publish");
  obs::ScopedSpan publish_span(kPublishSpan);
  const uint64_t publish_start = obs::MetricsOn() ? obs::NowMicros() : 0;
  size_t delivered = 0;
  for (const GroupUpdate& group : update.groups) {
    if (!group.ran) continue;
    for (QueryId query : group.members) {
      auto it = feeds_.find(query);
      if (it == feeds_.end()) continue;
      QueryFeed& feed = it->second;
      feed.latest = group.result;
      feed.latest_rows = group.rows;
      ++feed.publishes;
      feed.last_epoch = update.epoch;
      delivered += feed.live;
    }
  }
  total_deliveries_ += delivered;
  last_epoch_ = update.epoch;
  published_ = true;
  if (publish_start != 0) {
    static obs::Histogram& publish_us = obs::Registry().histogram("fanout.publish_us");
    static obs::Histogram& per_publish = obs::Registry().histogram("fanout.deliveries_per_publish");
    static obs::Counter& deliveries = obs::Registry().counter("fanout.deliveries");
    publish_us.Observe(static_cast<double>(obs::NowMicros() - publish_start));
    per_publish.Observe(static_cast<double>(delivered));
    deliveries.Add(delivered);
  }
  return delivered;
}

const FanOutHub::Subscriber* FanOutHub::Find(SubscriberId id) const {
  if (id == 0 || id > subs_.size() || !subs_[id - 1].live) return nullptr;
  return &subs_[id - 1];
}

std::shared_ptr<const core::TopKResult> FanOutHub::Latest(SubscriberId id) const {
  const Subscriber* sub = Find(id);
  return sub == nullptr ? nullptr : feeds_.at(sub->query).latest;
}

std::shared_ptr<const std::vector<core::SelectTuple>> FanOutHub::LatestRows(
    SubscriberId id) const {
  const Subscriber* sub = Find(id);
  return sub == nullptr ? nullptr : feeds_.at(sub->query).latest_rows;
}

util::StatusOr<SubscriberStats> FanOutHub::Stats(SubscriberId id) const {
  const Subscriber* sub = Find(id);
  if (sub == nullptr) {
    return util::Status::Error("no live subscriber with id " + std::to_string(id));
  }
  const QueryFeed& feed = feeds_.at(sub->query);
  SubscriberStats stats;
  stats.query = sub->query;
  stats.deliveries = feed.publishes - sub->offset;
  if (stats.deliveries > 0) stats.last_delivery_epoch = feed.last_epoch;
  if (published_) {
    if (stats.deliveries == 0) {
      stats.staleness = last_epoch_ + 1;  // never delivered: the whole history
    } else {
      stats.staleness = last_epoch_ - stats.last_delivery_epoch;
    }
  }
  if (feed.latest) stats.completeness = feed.latest->completeness;
  return stats;
}

}  // namespace kspot::system
