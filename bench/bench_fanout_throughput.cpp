/// E18 — subscriber fan-out throughput over a coordinator session.
///
/// The production shape of a long-lived KSpot service is U subscribers over
/// Q distinct queries with U >> Q: the CompatKey dedupe collapses the Q
/// queries to G operator groups (one converge-cast per group per epoch), and
/// the FanOutHub publishes each group's single materialized result to its
/// member queries' feeds: O(member queries) per epoch, with every
/// subscriber's deliveries derived on read from its feed's publish count and
/// its subscribe-time offset. This scenario measures that funnel end to end:
/// a session steps the shared data plane while the hub publishes to
/// U = 10^3 / 10^5 / 10^6 subscribers spread round-robin over Q = 4 / 16 / 64
/// queries (a 16-variant top-k pool, so Q = 64 exercises 4-way operator
/// sharing).
///
/// Metrics: deliveries_per_sec (subscriber deliveries over the serving
/// loop's wall clock — the acceptance bar is >= 1e5 at U = 10^6),
/// p99_delivery_ms (p99 per-epoch publish latency: how long the slowest
/// fan-out pass kept subscribers waiting after the converge-cast), plus the
/// funnel's shape (subscribers, operators, deliveries). The run aborts unless
/// the subscribers' own delivery counts sum to the hub's total, U x epochs.
///
/// Wall-clock metrics are machine-dependent: the scenario is excluded from
/// bit-determinism checks, CI runs it quick with --threads 1, and
/// bench/check_regression.py gates deliveries_per_sec against the committed
/// baseline (bench/baseline/BENCH_E18_fanout_throughput.json).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/fanout.hpp"
#include "kspot/scenario_config.hpp"
#include "scenarios.hpp"
#include "util/stats.hpp"

namespace kspot::bench {

namespace {

struct FanoutThroughputConfig {
  size_t subscribers = 1000;
  size_t queries = 16;
  size_t epochs = 8;
  uint64_t seed = 181;
};

/// The query pool: 16 snapshot top-k variants (K in 1..4 x AVG/MAX/MIN/SUM).
/// Q <= 16 gives Q distinct operators; Q = 64 cycles the pool so every
/// operator carries a 4-way share group.
std::vector<std::string> BuildQueryPool(size_t queries) {
  static const char* kAggs[] = {"AVG", "MAX", "MIN", "SUM"};
  std::vector<std::string> pool;
  pool.reserve(queries);
  char buf[128];
  for (size_t i = 0; i < queries; ++i) {
    std::snprintf(buf, sizeof buf,
                  "SELECT TOP %zu roomid, %s(sound) FROM sensors GROUP BY roomid",
                  (i / 4) % 4 + 1, kAggs[i % 4]);
    pool.emplace_back(buf);
  }
  return pool;
}

runner::MetricList RunFanoutThroughput(const FanoutThroughputConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  system::Scenario floor = system::Scenario::ConferenceFloor(8, 4, cfg.seed);

  system::QueryCoordinator::Options copt;
  copt.epochs = cfg.epochs;
  copt.seed = cfg.seed;
  system::QueryCoordinator coordinator(floor, copt);

  std::vector<system::QueryId> admitted;
  for (const std::string& sql : BuildQueryPool(cfg.queries)) {
    auto id = coordinator.Admit(sql);
    if (!id.ok()) std::abort();  // catalogue bug: the pool must admit
    admitted.push_back(id.value());
  }

  // U subscription handles, round-robin over the Q query handles.
  system::FanOutHub hub(&coordinator);
  std::vector<system::SubscriberId> subs;
  subs.reserve(cfg.subscribers);
  for (size_t u = 0; u < cfg.subscribers; ++u) {
    auto id = hub.Subscribe(admitted[u % admitted.size()]);
    if (!id.ok()) std::abort();
    subs.push_back(id.value());
  }

  if (!coordinator.Open().ok()) std::abort();
  util::Percentiles publish_ms;
  Clock::time_point serve_start = Clock::now();
  for (size_t e = 0; e < cfg.epochs; ++e) {
    auto update = coordinator.StepEpoch();
    if (!update.ok()) std::abort();
    Clock::time_point publish_start = Clock::now();
    hub.Publish(update.value());
    publish_ms.Add(
        std::chrono::duration<double, std::milli>(Clock::now() - publish_start).count());
  }
  double serve_s = std::chrono::duration<double>(Clock::now() - serve_start).count();
  auto report = coordinator.Close();
  if (!report.ok()) std::abort();

  // Conservation: every subscriber must have been delivered every epoch
  // (all queries run every epoch here), by the hub's total and by the
  // per-subscriber counts derived from it — a miscount is a harness or hub
  // bug, not a slow run, so fail loudly rather than report a wrong rate.
  uint64_t expected = static_cast<uint64_t>(cfg.subscribers) * cfg.epochs;
  if (hub.total_deliveries() != expected) std::abort();
  uint64_t per_subscriber = 0;
  for (system::SubscriberId id : subs) {
    auto stats = hub.Stats(id);
    if (!stats.ok()) std::abort();
    per_subscriber += stats.value().deliveries;
  }
  if (per_subscriber != expected) std::abort();

  double deliveries = static_cast<double>(hub.total_deliveries());
  util::DistSummary publish = publish_ms.Summary();
  return {{"deliveries_per_sec", serve_s > 0.0 ? deliveries / serve_s : 0.0},
          {"p50_delivery_ms", publish.p50},
          {"p99_delivery_ms", publish.p99},
          {"deliveries", deliveries},
          {"subscribers", static_cast<double>(cfg.subscribers)},
          {"queries", static_cast<double>(cfg.queries)},
          {"operators", static_cast<double>(report.value().operators)}};
}

}  // namespace

void RegisterFanoutThroughput(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "fanout_throughput";
  s.id = "E18";
  s.title = "subscriber fan-out: one converge-cast per group serving 10^3..10^6 viewers";
  s.notes =
      "deliveries_per_sec and p99_delivery_ms are wall-clock; run with\n"
      "--threads 1 when comparing numbers. operators shows the CompatKey\n"
      "funnel (Q=64 collapses to 16 operators, a 4-way share each).\n"
      "bench/check_regression.py gates CI on this scenario's\n"
      "deliveries_per_sec; the U=10^6 rows must clear 1e5 deliveries/sec.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    std::vector<runner::Trial> trials;
    for (size_t subscribers : {1000u, 100000u, 1000000u}) {
      for (size_t queries : {4u, 16u, 64u}) {
        runner::Trial t;
        t.spec.algorithm = "FANOUT";
        t.spec.seed = opt.seed != 0 ? opt.seed : 181;
        t.spec.params = {{"subscribers", std::to_string(subscribers)},
                         {"queries", std::to_string(queries)}};
        FanoutThroughputConfig cfg;
        cfg.subscribers = subscribers;
        cfg.queries = queries;
        cfg.epochs = opt.quick ? 4 : 8;
        cfg.seed = t.spec.seed;
        t.run = [cfg]() { return RunFanoutThroughput(cfg); };
        trials.push_back(std::move(t));
      }
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
