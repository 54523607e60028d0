/// E17 — multi-query server throughput on one shared deployment.
///
/// The QueryCoordinator admits N concurrent queries against a single
/// long-lived deployment (one tree, one battery ledger, one per-epoch data
/// wave) and piggybacks compatible snapshot queries on one converge-cast.
/// This scenario measures what that buys over the one-query-at-a-time
/// KSpotServer::Execute serving model: aggregate queries/sec (wall clock,
/// one "query" = one admitted query served for the full run) and per-query
/// radio traffic, at 1/4/16/64 concurrent queries, churn on/off, for a
/// fleet of identical snapshot dashboards ("snapshot") and a mixed
/// snapshot+select+historic workload ("mixed"), on a 33-mote floor, plus
/// two points on a 2049-mote floor, large enough for the coordinator's
/// worker pool: a mixed 16-query point, whose epochs step their operator
/// groups concurrently, and four identical dashboards on one operator,
/// whose lone converge-cast splits across the pool. The coord_qps gate
/// covers both paths.
///
/// Wall-clock metrics are machine-dependent: the scenario is excluded from
/// bit-determinism checks, CI runs it quick with --threads 1, and
/// bench/check_regression.py gates coord_qps against the committed baseline
/// (bench/baseline/BENCH_E17_server_throughput.json) the same way E16 gates
/// epochs/sec.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/server.hpp"
#include "scenarios.hpp"

namespace kspot::bench {

namespace {

struct ServerThroughputConfig {
  size_t queries = 16;
  size_t epochs = 120;
  uint64_t seed = 171;
  bool churn = false;
  bool mixed = false;
  size_t nodes_per_room = 4;  ///< On eight rooms: 4 -> 33 motes, 256 -> 2049.
};

/// The admitted workload. "snapshot" is N users watching the same top-3
/// dashboard (the pure piggyback case); "mixed" cycles snapshot variants,
/// an acquisitional SELECT, a grouped select and a historic TJA audit, so
/// both shared and distinct operators are exercised.
std::vector<std::string> BuildQueryMix(const ServerThroughputConfig& cfg) {
  static const std::vector<std::string> kMixedCycle = {
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT nodeid, sound FROM sensors WHERE sound > 60",
      "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid",
      "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 24",
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
  };
  std::vector<std::string> queries;
  queries.reserve(cfg.queries);
  for (size_t i = 0; i < cfg.queries; ++i) {
    if (cfg.mixed) {
      queries.push_back(kMixedCycle[i % kMixedCycle.size()]);
    } else {
      queries.push_back(kMixedCycle[0]);
    }
  }
  return queries;
}

runner::MetricList RunServerThroughput(const ServerThroughputConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  system::Scenario floor = system::Scenario::ConferenceFloor(8, cfg.nodes_per_room, cfg.seed);
  std::vector<std::string> queries = BuildQueryMix(cfg);

  fault::FaultPlanOptions churn_opt;
  churn_opt.crash_prob = 0.01;
  churn_opt.mean_downtime = 10;

  // Piggybacking can collapse a 64-query run to one operator, so a single
  // Run may be sub-millisecond — unmeasurable for any wall-clock gate.
  // Repeat the (pure, identical) runs until the timed region is long enough
  // to mean something; qps divides by the repetitions.
  constexpr double kMinTimedSeconds = 0.025;
  auto timed_reps = [](auto&& fn) {
    Clock::time_point start = Clock::now();
    size_t reps = 0;
    double elapsed = 0.0;
    do {
      fn();
      ++reps;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < kMinTimedSeconds);
    return std::pair<size_t, double>(reps, elapsed);
  };

  // Shared data plane: one coordinator run serves every query.
  system::QueryCoordinator::Options copt;
  copt.epochs = cfg.epochs;
  copt.seed = cfg.seed;
  copt.enable_churn = cfg.churn;
  copt.churn = churn_opt;
  system::QueryCoordinator coordinator(floor, copt);
  for (const std::string& sql : queries) {
    auto admitted = coordinator.Admit(sql);
    if (!admitted.ok()) std::abort();  // catalogue bug: queries must admit
  }
  util::StatusOr<system::CoordinatorReport> report_or = coordinator.Run();  // warm-up
  auto [coord_reps, coord_s] = timed_reps([&] { report_or = coordinator.Run(); });
  if (!report_or.ok()) std::abort();
  const system::CoordinatorReport& report = report_or.value();

  // Sequential serving: the same queries, one KSpotServer::Execute each
  // (no shadow baseline — this measures serving cost, not savings).
  system::KSpotServer::Options sopt;
  sopt.epochs = cfg.epochs;
  sopt.seed = cfg.seed;
  sopt.enable_churn = cfg.churn;
  sopt.churn = churn_opt;
  sopt.run_baseline = false;
  system::KSpotServer server(floor, sopt);
  uint64_t seq_msgs = 0;
  if (!server.Execute(queries.front()).ok()) std::abort();  // warm-up
  auto [seq_reps, seq_s] = timed_reps([&] {
    seq_msgs = 0;
    for (const std::string& sql : queries) {
      auto outcome = server.Execute(sql);
      if (!outcome.ok()) std::abort();
      seq_msgs += outcome.value().cost.messages;
    }
  });

  double n = static_cast<double>(cfg.queries);
  double coord_qps = coord_s > 0.0 ? n * static_cast<double>(coord_reps) / coord_s : 0.0;
  double seq_qps = seq_s > 0.0 ? n * static_cast<double>(seq_reps) / seq_s : 0.0;
  return {{"coord_qps", coord_qps},
          {"seq_qps", seq_qps},
          {"speedup", seq_qps > 0.0 ? coord_qps / seq_qps : 0.0},
          {"operators", static_cast<double>(report.operators)},
          {"coord_msgs_per_query", static_cast<double>(report.total.messages) / n},
          {"seq_msgs_per_query", static_cast<double>(seq_msgs) / n}};
}

}  // namespace

void RegisterServerThroughput(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "server_throughput";
  s.id = "E17";
  s.title = "multi-query server throughput: shared data plane vs sequential Execute";
  s.notes =
      "coord_qps/seq_qps are wall-clock; run with --threads 1 when comparing\n"
      "numbers. speedup = coord_qps / seq_qps; operators counts distinct\n"
      "operator instances after snapshot piggybacking.\n"
      "Each Execute is a single-query coordinator session, so both legs run\n"
      "the same fault process for every query class (a one-shot TJA audit\n"
      "ranks its window before any churn epoch on either leg).\n"
      "bench/check_regression.py gates CI on this scenario's coord_qps.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    std::vector<runner::Trial> trials;
    auto add = [&](size_t queries, bool mixed, bool churn, size_t nodes_per_room) {
      runner::Trial t;
      t.spec.algorithm = "COORD";
      t.spec.seed = opt.seed != 0 ? opt.seed : 171;
      t.spec.params = {{"queries", std::to_string(queries)},
                       {"mix", mixed ? "mixed" : "snapshot"},
                       {"churn", churn ? "on" : "off"}};
      if (nodes_per_room != 4) {
        t.spec.params.push_back({"motes", std::to_string(8 * nodes_per_room + 1)});
      }
      ServerThroughputConfig cfg;
      cfg.queries = queries;
      cfg.epochs = opt.quick ? 30 : 120;
      cfg.seed = t.spec.seed;
      cfg.churn = churn;
      cfg.mixed = mixed;
      cfg.nodes_per_room = nodes_per_room;
      t.run = [cfg]() { return RunServerThroughput(cfg); };
      trials.push_back(std::move(t));
    };
    for (bool mixed : {false, true}) {
      for (bool churn : {false, true}) {
        for (size_t queries : {1u, 4u, 16u, 64u}) add(queries, mixed, churn, 4);
      }
    }
    add(16, /*mixed=*/true, /*churn=*/false, /*nodes_per_room=*/256);
    add(4, /*mixed=*/false, /*churn=*/false, /*nodes_per_room=*/256);
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
