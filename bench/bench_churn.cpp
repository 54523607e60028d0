/// E13–E15 — the fault & churn experiments the static-topology benchmarks
/// could not express:
///
///   E13 churn_lifetime — battery-budgeted continuous queries under exogenous
///       node churn: epochs until the first battery death, for TAG vs MINT
///       executing the *same* FaultPlan. MINT's suppression spends less radio
///       per epoch, so it outlives TAG even while paying for view rebuilds
///       after every repair.
///   E14 churn_accuracy — answer quality under churn: recall and rank
///       distance against an oracle evaluated over the surviving (alive and
///       routable) population, with and without link-degradation episodes.
///   E15 repair_cost — what in-network tree repair costs: join-handshake
///       messages per repair event and the re-attachment volume as the crash
///       rate grows.
#include "bench_util.hpp"
#include "fault/churn_engine.hpp"
#include "scenarios.hpp"
#include "util/string_util.hpp"

namespace kspot::bench {

namespace {

/// One churn trial: a grid bed driven by a seeded FaultPlan, the ChurnEngine
/// repairing the tree before every epoch.
struct ChurnRunConfig {
  size_t nodes = 100;
  size_t rooms = 16;
  size_t epochs = 100;
  uint64_t seed = 1;
  fault::FaultPlanOptions fopt;
  double battery_j = 0.0;
  bool track_accuracy = false;
  bool stop_at_battery_death = false;
  /// Query the algorithms answer; FILA requires node grouping.
  core::QuerySpec spec = RoomAvgSpec(3);
};

/// Node-ranking spec for the FILA churn rows (FILA monitors individual
/// sensors, Grouping::kNode).
core::QuerySpec NodeTopKSpec(int k) {
  core::QuerySpec spec;
  spec.k = k;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kNode;
  spec.domain_max = 100.0;
  return spec;
}

struct ChurnRunStats {
  size_t epochs_run = 0;
  size_t first_battery_death = 0;  ///< == epochs_run when none occurred.
  bool battery_death_seen = false;
  double recall_sum = 0.0;
  double rank_dist_sum = 0.0;
  double detached_fraction_sum = 0.0;
  size_t repair_events = 0;
  uint64_t repair_msgs = 0;
  size_t reattached = 0;
  size_t alive_at_end = 0;
  sim::TrafficCounters total;
  /// MINT creation/probe-repair wave messages after epoch 0 — the initial
  /// (churn-free) creation wave is excluded so the metric isolates what the
  /// run's dynamics cost.
  uint64_t rebuild_msgs = 0;
  /// MINT-only repair-mode counters (0 for other algorithms).
  int mint_full_rebuilds = 0;
  int mint_incremental_repairs = 0;
  int mint_probe_repairs = 0;
};

ChurnRunStats RunChurn(SnapshotAlgo algo, const ChurnRunConfig& cfg) {
  const core::QuerySpec& spec = cfg.spec;
  sim::NetworkOptions net_opt;
  net_opt.battery_j = cfg.battery_j;
  auto bed = Bed::Grid(cfg.nodes, cfg.rooms, cfg.seed, net_opt);
  auto gen = bed.RoomData(cfg.seed);
  auto oracle_gen = bed.RoomData(cfg.seed);
  core::Oracle oracle(&bed.topology, oracle_gen.get(), spec);
  fault::FaultPlan plan = fault::FaultPlan::Generate(bed.topology, cfg.fopt, cfg.seed ^ 0xFA11);
  fault::ChurnEngine churn(bed.net.get(), &bed.tree, std::move(plan));
  auto algorithm = MakeSnapshotAlgo(algo, bed.net.get(), gen.get(), spec);

  auto rebuild_msgs_so_far = [&] {
    return bed.net->PhaseTotal("mint.create").messages +
           bed.net->PhaseTotal("mint.repair").messages;
  };
  uint64_t initial_creation_msgs = 0;
  ChurnRunStats stats;
  for (size_t e = 0; e < cfg.epochs; ++e) {
    auto epoch = static_cast<sim::Epoch>(e);
    fault::ChurnReport report = churn.BeginEpoch(epoch);
    if (report.battery_deaths > 0 && !stats.battery_death_seen) {
      stats.battery_death_seen = true;
      stats.first_battery_death = e;
      if (cfg.stop_at_battery_death) {
        stats.epochs_run = e;
        break;
      }
    }
    if (report.topology_changed) algorithm->OnTopologyChanged(report.delta);
    core::TopKResult got = algorithm->RunEpoch(epoch);
    if (cfg.track_accuracy) {
      // Ground truth over the population that could possibly contribute:
      // alive and with a route to the sink.
      core::TopKResult want = oracle.TopKOver(epoch, [&](sim::NodeId id) {
        return bed.net->NodeAlive(id) && bed.tree.attached(id);
      });
      stats.recall_sum += got.RecallAgainst(want);
      stats.rank_dist_sum += got.RankDistanceFrom(want);
    }
    if (bed.topology.num_sensors() > 0) {
      stats.detached_fraction_sum += static_cast<double>(churn.detached_count()) /
                                     static_cast<double>(bed.topology.num_sensors());
    }
    stats.epochs_run = e + 1;
    if (e == 0) initial_creation_msgs = rebuild_msgs_so_far();
  }
  if (!stats.battery_death_seen) stats.first_battery_death = stats.epochs_run;
  stats.repair_events = churn.repair_events();
  stats.repair_msgs = churn.repair_messages();
  stats.reattached = churn.total_reattached();
  stats.alive_at_end = bed.net->AliveCount();
  stats.total = bed.net->total();
  stats.rebuild_msgs = rebuild_msgs_so_far() - initial_creation_msgs;
  if (const auto* mint = dynamic_cast<const core::MintViews*>(algorithm.get())) {
    stats.mint_full_rebuilds = mint->churn_rebuild_count();
    stats.mint_incremental_repairs = mint->incremental_repair_count();
    stats.mint_probe_repairs = mint->repair_count();
  }
  return stats;
}

}  // namespace

void RegisterChurnLifetime(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "churn_lifetime";
  s.id = "E13";
  s.title = "network lifetime under churn (n=100, 16 rooms, K=3, battery-budgeted)";
  s.notes =
      "Both rows execute the same FaultPlan (transient crashes), so the gap in\n"
      "first_battery_death_epoch is pure protocol cost: MINT outlives TAG even while\n"
      "paying a creation-phase rebuild after every tree repair.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    ChurnRunConfig cfg;
    cfg.epochs = opt.quick ? 4000 : 40000;
    // Budgets sized so the first death lands well past MINT's creation
    // phase: the steady-state suppression gap, not the creation spike, is
    // what the lifetime ratio measures.
    cfg.battery_j = opt.quick ? 0.1 : 0.5;
    cfg.seed = opt.seed != 0 ? opt.seed : 131;
    cfg.fopt.horizon = static_cast<sim::Epoch>(cfg.epochs);
    cfg.fopt.crash_prob = 0.0005;
    cfg.fopt.mean_downtime = 40;
    cfg.stop_at_battery_death = true;

    std::vector<runner::Trial> trials;
    for (SnapshotAlgo algo : {SnapshotAlgo::kTag, SnapshotAlgo::kMint}) {
      runner::Trial t;
      t.spec.algorithm = AlgoName(algo);
      t.spec.seed = cfg.seed;
      t.spec.params = {{"battery_j", util::FormatDouble(cfg.battery_j, 2)},
                       {"crash_prob", util::FormatDouble(cfg.fopt.crash_prob, 4)}};
      t.run = [=]() -> runner::MetricList {
        ChurnRunStats st = RunChurn(algo, cfg);
        return {{"first_battery_death_epoch", static_cast<double>(st.first_battery_death)},
                {"alive_after", static_cast<double>(st.alive_at_end)},
                {"repair_events", static_cast<double>(st.repair_events)},
                {"repair_msgs", static_cast<double>(st.repair_msgs)},
                {"msgs_per_epoch", PerEpoch(st.total.messages, st.epochs_run)},
                {"energy_spent_j", st.total.energy_j()}};
      };
      trials.push_back(std::move(t));
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

void RegisterChurnAccuracy(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "churn_accuracy";
  s.id = "E14";
  s.title = "answer quality under churn vs the surviving-population oracle (n=49, K=3)";
  s.notes =
      "recall / rank_distance compare each epoch's answer to an oracle aggregating\n"
      "only nodes that are alive and routable that epoch. Pure fail-stop churn keeps\n"
      "both algorithms exact (stale views are evicted on every repair); degradation\n"
      "episodes add real frame loss and open the gap.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    ChurnRunConfig base;
    base.nodes = 49;
    base.rooms = 12;
    base.epochs = opt.quick ? 40 : 200;
    base.seed = opt.seed != 0 ? opt.seed : 141;
    base.track_accuracy = true;

    struct Level {
      const char* label;
      double crash_prob;
      double degrade_prob;
    };
    const std::vector<Level> levels = opt.quick
        ? std::vector<Level>{{"crash", 0.01, 0.0}, {"crash+degrade", 0.01, 0.01}}
        : std::vector<Level>{{"calm", 0.0, 0.0},
                             {"crash", 0.01, 0.0},
                             {"crash+degrade", 0.01, 0.01}};

    std::vector<runner::Trial> trials;
    for (const Level& level : levels) {
      // FILA rides the sweep with a node-ranking query (its setting); it was
      // the last algorithm ignoring OnTopologyChanged, so its rows double as
      // churn-eviction coverage.
      for (SnapshotAlgo algo :
           {SnapshotAlgo::kTag, SnapshotAlgo::kMint, SnapshotAlgo::kFila}) {
        runner::Trial t;
        t.spec.algorithm = AlgoName(algo);
        t.spec.seed = base.seed;
        t.spec.params = {{"churn", level.label}};
        ChurnRunConfig cfg = base;
        if (algo == SnapshotAlgo::kFila) cfg.spec = NodeTopKSpec(3);
        cfg.fopt.horizon = static_cast<sim::Epoch>(cfg.epochs);
        cfg.fopt.crash_prob = level.crash_prob;
        cfg.fopt.mean_downtime = 15;
        cfg.fopt.degrade_prob = level.degrade_prob;
        cfg.fopt.degrade_extra_loss = 0.3;
        cfg.fopt.degrade_duration = 10;
        t.run = [=]() -> runner::MetricList {
          ChurnRunStats st = RunChurn(algo, cfg);
          return {{"recall", PerEpoch(st.recall_sum, st.epochs_run)},
                  {"rank_distance", PerEpoch(st.rank_dist_sum, st.epochs_run)},
                  {"msgs_per_epoch", PerEpoch(st.total.messages, st.epochs_run)},
                  {"repair_events", static_cast<double>(st.repair_events)}};
        };
        trials.push_back(std::move(t));
      }
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

void RegisterRepairCost(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "repair_cost";
  s.id = "E15";
  s.title = "in-network tree repair cost vs crash rate (n=100, 16 rooms, MINT)";
  s.notes =
      "msgs_per_repair counts only the join handshakes of the repair itself;\n"
      "mint_rebuild_msgs_per_epoch is the protocol-level price MINT pays to re-create\n"
      "its views after each repair (the fault tax on suppression) — the initial\n"
      "churn-free creation wave is excluded.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    ChurnRunConfig base;
    base.epochs = opt.quick ? 30 : 120;
    base.seed = opt.seed != 0 ? opt.seed : 151;
    const std::vector<double> crash_probs =
        opt.quick ? std::vector<double>{0.01} : std::vector<double>{0.002, 0.01, 0.03};

    std::vector<runner::Trial> trials;
    for (double crash_prob : crash_probs) {
      runner::Trial t;
      t.spec.algorithm = "MINT";
      t.spec.seed = base.seed;
      t.spec.params = {{"crash_prob", util::FormatDouble(crash_prob, 3)}};
      ChurnRunConfig cfg = base;
      cfg.fopt.horizon = static_cast<sim::Epoch>(cfg.epochs);
      cfg.fopt.crash_prob = crash_prob;
      cfg.fopt.mean_downtime = 10;
      t.run = [=]() -> runner::MetricList {
        ChurnRunStats st = RunChurn(SnapshotAlgo::kMint, cfg);
        double per_repair = st.repair_events > 0
                                ? static_cast<double>(st.repair_msgs) /
                                      static_cast<double>(st.repair_events)
                                : 0.0;
        return {{"repair_events", static_cast<double>(st.repair_events)},
                {"repair_msgs", static_cast<double>(st.repair_msgs)},
                {"msgs_per_repair", per_repair},
                {"reattached_nodes", static_cast<double>(st.reattached)},
                {"mean_detached_fraction", PerEpoch(st.detached_fraction_sum, st.epochs_run)},
                {"mint_rebuild_msgs_per_epoch", PerEpoch(st.rebuild_msgs, st.epochs_run)},
                {"mint_incremental_repairs", static_cast<double>(st.mint_incremental_repairs)},
                {"mint_probe_repairs", static_cast<double>(st.mint_probe_repairs)},
                {"mint_full_rebuilds", static_cast<double>(st.mint_full_rebuilds)},
                {"msgs_per_epoch", PerEpoch(st.total.messages, st.epochs_run)}};
      };
      trials.push_back(std::move(t));
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
