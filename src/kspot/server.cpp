#include "kspot/server.hpp"

#include <algorithm>
#include <utility>

#include "agg/aggregate.hpp"
#include "core/centralized.hpp"
#include "core/history_source.hpp"
#include "core/mint.hpp"
#include "core/tag.hpp"
#include "data/windowed.hpp"
#include "fault/churn_engine.hpp"
#include "kspot/coordinator.hpp"

namespace kspot::system {

namespace {

// Per-class network-RNG salts, preserved verbatim from the pre-session
// server: Execute now delegates to a coordinator session, and passing the
// historical salt per class keeps every realized loss, battery death and
// fault sequence bit-identical to what the monolithic per-class runners
// produced (pinned by kspot_system_test's repeatability tests).
constexpr uint64_t kSelectSalt = 0x33;
constexpr uint64_t kSnapshotSalt = 0x77;
constexpr uint64_t kVerticalSalt = 0x99;
constexpr uint64_t kHorizontalSalt = 0x55;

/// Coordinator options for one delegated query: the server's shared
/// deployment knobs, the class's historical salt, and churn only for the
/// classes the server ever churned (continuous snapshot/grouped queries).
QueryCoordinator::Options DelegatedOptions(const KSpotServer::Options& options,
                                           uint64_t net_salt, bool churn_applies) {
  QueryCoordinator::Options delegated;
  static_cast<DeploymentConfig&>(delegated) = options;
  delegated.net_salt = net_salt;
  if (!churn_applies) delegated.enable_churn = false;
  return delegated;
}

}  // namespace

KSpotServer::KSpotServer(Scenario scenario, Options options)
    : options_(std::move(options)), deployment_(std::move(scenario), options_.seed) {}

std::unique_ptr<data::DataGenerator> KSpotServer::MakeGenerator(uint64_t seed) const {
  if (options_.make_generator) return options_.make_generator(deployment_.scenario, seed);
  return deployment_.DefaultGenerator(seed);
}

sim::NetworkOptions KSpotServer::NetOptions() const { return RadioOptionsFrom(options_); }

util::StatusOr<RunOutcome> KSpotServer::Execute(const std::string& sql) {
  return ExecuteStreaming(sql, EpochCallback());
}

util::StatusOr<RunOutcome> KSpotServer::ExecuteStreaming(const std::string& sql,
                                                         const EpochCallback& cb) {
  util::StatusOr<query::ParsedQuery> parsed = query::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  util::Status valid = query::Validate(parsed.value());
  if (!valid.ok()) return valid;
  return Dispatch(sql, parsed.value(), cb);
}

util::StatusOr<RunOutcome> KSpotServer::Dispatch(const std::string& sql,
                                                 const query::ParsedQuery& parsed,
                                                 const EpochCallback& cb) {
  switch (query::Classify(parsed)) {
    case query::QueryClass::kBasicSelect:
      return RunBasicSelect(sql, parsed, cb);
    case query::QueryClass::kSnapshotTopK:
      return RunSnapshot(sql, parsed, cb);
    case query::QueryClass::kHistoricVertical:
      return RunHistoricVertical(sql, parsed);
    case query::QueryClass::kHistoricHorizontal:
      return RunHistoricHorizontal(sql, parsed, cb);
  }
  return util::Status::Error("unroutable query");
}

RunOutcome KSpotServer::RunBasicSelect(const std::string& sql, const query::ParsedQuery& parsed,
                                       const EpochCallback& cb) {
  // GROUP BY without TOP: classic TAG reporting every group's aggregate —
  // handled by the snapshot path with K = all groups (the coordinator plans
  // it onto TAG). Ungrouped: tuple collection with source-side WHERE
  // filtering, driven by a session of its own.
  if (parsed.FirstAggregate() != nullptr && !parsed.group_by.empty()) {
    return RunSnapshot(sql, parsed, cb);
  }
  RunOutcome outcome;
  outcome.query_class = query::QueryClass::kBasicSelect;

  QueryCoordinator coord(&deployment_,
                         DelegatedOptions(options_, kSelectSalt, /*churn_applies=*/false));
  (void)coord.Admit(sql);
  (void)coord.Open();
  for (size_t e = 0; e < options_.epochs; ++e) {
    util::StatusOr<EpochUpdate> step = coord.StepEpoch();
    outcome.panel.RecordKspotEpoch(step.value().epoch_cost);
    if (cb) {
      core::TopKResult placeholder;
      placeholder.epoch = static_cast<sim::Epoch>(e);
      cb(placeholder, outcome.panel);
    }
  }
  util::StatusOr<CoordinatorReport> report = coord.Close();
  outcome.algorithm = report.value().outcomes[0].algorithm;
  outcome.rows_per_epoch = std::move(report.value().outcomes[0].rows_per_epoch);
  outcome.cost = report.value().total;
  outcome.baseline_cost = report.value().total;
  return outcome;
}

RunOutcome KSpotServer::RunSnapshot(const std::string& sql, const query::ParsedQuery& parsed,
                                    const EpochCallback& cb) {
  RunOutcome outcome;
  outcome.query_class = query::Classify(parsed);
  core::QuerySpec spec = SpecFromQuery(parsed, deployment_.scenario);

  // The KSpot side is one single-query session over the shared deployment.
  QueryCoordinator coord(&deployment_,
                         DelegatedOptions(options_, kSnapshotSalt, /*churn_applies=*/true));
  (void)coord.Admit(sql);
  (void)coord.Open();

  // The TAG shadow baseline stays server-side: identically seeded network
  // and generator, its own tree copy to repair, and the same FaultPlan —
  // crashes and degradations are exogenous, only battery deaths may diverge
  // with each run's traffic.
  sim::RoutingTree baseline_tree = deployment_.tree;
  auto baseline_gen = MakeGenerator(options_.seed);
  sim::Network baseline_net(&deployment_.topology, &baseline_tree, NetOptions(),
                            util::Rng(options_.seed ^ kSnapshotSalt));
  core::TagTopK baseline(&baseline_net, baseline_gen.get(), spec);
  std::unique_ptr<fault::ChurnEngine> baseline_churn;
  if (options_.enable_churn && options_.run_baseline) {
    fault::FaultPlanOptions churn_opt = options_.churn;
    // horizon 0 = auto: the plan covers the whole run. An explicit horizon
    // is honored (clamped to the run length — later events could never
    // fire anyway).
    if (churn_opt.horizon == 0 || churn_opt.horizon > options_.epochs) {
      churn_opt.horizon = static_cast<sim::Epoch>(options_.epochs);
    }
    fault::FaultPlan plan =
        fault::FaultPlan::Generate(deployment_.topology, churn_opt, options_.seed ^ 0xFA11);
    baseline_churn =
        std::make_unique<fault::ChurnEngine>(&baseline_net, &baseline_tree, std::move(plan));
  }

  sim::TrafficCounters baseline_last{};
  for (size_t e = 0; e < options_.epochs; ++e) {
    auto epoch = static_cast<sim::Epoch>(e);
    util::StatusOr<EpochUpdate> step = coord.StepEpoch();
    const EpochUpdate& update = step.value();
    outcome.panel.RecordKspotEpoch(update.epoch_cost);
    if (options_.run_baseline) {
      if (baseline_churn) {
        fault::ChurnReport report = baseline_churn->BeginEpoch(epoch);
        if (report.topology_changed) baseline.OnTopologyChanged(report.delta);
      }
      baseline.RunEpoch(epoch);
      outcome.panel.RecordBaselineEpoch(baseline_net.total().Since(baseline_last));
      baseline_last = baseline_net.total();
    }
    if (options_.enable_churn) {
      SystemPanel::NodeStatus status;
      status.total = deployment_.topology.num_nodes();
      status.up = update.alive;
      status.detached = update.detached;
      status.repair_events = update.repair_events;
      status.repair_messages = update.repair_messages;
      outcome.panel.RecordNodeStatus(status);
    }
    if (cb) cb(*update.groups[0].result, outcome.panel);
  }
  util::StatusOr<CoordinatorReport> report = coord.Close();
  outcome.algorithm = report.value().outcomes[0].algorithm;
  outcome.per_epoch = std::move(report.value().outcomes[0].per_epoch);
  outcome.cost = report.value().total;
  outcome.baseline_cost = baseline_net.total();
  return outcome;
}

RunOutcome KSpotServer::RunHistoricVertical(const std::string& sql,
                                            const query::ParsedQuery& parsed) {
  RunOutcome outcome;
  outcome.query_class = query::QueryClass::kHistoricVertical;
  size_t window =
      parsed.history > 0 ? static_cast<size_t>(parsed.history) : Deployment::kDefaultWindow;

  // The session runs the one-shot TJA at bind time (local window buffering
  // costs no radio traffic), so Open + Close with no epoch steps is the
  // whole query.
  QueryCoordinator coord(&deployment_,
                         DelegatedOptions(options_, kVerticalSalt, /*churn_applies=*/false));
  (void)coord.Admit(sql);
  (void)coord.Open();
  util::StatusOr<CoordinatorReport> report = coord.Close();
  outcome.historic = std::move(report.value().outcomes[0].historic);
  outcome.algorithm = report.value().outcomes[0].algorithm;
  outcome.cost = report.value().total;
  outcome.panel.RecordKspotEpoch(outcome.cost);

  if (options_.run_baseline) {
    // Centralized baseline over the identical window the session ranked
    // (same seed, same wave), shipped whole.
    auto gen = MakeGenerator(options_.seed);
    core::GeneratorHistory source(gen.get(), deployment_.topology.num_nodes(), 0, window);
    core::HistoricOptions opts;
    opts.k = std::max(1, parsed.top_k);
    const query::SelectItem* agg_item = parsed.FirstAggregate();
    if (agg_item != nullptr) agg::ParseAggKind(agg_item->aggregate, &opts.agg);
    sim::Network cnet(&deployment_.topology, &deployment_.tree, NetOptions(),
                      util::Rng(options_.seed ^ kVerticalSalt));
    core::TagHistoric baseline(&cnet, &source, opts);
    baseline.Run();
    outcome.baseline_cost = cnet.total();
    outcome.panel.RecordBaselineEpoch(cnet.total());
  }
  return outcome;
}

RunOutcome KSpotServer::RunHistoricHorizontal(const std::string& sql,
                                              const query::ParsedQuery& parsed,
                                              const EpochCallback& cb) {
  RunOutcome outcome;
  outcome.query_class = query::QueryClass::kHistoricHorizontal;
  core::QuerySpec spec = SpecFromQuery(parsed, deployment_.scenario);
  size_t window =
      parsed.history > 0 ? static_cast<size_t>(parsed.history) : Deployment::kDefaultWindow;

  // Local search and filtering (Section III-B, horizontal case): every node
  // reduces its window to one aggregate locally; MINT then prunes the
  // aggregated values in-network, epoch by epoch as the window slides. The
  // session drives that; the TAG-over-windows baseline stays server-side.
  QueryCoordinator coord(&deployment_,
                         DelegatedOptions(options_, kHorizontalSalt, /*churn_applies=*/false));
  (void)coord.Admit(sql);
  (void)coord.Open();

  auto baseline_inner = MakeGenerator(options_.seed);
  data::WindowAggregateGenerator baseline_gen(baseline_inner.get(),
                                              deployment_.topology.num_nodes(), window, spec.agg);
  sim::Network baseline_net(&deployment_.topology, &deployment_.tree, NetOptions(),
                            util::Rng(options_.seed ^ kHorizontalSalt));
  core::TagTopK baseline(&baseline_net, &baseline_gen, spec);

  sim::TrafficCounters baseline_last{};
  for (size_t e = 0; e < options_.epochs; ++e) {
    auto epoch = static_cast<sim::Epoch>(e);
    util::StatusOr<EpochUpdate> step = coord.StepEpoch();
    const EpochUpdate& update = step.value();
    outcome.panel.RecordKspotEpoch(update.epoch_cost);
    if (options_.run_baseline) {
      baseline.RunEpoch(epoch);
      outcome.panel.RecordBaselineEpoch(baseline_net.total().Since(baseline_last));
      baseline_last = baseline_net.total();
    }
    if (cb) cb(*update.groups[0].result, outcome.panel);
  }
  util::StatusOr<CoordinatorReport> report = coord.Close();
  outcome.algorithm = report.value().outcomes[0].algorithm;
  outcome.per_epoch = std::move(report.value().outcomes[0].per_epoch);
  outcome.cost = report.value().total;
  outcome.baseline_cost = baseline_net.total();
  return outcome;
}

}  // namespace kspot::system
