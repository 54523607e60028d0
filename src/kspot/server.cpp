#include "kspot/server.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "agg/aggregate.hpp"
#include "core/centralized.hpp"
#include "core/history_source.hpp"
#include "core/tag.hpp"
#include "data/windowed.hpp"
#include "fault/churn_engine.hpp"

namespace kspot::system {

namespace {

/// The System Panel's TAG baseline for a stepped query: TagTopK over the
/// session's data wave (per-node window aggregates for a horizontal query),
/// on its own tree copy and identically seeded network, under the session's
/// fault plan. Crashes and degradations are exogenous, so only battery
/// deaths may diverge with each side's traffic.
class TagShadow {
 public:
  TagShadow(const Deployment& deployment, const DeploymentConfig& config,
            const query::ParsedQuery& parsed, query::QueryClass query_class)
      : tree_(deployment.tree),
        net_(SessionNetwork(deployment, &tree_, config)),
        gen_(SessionGenerator(deployment, config)) {
    core::QuerySpec spec = SpecFromQuery(parsed, deployment.scenario);
    data::DataGenerator* source = gen_.get();
    if (query_class == query::QueryClass::kHistoricHorizontal) {
      window_ = std::make_unique<data::WindowAggregateGenerator>(
          gen_.get(), deployment.topology.num_nodes(), static_cast<size_t>(parsed.history),
          spec.agg);
      source = window_.get();
    }
    tag_ = std::make_unique<core::TagTopK>(&net_, source, spec);
    if (config.enable_churn) {
      churn_ = std::make_unique<fault::ChurnEngine>(&net_, &tree_,
                                                    SessionFaultPlan(deployment, config));
    }
  }
  // The network and operator point into this object's own members.
  TagShadow(const TagShadow&) = delete;
  TagShadow& operator=(const TagShadow&) = delete;

  /// Runs one epoch and returns its traffic.
  sim::TrafficCounters RunEpoch(sim::Epoch epoch) {
    sim::TrafficCounters before = net_.total();
    if (churn_) {
      fault::ChurnReport report = churn_->BeginEpoch(epoch);
      if (report.topology_changed) tag_->OnTopologyChanged(report.delta);
    }
    tag_->RunEpoch(epoch);
    return net_.total().Since(before);
  }

  const sim::TrafficCounters& total() const { return net_.total(); }

 private:
  sim::RoutingTree tree_;
  sim::Network net_;
  std::unique_ptr<data::DataGenerator> gen_;
  std::unique_ptr<data::WindowAggregateGenerator> window_;
  std::unique_ptr<core::TagTopK> tag_;
  std::unique_ptr<fault::ChurnEngine> churn_;
};

/// TAG-H over the window a vertical query ranked at bind time, shipped
/// whole on the pristine tree. Returns its traffic.
sim::TrafficCounters TagHistoricBaseline(const Deployment& deployment,
                                         const DeploymentConfig& config,
                                         const query::ParsedQuery& parsed) {
  auto gen = SessionGenerator(deployment, config);
  const size_t window = static_cast<size_t>(parsed.history);
  core::RingHistory source(data::DrawnRing(*gen, deployment.topology.num_nodes(), 0, window),
                           window);
  core::HistoricOptions opts;
  opts.k = std::max(1, parsed.top_k);
  const query::SelectItem* agg_item = parsed.FirstAggregate();
  if (agg_item != nullptr) agg::ParseAggKind(agg_item->aggregate, &opts.agg);
  sim::Network net = SessionNetwork(deployment, &deployment.tree, config);
  core::TagHistoric(&net, &source, opts).Run();
  return net.total();
}

}  // namespace

KSpotServer::KSpotServer(Scenario scenario, Options options)
    : options_(std::move(options)), deployment_(std::move(scenario), options_.seed) {}

util::StatusOr<RunOutcome> KSpotServer::Execute(const std::string& sql) {
  return ExecuteStreaming(sql, EpochCallback());
}

util::StatusOr<RunOutcome> KSpotServer::ExecuteStreaming(const std::string& sql,
                                                         const EpochCallback& cb) {
  QueryCoordinator coord(&deployment_, options_);
  util::StatusOr<QueryId> admitted = coord.Admit(sql);
  if (!admitted.ok()) return admitted.status();
  const query::ParsedQuery parsed = query::Parse(sql).value();
  const query::QueryClass query_class = query::Classify(parsed);
  // A vertical query ranks its window at Open and takes no steps. An
  // ungrouped select has no TAG shadow: its baseline is its own bill.
  const bool stepped = query_class != query::QueryClass::kHistoricVertical;
  const bool ungrouped_select = query_class == query::QueryClass::kBasicSelect &&
                                (parsed.FirstAggregate() == nullptr || parsed.group_by.empty());
  std::unique_ptr<TagShadow> shadow;
  if (options_.run_baseline && stepped && !ungrouped_select) {
    shadow = std::make_unique<TagShadow>(deployment_, options_, parsed, query_class);
  }

  RunOutcome outcome;
  (void)coord.Open();
  for (size_t e = 0; stepped && e < options_.epochs; ++e) {
    util::StatusOr<EpochUpdate> step = coord.StepEpoch();
    const EpochUpdate& update = step.value();
    outcome.panel.RecordKspotEpoch(update.epoch_cost);
    if (shadow) outcome.panel.RecordBaselineEpoch(shadow->RunEpoch(update.epoch));
    if (options_.enable_churn) {
      SystemPanel::NodeStatus status;
      status.total = deployment_.topology.num_nodes();
      status.up = update.alive;
      status.detached = update.detached;
      status.repair_events = update.repair_events;
      status.repair_messages = update.repair_messages;
      outcome.panel.RecordNodeStatus(status);
    }
    if (!cb) continue;
    if (update.groups[0].result) {
      cb(*update.groups[0].result, outcome.panel);
    } else {
      core::TopKResult placeholder;
      placeholder.epoch = update.epoch;
      cb(placeholder, outcome.panel);
    }
  }
  CoordinatorReport report = coord.Close().value();
  static_cast<QueryOutcome&>(outcome) = std::move(report.outcomes[0]);
  outcome.cost = report.total;
  if (ungrouped_select) outcome.baseline_cost = report.total;
  if (shadow) outcome.baseline_cost = shadow->total();
  if (!stepped) {
    outcome.panel.RecordKspotEpoch(outcome.cost);
    if (options_.run_baseline) {
      outcome.baseline_cost = TagHistoricBaseline(deployment_, options_, parsed);
      outcome.panel.RecordBaselineEpoch(outcome.baseline_cost);
    }
  }
  return outcome;
}

}  // namespace kspot::system
