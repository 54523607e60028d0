#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_report.hpp"
#include "core/result.hpp"
#include "core/select.hpp"
#include "core/tja.hpp"
#include "data/generators.hpp"
#include "fault/fault_plan.hpp"
#include "kspot/deployment.hpp"
#include "kspot/node_runtime.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"
#include "query/parser.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"

namespace kspot::system {

/// What one executed query produced: the per-epoch ranked answers (snapshot
/// queries), the tuple rows (ungrouped basic selects) or the one-shot
/// historic answer, plus cost accounting against the TAG baseline (what the
/// System Panel projects).
struct RunOutcome {
  query::QueryClass query_class = query::QueryClass::kBasicSelect;
  std::string algorithm;                     ///< "MINT", "TJA", "TAG", ...
  std::vector<core::TopKResult> per_epoch;   ///< Snapshot answers per epoch.
  std::vector<std::vector<core::SelectTuple>> rows_per_epoch;  ///< Ungrouped selects.
  core::HistoricResult historic;             ///< Historic answer (vertical).
  sim::TrafficCounters cost;                 ///< KSpot traffic for the run.
  sim::TrafficCounters baseline_cost;        ///< TAG traffic over the same data.
  SystemPanel panel;                         ///< Live savings counters.
};

/// The KSpot *server* (Section II): the base-station software. It hosts the
/// Query Panel backend — accepting declarative SQL text, parsing and
/// validating it, dispatching it to the right top-k operator (MINT for
/// snapshot queries, local filtering or TJA for historic ones, plain TAG
/// for basic selects) — and drives the deployed (simulated) network for a
/// requested number of epochs while maintaining the System Panel.
class KSpotServer {
 public:
  /// Execution knobs: the deployment-wide set shared with QueryCoordinator
  /// (see DeploymentConfig — epochs, seed, radio, battery, churn)
  /// plus the server's own baseline toggle. Churn applies to continuous
  /// snapshot/grouped queries only; historic one-shot queries run over
  /// already-buffered windows and ignore it.
  struct Options : DeploymentConfig {
    /// Run a shadow TAG baseline over identical data for the System Panel.
    bool run_baseline = true;
  };

  /// Builds the server (and client runtimes) for a scenario.
  KSpotServer(Scenario scenario, Options options);

  /// Executes one query end to end. Expected failures (syntax/semantic
  /// errors) are returned as Status.
  ///
  /// Execute never perturbs the deployment: every run derives its
  /// generator, network, trees and fault plan freshly from Options::seed, so
  /// two sequential calls with the same SQL are bit-identical — the
  /// precondition for QueryCoordinator reusing one server-side deployment
  /// across many queries (pinned by kspot_system_test).
  util::StatusOr<RunOutcome> Execute(const std::string& sql);

  /// Per-epoch callback for live display (Display Panel hooks in here).
  using EpochCallback = std::function<void(const core::TopKResult&, const SystemPanel&)>;
  /// Like Execute but invokes `cb` after every epoch of a continuous query.
  util::StatusOr<RunOutcome> ExecuteStreaming(const std::string& sql, const EpochCallback& cb);

  /// The scenario this server administers.
  const Scenario& scenario() const { return deployment_.scenario; }
  /// The routing tree built over the deployment.
  const sim::RoutingTree& tree() const { return deployment_.tree; }
  /// Per-node client runtimes.
  const std::vector<NodeRuntime>& clients() const { return deployment_.clients; }
  /// The long-lived deployment state (shared shape with QueryCoordinator).
  const Deployment& deployment() const { return deployment_; }

 private:
  Options options_;
  Deployment deployment_;

  std::unique_ptr<data::DataGenerator> MakeGenerator(uint64_t seed) const;
  sim::NetworkOptions NetOptions() const;

  // Every class delegates the KSpot side to a single-query coordinator
  // session over the shared deployment (one execution path); what stays
  // server-side is the TAG shadow baseline and the System Panel.
  util::StatusOr<RunOutcome> Dispatch(const std::string& sql, const query::ParsedQuery& parsed,
                                      const EpochCallback& cb);
  RunOutcome RunSnapshot(const std::string& sql, const query::ParsedQuery& parsed,
                         const EpochCallback& cb);
  RunOutcome RunBasicSelect(const std::string& sql, const query::ParsedQuery& parsed,
                            const EpochCallback& cb);
  RunOutcome RunHistoricVertical(const std::string& sql, const query::ParsedQuery& parsed);
  RunOutcome RunHistoricHorizontal(const std::string& sql, const query::ParsedQuery& parsed,
                                   const EpochCallback& cb);
};

}  // namespace kspot::system
