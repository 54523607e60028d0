#pragma once

#include <functional>
#include <string>

#include "core/result.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/deployment.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"

namespace kspot::system {

/// What one executed query produced — its coordinator outcome (answers,
/// algorithm, class) — plus what the System Panel projects: the session's
/// whole radio bill against the TAG baseline over the same data.
struct RunOutcome : QueryOutcome {
  sim::TrafficCounters cost;           ///< KSpot traffic for the run.
  sim::TrafficCounters baseline_cost;  ///< TAG traffic over the same data.
  SystemPanel panel;                   ///< Live savings counters.
};

/// The KSpot *server* (Section II): the base-station software behind the
/// Query Panel and the System Panel. It admits one declarative query at a
/// time into a single-query QueryCoordinator session over its deployment
/// (which parses, validates and runs the right top-k operator) and shadows
/// it with the TAG baseline the System Panel reports savings against.
class KSpotServer {
 public:
  /// Execution knobs: the deployment-wide set shared with QueryCoordinator
  /// (see DeploymentConfig — epochs, seed, radio, battery, churn)
  /// plus the server's own baseline toggle.
  struct Options : DeploymentConfig {
    /// Run a shadow TAG baseline over identical data for the System Panel.
    bool run_baseline = true;
  };

  /// Builds the server and its deployment for a scenario.
  KSpotServer(Scenario scenario, Options options);

  /// Executes one query end to end. Expected failures (syntax/semantic
  /// errors) are returned as Status.
  ///
  /// Execute never perturbs the deployment: every run derives its
  /// generator, network, trees and fault plan freshly from Options::seed, so
  /// two sequential calls with the same SQL are bit-identical, and each
  /// equals the same query admitted alone into a QueryCoordinator with these
  /// options (pinned by coordinator_test).
  util::StatusOr<RunOutcome> Execute(const std::string& sql);

  /// Per-epoch callback for live display (Display Panel hooks in here).
  using EpochCallback = std::function<void(const core::TopKResult&, const SystemPanel&)>;
  /// Like Execute but invokes `cb` after every epoch of a continuous query.
  util::StatusOr<RunOutcome> ExecuteStreaming(const std::string& sql, const EpochCallback& cb);

  /// The scenario this server administers.
  const Scenario& scenario() const { return deployment_.scenario; }
  /// The routing tree built over the deployment.
  const sim::RoutingTree& tree() const { return deployment_.tree; }
  /// The long-lived deployment state (shared shape with QueryCoordinator).
  const Deployment& deployment() const { return deployment_; }

 private:
  Options options_;
  Deployment deployment_;
};

}  // namespace kspot::system
