#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/query_spec.hpp"
#include "data/generators.hpp"
#include "fault/fault_plan.hpp"
#include "kspot/scenario_config.hpp"
#include "query/ast.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"

namespace kspot::system {

/// The deployment-wide execution knobs every serving API shares — ONE struct
/// so a knob cannot reach one server but miss the other.
/// QueryCoordinator::Options is this struct and KSpotServer::Options derives
/// from it; KSpotServer::Execute runs a single-query coordinator session, so
/// these knobs reach the data plane through a single execution path.
struct DeploymentConfig {
  /// Epochs to drive continuous queries for.
  size_t epochs = 30;
  /// RNG seed (tree growth, data, losses, fault plan).
  uint64_t seed = 1;
  /// Per-frame loss probability.
  double loss_prob = 0.0;
  /// Link-layer retries: the flat ARQ loop's count, and the adaptive
  /// policy's cap when `reliability.enabled`.
  int max_retries = 0;
  /// Per-node battery budget, joules; <= 0 means unlimited. Shared: every
  /// query's traffic drains the same meters.
  double battery_j = 0.0;
  /// Fault & churn injection over the routing tree: a FaultPlan drawn from
  /// `churn` and the run's seed, one repair per epoch, every operator
  /// notified. `churn.horizon` 0 = the whole run. Every class a session steps
  /// churns; a one-shot vertical historic query ranks its window at bind
  /// time, before any churn epoch runs.
  bool enable_churn = false;
  fault::FaultPlanOptions churn;
  /// Data generator factory; defaults to the deployment's room-correlated
  /// walk.
  std::function<std::unique_ptr<data::DataGenerator>(const Scenario&, uint64_t seed)>
      make_generator;
  /// Observability (src/obs): turn on the process-global metrics registry /
  /// span tracer when this session opens. One-way — opening a session never
  /// forces them off (the KSPOT_OBS env var or another session may hold them
  /// up). Off by default; enabling changes no result bit
  /// (golden_equivalence_test pins bit-identical runs with both fully on).
  bool enable_metrics = false;
  bool enable_tracing = false;
  /// Reliability & graceful-degradation layer (adaptive retry/backoff, epoch
  /// deadlines, completeness accounting). Off by default and then bit-inert:
  /// disabled runs are byte-identical to a build without the layer.
  sim::ReliabilityOptions reliability;
};

/// One deployed sensor network as the base station administers it: the
/// scenario, the simulator topology built from it, and the routing tree
/// grown over the deployment.
///
/// This is the long-lived state every query server shares. KSpotServer owns
/// one and serves each query through a single-query QueryCoordinator over
/// it; a QueryCoordinator drives many concurrent queries over the same tree,
/// batteries and per-epoch data wave. The topology and tree here stay
/// pristine — runs that mutate the tree (churn) repair their own copies and
/// the deployment remains the per-run starting point.
struct Deployment {
  Scenario scenario;
  sim::Topology topology;
  sim::RoutingTree tree;

  /// Builds the deployment for `scenario`. The routing tree derives from
  /// `seed` exactly as the server always built it: the Figure-1 scenario
  /// pins the paper's tree, every other scenario grows the cluster-aware
  /// first-heard-from tree (rooms form contiguous subtrees and close low —
  /// what MINT's view hierarchy exploits).
  Deployment(Scenario scenario, uint64_t seed);

  /// The default data source: a room-correlated walk matching the
  /// scenario's modality, fully derived from `seed` (the shared per-epoch
  /// data wave — every operator reading the same generator instance at the
  /// same epoch sees the identical readings, and re-deriving with the same
  /// seed replays the identical wave).
  std::unique_ptr<data::DataGenerator> DefaultGenerator(uint64_t seed) const;
};

/// Maps a parsed snapshot/grouped query onto the algorithm-facing QuerySpec
/// under `scenario`'s modality. Basic GROUP-BY selects (no TOP clause)
/// report every group, modeled as K = all.
core::QuerySpec SpecFromQuery(const query::ParsedQuery& parsed, const Scenario& scenario);

// How a run derives its streams from DeploymentConfig::seed, in one place.
// A coordinator session's shared data plane and the System Panel's TAG
// shadow both use these, so the shadow reads the same data wave, draws its
// losses from an identically seeded RNG and suffers the same fault process.

/// The run's data source: `config.make_generator`, or the deployment's
/// default walk, seeded with `config.seed`.
std::unique_ptr<data::DataGenerator> SessionGenerator(const Deployment& deployment,
                                                      const DeploymentConfig& config);

/// A network over `tree` (a run's own copy when churn repairs it) with the
/// config's radio knobs and its loss RNG seeded `config.seed ^ 0x77`.
sim::Network SessionNetwork(const Deployment& deployment, const sim::RoutingTree* tree,
                            const DeploymentConfig& config);

/// The run's fault plan, drawn from `config.churn` and `config.seed ^ 0xFA11`.
/// A horizon of 0 (auto) or past `config.epochs` resolves to `config.epochs`:
/// later events could never fire.
fault::FaultPlan SessionFaultPlan(const Deployment& deployment, const DeploymentConfig& config);

}  // namespace kspot::system
