#include "kspot/deployment.hpp"

#include <utility>

#include "agg/aggregate.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace kspot::system {

Deployment::Deployment(Scenario scenario_in, uint64_t seed)
    : scenario(std::move(scenario_in)), topology(scenario.BuildTopology()) {
  util::Rng tree_rng(seed ^ 0xA5A5A5A5ULL);
  if (scenario.name == "figure1" && topology.num_nodes() == 10) {
    tree = sim::RoutingTree::FromParents(sim::MakeFigure1Parents());
  } else {
    tree = sim::RoutingTree::BuildClusterAware(topology, tree_rng);
  }
}

std::unique_ptr<data::DataGenerator> Deployment::DefaultGenerator(uint64_t seed) const {
  std::vector<sim::GroupId> rooms;
  rooms.reserve(topology.num_nodes());
  for (sim::NodeId id = 0; id < topology.num_nodes(); ++id) rooms.push_back(topology.room(id));
  const data::ModalityInfo& info = data::GetModalityInfo(scenario.modality);
  double span = info.max_value - info.min_value;
  // Rooms drift independently, a building-wide component correlates hot
  // time instances across nodes, and readings land on an integer ADC grid.
  return std::make_unique<data::RoomCorrelatedGenerator>(
      std::move(rooms), scenario.modality, /*room_sigma=*/span * 0.02,
      /*noise_sigma=*/span * 0.01, util::Rng(seed), /*global_sigma=*/span * 0.03,
      /*quantize_step=*/span * 0.01);
}

core::QuerySpec SpecFromQuery(const query::ParsedQuery& parsed, const Scenario& scenario) {
  core::QuerySpec spec;
  // Basic GROUP-BY selects (no TOP clause) report every group.
  spec.k = parsed.top_k > 0 ? parsed.top_k : 1'000'000;
  const query::SelectItem* agg_item = parsed.FirstAggregate();
  if (agg_item != nullptr) {
    agg::ParseAggKind(agg_item->aggregate, &spec.agg);
  }
  spec.grouping =
      parsed.group_by == "nodeid" ? core::Grouping::kNode : core::Grouping::kRoom;
  spec.SetDomainFrom(data::GetModalityInfo(scenario.modality));
  return spec;
}

std::unique_ptr<data::DataGenerator> SessionGenerator(const Deployment& deployment,
                                                      const DeploymentConfig& config) {
  if (config.make_generator) return config.make_generator(deployment.scenario, config.seed);
  return deployment.DefaultGenerator(config.seed);
}

sim::Network SessionNetwork(const Deployment& deployment, const sim::RoutingTree* tree,
                            const DeploymentConfig& config) {
  static const uint32_t kSpan = obs::GlobalTracer().InternName("sim.network_build");
  obs::ScopedSpan span(kSpan);
  sim::NetworkOptions opts;
  opts.loss_prob = config.loss_prob;
  opts.max_retries = config.max_retries;
  opts.battery_j = config.battery_j;
  opts.reliability = config.reliability;
  return sim::Network(&deployment.topology, tree, opts, util::Rng(config.seed ^ 0x77));
}

fault::FaultPlan SessionFaultPlan(const Deployment& deployment, const DeploymentConfig& config) {
  fault::FaultPlanOptions opts = config.churn;
  if (opts.horizon == 0 || opts.horizon > config.epochs) {
    opts.horizon = static_cast<sim::Epoch>(config.epochs);
  }
  return fault::FaultPlan::Generate(deployment.topology, opts, config.seed ^ 0xFA11);
}

}  // namespace kspot::system
