#pragma once

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/epoch_algorithm.hpp"
#include "core/fila.hpp"
#include "core/history_source.hpp"
#include "core/mint.hpp"
#include "core/naive.hpp"
#include "core/oracle.hpp"
#include "core/tag.hpp"
#include "data/generators.hpp"
#include "runner/scenario.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace kspot::bench {

/// A ready-to-run simulated deployment for benchmarks (topology + routing
/// tree + network with counters).
struct Bed {
  sim::Topology topology;
  sim::RoutingTree tree;
  std::unique_ptr<sim::Network> net;

  /// Regular grid with rectangular rooms (deterministic placement).
  static Bed Grid(size_t nodes, size_t rooms, uint64_t seed, sim::NetworkOptions opt = {}) {
    Bed bed;
    sim::TopologyOptions topt;
    topt.num_nodes = nodes;
    topt.num_rooms = rooms;
    bed.topology = sim::MakeGrid(topt);
    util::Rng rng(seed);
    bed.tree = sim::RoutingTree::BuildClusterAware(bed.topology, rng);
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, opt,
                                             util::Rng(seed ^ 0xBEEF));
    return bed;
  }

  /// Clustered rooms (the conference deployment shape).
  static Bed Clustered(size_t nodes, size_t rooms, uint64_t seed, sim::NetworkOptions opt = {}) {
    Bed bed;
    sim::TopologyOptions topt;
    topt.num_nodes = nodes;
    topt.num_rooms = rooms;
    util::Rng topo_rng(seed);
    bed.topology = sim::MakeClusteredRooms(topt, topo_rng);
    util::Rng rng(seed ^ 0x5151);
    bed.tree = sim::RoutingTree::BuildClusterAware(bed.topology, rng);
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, opt,
                                             util::Rng(seed ^ 0xBEEF));
    return bed;
  }

  /// The exact Figure-1 deployment and routing tree.
  static Bed Figure1(sim::NetworkOptions opt = {}) {
    Bed bed;
    bed.topology = sim::MakeFigure1();
    bed.tree = sim::RoutingTree::FromParents(sim::MakeFigure1Parents());
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, opt, util::Rng(42));
    return bed;
  }

  /// The demo's default data: rooms with distinct drifting activity, integer
  /// ADC readings.
  std::unique_ptr<data::DataGenerator> RoomData(uint64_t seed, double room_sigma = 0.5,
                                                double noise_sigma = 0.5,
                                                double global_sigma = 0.0,
                                                double quantize_step = 1.0) const {
    std::vector<sim::GroupId> rooms;
    rooms.reserve(topology.num_nodes());
    for (sim::NodeId id = 0; id < topology.num_nodes(); ++id) {
      rooms.push_back(topology.room(id));
    }
    return std::make_unique<data::RoomCorrelatedGenerator>(
        std::move(rooms), data::Modality::kSound, room_sigma, noise_sigma, util::Rng(seed),
        global_sigma, quantize_step);
  }
};

/// Historic workload with *shared events*: a quiet building-wide baseline
/// with occasional pronounced activity bursts every node observes (plus
/// per-sensor noise). Hot time instances are shared across nodes — the
/// regime historic top-k queries target (a handful of loud minutes in
/// months of quiet). Returns the materialized per-node windows.
inline core::GeneratorHistory MakeEventHistory(const Bed& bed, size_t window, uint64_t seed,
                                               double event_prob = 0.06) {
  util::Rng rng(seed * 1315423911ULL + 17);
  size_t n = bed.topology.num_nodes();
  std::vector<std::vector<double>> matrix(window, std::vector<double>(n, 0.0));
  for (size_t t = 0; t < window; ++t) {
    double level = rng.NextBernoulli(event_prob) ? rng.NextDouble(70.0, 100.0)
                                                 : 20.0 + rng.NextGaussian(0.0, 3.0);
    for (size_t id = 1; id < n; ++id) {
      matrix[t][id] = std::round(level + rng.NextGaussian(0.0, 1.0));
    }
  }
  data::TraceGenerator gen(std::move(matrix), data::Modality::kSound);
  return core::GeneratorHistory(&gen, n, 0, window);
}

/// Per-epoch rate with the zero-epoch guard — the "x / epochs" every
/// experiment table formats. One shared copy; the per-bench locals that
/// used to duplicate this arithmetic are gone.
inline double PerEpoch(double amount, size_t epochs) {
  return epochs > 0 ? amount / static_cast<double>(epochs) : 0.0;
}
inline double PerEpoch(uint64_t amount, size_t epochs) {
  return PerEpoch(static_cast<double>(amount), epochs);
}

/// Steady-state rate: per epoch after the first (creation) epoch.
inline double SteadyPerEpoch(uint64_t amount, size_t epochs) {
  return epochs > 1 ? static_cast<double>(amount) / static_cast<double>(epochs - 1) : 0.0;
}

/// The msgs/bytes/energy columns every traffic table reports for counters
/// accumulated over `epochs`.
inline runner::MetricList TrafficPerEpochMetrics(const sim::TrafficCounters& total,
                                                 size_t epochs) {
  return {{"msgs_per_epoch", PerEpoch(total.messages, epochs)},
          {"bytes_per_epoch", PerEpoch(total.payload_bytes, epochs)},
          {"energy_mj_per_epoch", PerEpoch(1e3 * total.energy_j(), epochs)}};
}

/// Outcome of running a snapshot algorithm for a number of epochs.
struct SnapshotRun {
  sim::TrafficCounters total;      ///< Whole-run traffic.
  sim::TrafficCounters steady;     ///< Traffic excluding the first epoch.
  size_t epochs = 0;
  double mean_recall = 1.0;        ///< vs the oracle (1.0 when exact).

  double MsgsPerEpoch() const { return PerEpoch(total.messages, epochs); }
  double BytesPerEpoch() const { return PerEpoch(total.payload_bytes, epochs); }
  double SteadyMsgsPerEpoch() const { return SteadyPerEpoch(steady.messages, epochs); }
  double SteadyBytesPerEpoch() const { return SteadyPerEpoch(steady.payload_bytes, epochs); }
  double EnergyPerEpochMilliJ() const { return PerEpoch(1e3 * total.energy_j(), epochs); }
};

/// Runs `algo` for `epochs` epochs on `net`, comparing against `oracle`
/// (pass nullptr to skip recall accounting).
inline SnapshotRun RunSnapshot(core::EpochAlgorithm& algo, sim::Network& net,
                               const core::Oracle* oracle, size_t epochs) {
  SnapshotRun run;
  run.epochs = epochs;
  double recall_sum = 0.0;
  sim::TrafficCounters after_first;
  for (size_t e = 0; e < epochs; ++e) {
    core::TopKResult result = algo.RunEpoch(static_cast<sim::Epoch>(e));
    if (oracle != nullptr) {
      recall_sum += result.RecallAgainst(oracle->TopK(static_cast<sim::Epoch>(e)));
    }
    if (e == 0) after_first = net.total();
  }
  run.total = net.total();
  run.steady = net.total().Since(after_first);
  run.mean_recall = oracle != nullptr && epochs > 0
                        ? recall_sum / static_cast<double>(epochs)
                        : 1.0;
  return run;
}

/// Prints the standard experiment banner.
inline void Banner(const char* id, const char* title) {
  std::printf("\n=== %s: %s ===\n", id, title);
}

/// The continuous snapshot algorithms scenarios sweep over.
enum class SnapshotAlgo { kTag, kNaive, kMint, kFila };

/// Table/JSON label of an algorithm.
inline const char* AlgoName(SnapshotAlgo algo) {
  switch (algo) {
    case SnapshotAlgo::kTag: return "TAG";
    case SnapshotAlgo::kNaive: return "Naive";
    case SnapshotAlgo::kMint: return "MINT";
    case SnapshotAlgo::kFila: return "FILA";
  }
  return "?";
}

/// True when the algorithm can return inexact answers (so trials should
/// track recall against the oracle).
inline bool AlgoIsApproximate(SnapshotAlgo algo) {
  return algo == SnapshotAlgo::kNaive || algo == SnapshotAlgo::kFila;
}

/// Instantiates an algorithm on an existing bed/generator.
inline std::unique_ptr<core::EpochAlgorithm> MakeSnapshotAlgo(SnapshotAlgo algo,
                                                              sim::Network* net,
                                                              data::DataGenerator* gen,
                                                              const core::QuerySpec& spec) {
  switch (algo) {
    case SnapshotAlgo::kTag: return std::make_unique<core::TagTopK>(net, gen, spec);
    case SnapshotAlgo::kNaive: return std::make_unique<core::NaiveTopK>(net, gen, spec);
    case SnapshotAlgo::kMint: return std::make_unique<core::MintViews>(net, gen, spec);
    case SnapshotAlgo::kFila: return std::make_unique<core::Fila>(net, gen, spec);
  }
  return nullptr;
}

/// The common room-grouped AVG spec used across scenarios.
inline core::QuerySpec RoomAvgSpec(int k, double domain_max = 100.0) {
  core::QuerySpec spec;
  spec.k = k;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kRoom;
  spec.domain_max = domain_max;
  return spec;
}

/// The standard per-trial metric set of a snapshot run.
inline runner::MetricList SnapshotMetrics(const SnapshotRun& run) {
  runner::MetricList metrics = TrafficPerEpochMetrics(run.total, run.epochs);
  metrics.emplace_back("recall", run.mean_recall);
  return metrics;
}

}  // namespace kspot::bench
