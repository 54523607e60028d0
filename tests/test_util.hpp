#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/oracle.hpp"
#include "core/query_spec.hpp"
#include "data/generators.hpp"
#include "sim/neighbor_index.hpp"
#include "sim/network.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace kspot::testing {

/// Reference disc graph: the O(n^2) all-pairs scan with the library's
/// `Distance(a, b) <= comm_range` predicate, each list ascending. The
/// library answers the same question from sim::NeighborIndex.
inline std::vector<std::vector<sim::NodeId>> AllPairsAdjacency(const sim::Topology& topology) {
  size_t n = topology.num_nodes();
  std::vector<std::vector<sim::NodeId>> adj(n);
  for (sim::NodeId u = 0; u < n; ++u) {
    for (sim::NodeId v = 0; v < n; ++v) {
      if (u != v &&
          sim::Distance(topology.position(u), topology.position(v)) <= topology.comm_range()) {
        adj[u].push_back(v);
      }
    }
  }
  return adj;
}

/// The minimum-hop tree: plain BFS from the sink, beacons heard in node
/// order (lowest-id parent wins). Deterministic; draws nothing.
inline sim::RoutingTree MinHopTree(const sim::Topology& topology) {
  return sim::RoutingTree::FromParents(
      sim::GrowTree(sim::NeighborIndex(topology), sim::ParentRule::kFirstHeard, nullptr));
}

/// A ready-to-run simulated deployment: topology + tree + network, with the
/// lifetime plumbing tests shouldn't have to repeat.
struct TestBed {
  sim::Topology topology;
  sim::RoutingTree tree;
  std::unique_ptr<sim::Network> net;

  static TestBed Grid(size_t nodes, size_t rooms, uint64_t seed,
                      sim::NetworkOptions net_options = {}) {
    TestBed bed;
    sim::TopologyOptions topt;
    topt.num_nodes = nodes;
    topt.num_rooms = rooms;
    bed.topology = sim::MakeGrid(topt);
    util::Rng rng(seed);
    bed.tree = sim::RoutingTree::BuildFirstHeard(bed.topology, rng);
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, net_options,
                                             util::Rng(seed ^ 0xBEEF));
    return bed;
  }

  static TestBed Clustered(size_t nodes, size_t rooms, uint64_t seed,
                           sim::NetworkOptions net_options = {}) {
    TestBed bed;
    sim::TopologyOptions topt;
    topt.num_nodes = nodes;
    topt.num_rooms = rooms;
    util::Rng topo_rng(seed);
    bed.topology = sim::MakeClusteredRooms(topt, topo_rng);
    util::Rng rng(seed ^ 0x1234);
    // Clustered deployments use the cluster-aware tree the KSpot server
    // builds from the Configuration Panel's region assignments.
    bed.tree = sim::RoutingTree::BuildClusterAware(bed.topology, rng);
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, net_options,
                                             util::Rng(seed ^ 0xBEEF));
    return bed;
  }

  static TestBed Figure1(sim::NetworkOptions net_options = {}) {
    TestBed bed;
    bed.topology = sim::MakeFigure1();
    bed.tree = sim::RoutingTree::FromParents(sim::MakeFigure1Parents());
    bed.net = std::make_unique<sim::Network>(&bed.topology, &bed.tree, net_options,
                                             util::Rng(42));
    return bed;
  }
};

/// FNV-1a over everything a network's charges leave behind: the totals and
/// per-phase counters, every node's energy bits and send count, the clock
/// and the current phase. Two networks with equal digests were charged
/// alike, bit for bit.
inline uint64_t ChargeDigest(const sim::Network& net) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_double = [&mix](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  auto mix_counters = [&](const sim::TrafficCounters& c) {
    for (uint64_t v : {c.messages, c.frames, c.payload_bytes, c.onair_bytes, c.retries,
                       c.backoff_us}) {
      mix(v);
    }
    mix_double(c.tx_energy_j);
    mix_double(c.rx_energy_j);
  };
  mix_counters(net.total());
  for (const auto& [phase, counters] : net.by_phase()) {
    for (char c : phase) mix(static_cast<uint64_t>(c));
    mix_counters(counters);
  }
  for (sim::NodeId id = 0; id < net.topology().num_nodes(); ++id) {
    mix_double(net.meter(id).tx_joules());
    mix_double(net.meter(id).rx_joules());
    mix(net.MessagesSentBy(id));
  }
  mix(net.events().now());
  mix(net.phase_id());
  return h;
}

}  // namespace kspot::testing
