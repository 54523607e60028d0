#pragma once

#include <functional>

#include "agg/group_view.hpp"
#include "core/query_spec.hpp"
#include "core/result.hpp"
#include "data/generators.hpp"
#include "sim/topology.hpp"

namespace kspot::core {

/// Exact centralized evaluator — the ground truth every distributed algorithm
/// is tested and benchmarked against. It reads the same generator the
/// algorithms read, so answers must match bit-for-bit (fixed-point
/// arithmetic) when the algorithm is exact.
class Oracle {
 public:
  /// `topology` and `gen` must outlive the oracle.
  Oracle(const sim::Topology* topology, data::DataGenerator* gen, QuerySpec spec);

  /// Predicate selecting the sensors a restricted ground truth aggregates
  /// over (e.g. the population that survived churn).
  using Contributes = std::function<bool(sim::NodeId)>;

  /// The complete aggregated view of `epoch` (all sensors, all groups).
  agg::GroupView FullView(sim::Epoch epoch) const;

  /// The aggregated view of `epoch` restricted to sensors where
  /// `contributes` is true — the ground truth a fault-tolerant algorithm is
  /// held to once nodes have died or detached.
  agg::GroupView FullViewOver(sim::Epoch epoch, const Contributes& contributes) const;

  /// The exact top-k answer of `epoch`.
  TopKResult TopK(sim::Epoch epoch) const;

  /// The exact top-k answer of `epoch` over the restricted population.
  TopKResult TopKOver(sim::Epoch epoch, const Contributes& contributes) const;

  /// Query spec in use.
  const QuerySpec& spec() const { return spec_; }

 private:
  /// Shared build loop of FullViewOver / TopKOver: appends the contributing
  /// sensors' readings of `epoch` into `view`.
  void FillViewOver(agg::GroupView& view, sim::Epoch epoch, const Contributes& contributes) const;

  const sim::Topology* topology_;
  data::DataGenerator* gen_;
  QuerySpec spec_;
  /// Scratch view reused by TopK/TopKOver across epochs (oracles are
  /// per-trial objects; methods are not thread-safe against each other).
  mutable agg::GroupView scratch_;
};

}  // namespace kspot::core
