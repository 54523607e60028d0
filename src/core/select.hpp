#pragma once

#include <vector>

#include "core/epoch_algorithm.hpp"
#include "query/ast.hpp"
#include "sim/waves.hpp"

namespace kspot::core {

/// One collected tuple of a basic (non-TOP-K) SELECT.
struct SelectTuple {
  sim::NodeId node = 0;
  sim::GroupId room = 0;
  double value = 0.0;
};

/// TinyDB's bread-and-butter acquisitional SELECT — the path the KSpot
/// client's query router sends non-TOP-K queries down (Section II: "basic
/// SELECT and GROUP-BY queries [go] to the existing local query processing
/// engine"). Two forms:
///
///  * tuple collection (no GROUP BY): every epoch each node evaluates the
///    optional WHERE predicate *at the source* (acquisitional filtering) and
///    relays matching (node, room, value) tuples to the sink;
///  * grouped aggregation (GROUP BY without TOP): classic TAG — all groups'
///    aggregates reach the sink (TagTopK::CollectFullView serves this).
class BasicSelect {
 public:
  /// `net` and `gen` must outlive the instance. The predicate is applied at
  /// the source when `has_predicate`.
  BasicSelect(sim::Network* net, data::DataGenerator* gen, bool has_predicate,
              query::Predicate predicate);

  /// Collects one epoch's matching tuples at the sink (ascending node id).
  std::vector<SelectTuple> RunEpoch(sim::Epoch epoch);

  /// Wire size of one relayed tuple (node u16 + room u16 + value i32).
  static constexpr size_t kTupleBytes = 8;

 private:
  sim::Network* net_;
  data::DataGenerator* gen_;
  bool has_predicate_;
  query::Predicate predicate_;
  /// Per-node inboxes, reused across epochs.
  sim::UpWave<std::vector<SelectTuple>>::Workspace wave_ws_;
};

/// Evaluates a WHERE predicate against a reading.
bool EvalPredicate(const query::Predicate& predicate, double value);

}  // namespace kspot::core
