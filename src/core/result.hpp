#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "agg/group_view.hpp"
#include "sim/types.hpp"

namespace kspot::core {

/// The ranked answer of one epoch of a continuous top-k query.
struct TopKResult {
  /// Epoch the answer refers to.
  sim::Epoch epoch = 0;
  /// Ranked items, best first; at most K entries.
  std::vector<agg::RankedItem> items;
  /// Sensors whose readings reached the sink view this answer was ranked
  /// from. Under churn this is the surviving (alive and routable)
  /// population, so consumers can tell a quiet network from a shrunken one.
  uint32_t contributors = 0;
  /// contributors / the expected population (alive, attached sensors), in
  /// [0, 1]; a partial answer advertises itself. Stamped whether or not the
  /// reliability layer is on. TAG reads 1.0 when nothing was lost; MINT
  /// reads below 1 even then, because sensors its views pruned count as
  /// absent.
  double completeness = 1.0;
  /// True when an epoch deadline truncated a wave this epoch: the answer is
  /// structurally partial, not merely loss-thinned.
  bool degraded = false;

  /// Stamps completeness from the expected contributor population
  /// (Network::AliveAttachedSensors) and the epoch's degraded flag.
  /// `expected == 0` counts as complete (an empty network has nothing to
  /// miss); the ratio is clamped to 1 so stale caches can't overreport.
  void StampCompleteness(size_t expected_contributors, bool degraded_epoch) {
    completeness = expected_contributors == 0
                       ? 1.0
                       : std::min(1.0, static_cast<double>(contributors) /
                                           static_cast<double>(expected_contributors));
    degraded = degraded_epoch;
  }

  /// True when both results rank the same groups in the same order with
  /// values equal within `tol`.
  bool Matches(const TopKResult& other, double tol = 1e-9) const;

  /// Fraction of `truth`'s groups present in this result's groups (set
  /// recall; 1.0 when `truth` is empty). Order-insensitive.
  double RecallAgainst(const TopKResult& truth) const;

  /// Mean rank displacement against `truth`: for each of `truth`'s groups,
  /// the distance between its rank there and its rank here, counting a
  /// missing group as a displacement of |truth| (the worst case); averaged
  /// over `truth`'s size. 0 = identical ranking order; 0 when `truth` is
  /// empty.
  double RankDistanceFrom(const TopKResult& truth) const;

  /// Renders "1. group=3 value=75.00" lines for logs and examples.
  std::string ToString() const;
};

}  // namespace kspot::core
