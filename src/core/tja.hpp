#pragma once

#include <string>
#include <utility>
#include <vector>

#include "agg/group_view.hpp"
#include "core/epoch_algorithm.hpp"
#include "core/history_source.hpp"
#include "sim/network.hpp"
#include "sim/waves.hpp"

namespace kspot::core {

/// Configuration of a historic (vertically fragmented) top-k query.
struct HistoricOptions {
  /// Number of ranked time instances requested.
  int k = 1;
  /// Aggregate across nodes per time instance. The distributed thresholds of
  /// TJA and TPUT bound sums, so kAvg/kSum (which rank identically) are the
  /// supported kinds — the query validator enforces this at the SQL level.
  /// TJA additionally degrades to exact full-window coverage for other
  /// kinds; TPUT's sink state is sum-based and cannot honor them.
  agg::AggKind agg = agg::AggKind::kAvg;
  /// Compress the Lsink dissemination with a Bloom filter (the optimization
  /// of the original TJA paper), sized for a 5% false-positive rate. False
  /// positives cost bytes, not correctness.
  bool use_bloom = false;
};

/// Result of a historic top-k run, with algorithm-visibility counters the
/// benchmarks report (|Lsink|, deepening rounds).
struct HistoricResult {
  std::vector<agg::RankedItem> items;  ///< Ranked time instances, best first.
  size_t lsink_size = 0;               ///< o = |Lsink| of the final round.
  int rounds = 1;                      ///< LB/HJ rounds (1 unless CL deepened).
};

/// TJA — the Threshold Join Algorithm (Zeinalipour-Yazti et al., DMSN'05),
/// KSpot's algorithm for historic queries over vertically fragmented data
/// (Section III-B). Three phases:
///
/// 1. **Lower Bound (LB)**: an in-network *union* of every node's local
///    top-k; intermediate nodes merge partial aggregates for shared keys, so
///    the sink receives Lsink = union of local top-k key sets together with
///    a hierarchically aggregated union threshold tau_U = agg_i(m_i), where
///    m_i is node i's k-th local value — every key outside Lsink is bounded
///    below tau_U.
/// 2. **Hierarchical Join (HJ)**: Lsink (optionally Bloom-compressed) is
///    disseminated down the tree and every node returns its exact
///    contributions for the candidate keys, merged hierarchically, so the
///    sink holds exact aggregates for all of Lsink.
/// 3. **Clean-Up (CL)**: the sink certifies the answer — the k-th exact
///    candidate must beat tau_U. When values tie too closely for the
///    certificate, the query restarts with deepened local lists (k' = 2k,
///    iterative deepening, capped at the window size, where the collection
///    is trivially complete). The returned answer is always exact.
class Tja {
 public:
  /// `net` and `history` must outlive the instance.
  Tja(sim::Network* net, const HistorySource* history, HistoricOptions options);

  /// Executes the query and returns the exact ranked time instances.
  HistoricResult Run();

  /// Short identifier for tables.
  std::string name() const { return options_.use_bloom ? "TJA+bloom" : "TJA"; }

 private:
  sim::Network* net_;
  const HistorySource* history_;
  HistoricOptions options_;
  /// Per wave lane (sim::UpWave): the keys its nodes shipped during the
  /// current round's LB phase, one ascending run per node, and scratch. The
  /// HJ phase only answers for the complement of a node's run (the sink
  /// merges both views). Each lane's scratch sits on cache lines of its own.
  struct alignas(64) LaneScratch {
    std::vector<sim::GroupId> lb_keys;
    std::vector<double> values;  ///< Selection scratch for the local bound.
    agg::GroupView own;          ///< A node's own entries, merged at once.
  };
  std::vector<LaneScratch> lanes_;
  /// Node i's LB keys: lanes_[lane].lb_keys[first, first + count).
  struct LbSpan {
    uint32_t lane = 0;
    uint32_t first = 0;
    uint32_t count = 0;
  };
  std::vector<LbSpan> lb_span_;

  struct LbOutcome {
    agg::GroupView union_view;  ///< Partial aggregates for Lsink keys.
    double tau_u = 0.0;         ///< Union threshold.
  };

  /// LB message: the union view (key -> partial aggregate, merged across the
  /// subtree) plus the subtree-aggregated union threshold.
  struct LbMsg {
    agg::GroupView view;
    int64_t m_sum_fx = 0;  ///< Sum of m_i over the subtree (for AVG/SUM).
  };

  /// Wave inboxes reused across Clean-Up deepening rounds.
  sim::UpWave<LbMsg>::Workspace lb_ws_;
  sim::UpWave<agg::GroupView>::Workspace hj_ws_;

  /// Phase 1 with local list depth `k_deep`.
  LbOutcome LowerBoundPhase(size_t k_deep);
  /// Phase 2: disseminate candidate keys, collect exact aggregates.
  agg::GroupView HierarchicalJoinPhase(const std::vector<sim::GroupId>& lsink);
};

}  // namespace kspot::core
