#pragma once

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/epoch_algorithm.hpp"
#include "sim/waves.hpp"

namespace kspot::core {

/// MINT Views (Zeinalipour-Yazti et al., MDM'07) — the snapshot top-k
/// algorithm KSpot routes `SELECT TOP K ... GROUP BY ...` queries to
/// (Section III-A). The implementation follows the paper's three phases;
/// where the demo paper only sketches the pruning framework, the
/// reconstruction below is provably exact under lossless links (DESIGN.md
/// section 3; enforced by the property tests):
///
/// 1. **Creation phase** (first epoch): a full TAG converge-cast builds the
///    distributed view hierarchy — every node's parent caches V'_i, so
///    ancestors hold a superset view of their descendants. Each node
///    records, per group, how many sensors of the group live in its subtree
///    (c_g); the sink learns the global cardinalities (n_g) and disseminates
///    them together with the initial pruning threshold tau (the k-th ranked
///    value minus a hysteresis margin).
/// 2. **Pruning phase** (every epoch, at every node): the gamma descriptors
///    [lb, ub] bound each group's final aggregate from the subtree partial,
///    the group cardinality and the modality's bounded domain. A group whose
///    upper bound is below tau cannot enter the top-k and is pruned from
///    V'_i; a group whose partial arrived incomplete was pruned below (and
///    is therefore provably outside the top-k), so it is dropped too.
/// 3. **Update phase** (every epoch): each node *updates its parent with
///    V'_i* — literally: it transmits only the entries of V'_i that changed
///    since its last report (plus tombstones for pruned groups), and stays
///    silent when nothing changed. Parents maintain their children's views
///    from these deltas. The sink re-ranks its materialized view V_0; if
///    fewer than K complete candidates clear tau (values drifted down), it
///    triggers a **probe/repair round** — a full collection that restores
///    exactness, rebuilds the caches and reseeds tau. tau itself is
///    re-disseminated only when it moved materially (always when it
///    decreased, which is what stale thresholds cannot tolerate).
///
/// Under message loss the algorithm degrades to best-effort (view caches can
/// go stale) and the benchmarks report recall instead of exactness.
///
/// **Churn response.** After tree membership changes the view hierarchy is
/// repaired *incrementally* (when Options::incremental_repair, the default):
/// only the caches of nodes that left or re-attached are evicted, the
/// cardinality bookkeeping is re-derived over the survivors (charged as
/// retraction / subtree-report control messages along the affected paths),
/// the current tau is installed throughout each re-attached subtree, and the
/// next ordinary update wave re-fills the invalidated caches through the
/// delta mechanism. The pre-existing behaviour — drop everything and re-run
/// the O(n) creation phase — remains as the fallback for massive churn and
/// as the ablation baseline.
class MintViews : public EpochAlgorithm {
 public:
  /// Ablation switches (benchmark E12).
  struct Options {
    /// Drop groups whose partial arrives incomplete at an inner node
    /// (forwarding them is provably useless). Off = only the sink filters.
    bool closure_pruning = true;
    /// Threshold (tau / gamma-descriptor) pruning.
    /// Off = the view hierarchy still suppresses unchanged entries, but
    /// every group's updates always flow.
    bool gamma_suppression = true;
    /// Delta-encode updates against the parent's cached view (the
    /// materialized-view maintenance of the Update Phase). Off = resend the
    /// full pruned view every epoch.
    bool delta_updates = true;
    /// Repair the view hierarchy incrementally after churn (evict only the
    /// affected subtrees) instead of re-running the full creation phase.
    bool incremental_repair = true;
    /// Hysteresis subtracted from the k-th value before broadcasting tau,
    /// as a fraction of the value domain; larger = fewer tau rebroadcasts
    /// and repairs, weaker pruning.
    double tau_margin_fraction = 0.02;
  };

  MintViews(sim::Network* net, data::DataGenerator* gen, QuerySpec spec, Options options);
  MintViews(sim::Network* net, data::DataGenerator* gen, QuerySpec spec);

  std::string name() const override { return "MINT"; }
  TopKResult RunEpoch(sim::Epoch epoch) override;

  /// Full stale-view eviction after churn (the conservative fallback):
  /// every cached child view, delta baseline, subtree cardinality and
  /// installed threshold may reference nodes that left (or re-entered) the
  /// tree, and the global group cardinalities n_g change with the
  /// population. Everything is dropped and the next epoch re-runs the
  /// creation phase over the surviving topology, re-counting n_g so
  /// completeness checks and gamma bounds hold on the survivors.
  void OnTopologyChanged() override;

  /// Incremental churn repair (see the class comment). Falls back to the
  /// full eviction when incremental repair is disabled or the change set
  /// covers most of the tree.
  void OnTopologyChanged(const sim::TopologyDelta& delta) override;

  /// Number of probe/repair rounds triggered so far (cost visibility).
  int repair_count() const { return repair_count_; }
  /// Number of churn-forced *full* view rebuilds (creation re-runs).
  int churn_rebuild_count() const { return churn_rebuild_count_; }
  /// Number of churn events absorbed by incremental repair (no full rebuild).
  int incremental_repair_count() const { return incremental_repair_count_; }
  /// Number of tau beacons broadcast so far.
  int beacon_count() const { return beacon_count_; }
  /// Current pruning threshold in force at the nodes; meaningful once
  /// tau_valid().
  double tau() const { return pruning_tau_; }
  /// True once a usable pruning threshold has been disseminated.
  bool tau_valid() const { return pruning_tau_valid_; }
  /// True after the creation phase ran.
  bool created() const { return created_; }

 private:
  /// One delta update: entries that changed plus groups that disappeared.
  struct Delta {
    sim::NodeId from = sim::kNoNode;
    std::vector<std::pair<sim::GroupId, agg::PartialAgg>> changed;
    std::vector<sim::GroupId> removed;
  };

  Options options_;
  bool created_ = false;
  int repair_count_ = 0;
  int beacon_count_ = 0;
  int churn_rebuild_count_ = 0;
  int incremental_repair_count_ = 0;
  size_t total_groups_ = 0;

  /// Global group cardinalities n_g (disseminated in the creation phase).
  std::unordered_map<sim::GroupId, uint32_t> total_count_;
  /// Per node: subtree cardinalities c_g (recorded during full waves).
  std::vector<std::unordered_map<sim::GroupId, uint32_t>> subtree_count_;
  /// Per node: the threshold currently installed (beacons can be lost).
  std::vector<double> tau_at_;
  std::vector<uint8_t> tau_valid_at_;
  /// Beacon generation counter and, per node, the generation it last heard —
  /// how the incremental churn repair tells a re-attached node whose tau is
  /// still current (detached and re-joined between two beacons: install is
  /// free, the version rides the join handshake) from one that missed
  /// beacons while away (a real install message is charged).
  uint32_t tau_version_ = 0;
  std::vector<uint32_t> tau_version_at_;
  /// Per node: the V'_i its parent currently caches (what was last sent).
  std::vector<agg::GroupView> last_sent_;
  /// Per node: cached views of its children, maintained from deltas.
  std::vector<agg::GroupView> child_view_;

  /// Reusable wave state (inboxes, the update wave's scratch view) —
  /// allocated once, reused every epoch.
  sim::UpWave<agg::GroupView>::Workspace full_wave_ws_;
  sim::UpWave<Delta>::Workspace update_wave_ws_;
  agg::GroupView update_scratch_;
  agg::GroupView sink_view_;

  /// Threshold in force at the nodes (last broadcast), with margin applied.
  double pruning_tau_ = 0.0;
  bool pruning_tau_valid_ = false;
  /// Exponential moving average of |delta k-th| per epoch: when the whole
  /// field drifts (e.g. building-wide activity swings), the margin widens so
  /// tau does not have to chase the k-th value with beacons and repairs.
  double kth_drift_ema_ = 0.0;
  double last_kth_ = 0.0;
  bool have_last_kth_ = false;

  /// Epoch-0 creation: full wave + cardinality/threshold dissemination.
  TopKResult RunCreation(sim::Epoch epoch);
  /// Full collection used by creation and probe/repair rounds; re-records
  /// subtree cardinalities and resets the view caches.
  agg::GroupView FullWaveRebuildingState(sim::Epoch epoch, sim::PhaseId phase);
  /// Disseminates tau (and optionally the n_g table) down the tree.
  void DisseminateState(bool include_cardinalities, sim::PhaseId phase);
  /// Decides whether tau must be re-broadcast given the new k-th value.
  void MaybeRebroadcastTau(double kth_value, bool have_kth);
  /// The per-epoch update phase; returns the sink's materialized view
  /// (a reference into reused per-instance storage, valid until the next
  /// wave).
  agg::GroupView& RunUpdateWave(sim::Epoch epoch);
  /// Evaluates the sink view; on under-run triggers repair. Fills `result`.
  TopKResult EvaluateAtSink(sim::Epoch epoch, const agg::GroupView& sink_view);
  /// Re-derives n_g and every node's subtree cardinalities from the current
  /// tree and the surviving population (incremental churn repair).
  void RecountCardinalities();

  /// n_g lookup (1 under node grouping).
  uint32_t TotalCount(sim::GroupId g) const;
  /// Upper bound on group g's final value given a subtree partial.
  double UpperBound(sim::GroupId g, const agg::PartialAgg& partial, uint32_t subtree_c) const;
  /// Applies pruning rules to a node's merged view in place.
  void PruneView(sim::NodeId node, agg::GroupView& view) const;
  /// Margin subtracted from the k-th value when seeding tau: the configured
  /// base margin widened by the observed epoch-to-epoch drift of the k-th
  /// value (adaptive hysteresis).
  double TauMargin() const {
    double base = options_.tau_margin_fraction * (spec_.domain_max - spec_.domain_min);
    return std::max(base, 4.0 * kth_drift_ema_);
  }
};

}  // namespace kspot::core
