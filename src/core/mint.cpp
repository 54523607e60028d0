#include "core/mint.hpp"

#include <algorithm>
#include <cmath>

#include "util/fixed_point.hpp"

namespace kspot::core {

namespace {

/// Comparison slack for threshold tests. Pruning must only ever drop groups
/// that are *surely* below tau, so drops require ub < tau - kTauEps.
constexpr double kTauEps = 1e-6;

/// Beacon payload: header + tau as fixed-point i64 + validity flag.
constexpr size_t kBeaconBytes = kMsgHeaderBytes + 8 + 1;

/// One hop of the post-churn cardinality-delta converge-cast: header +
/// subtree-root id + one (group, cardinality-delta) entry.
constexpr size_t kCardinalityDeltaBytes = kMsgHeaderBytes + 2 + 6;

// Interned once per process; the update/beacon pair alternates every epoch.
const sim::PhaseId kPhaseCreate = sim::Network::InternPhase("mint.create");
const sim::PhaseId kPhaseUpdate = sim::Network::InternPhase("mint.update");
const sim::PhaseId kPhaseBeacon = sim::Network::InternPhase("mint.beacon");
const sim::PhaseId kPhaseRepair = sim::Network::InternPhase("mint.repair");

bool SamePartial(const agg::PartialAgg& a, const agg::PartialAgg& b) {
  return a.sum_fx == b.sum_fx && a.count == b.count && a.min_fx == b.min_fx &&
         a.max_fx == b.max_fx;
}

}  // namespace

MintViews::MintViews(sim::Network* net, data::DataGenerator* gen, QuerySpec spec)
    : MintViews(net, gen, spec, Options{}) {}

MintViews::MintViews(sim::Network* net, data::DataGenerator* gen, QuerySpec spec, Options options)
    : EpochAlgorithm(net, gen, spec), options_(options) {
  size_t n = net->topology().num_nodes();
  subtree_count_.resize(n);
  tau_at_.assign(n, 0.0);
  tau_valid_at_.assign(n, 0);
  tau_version_at_.assign(n, 0);
  last_sent_.resize(n);
  child_view_.resize(n);
}

uint32_t MintViews::TotalCount(sim::GroupId g) const {
  if (spec_.grouping == Grouping::kNode) return 1;
  auto it = total_count_.find(g);
  return it == total_count_.end() ? 0 : it->second;
}

agg::GroupView MintViews::FullWaveRebuildingState(sim::Epoch epoch, sim::PhaseId phase) {
  using Msg = agg::GroupView;
  net_->SetPhase(phase);
  gen_->PrepareEpoch(epoch);  // Value() is a pure read below
  auto produce = [&](sim::NodeId node, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    Msg view;
    for (Msg& child : inbox) view.MergeView(std::move(child));
    if (node != sim::kSinkId) {
      view.AddReading(GroupOf(node), gen_->Value(node, epoch));
    }
    // Record subtree cardinalities; max-merge so a transient loss in one
    // wave can only under-count until the next full wave repairs it.
    auto& counts = subtree_count_[node];
    for (const auto& [g, partial] : view.entries()) {
      uint32_t& c = counts[g];
      c = std::max(c, partial.count);
    }
    // Reset the view-maintenance caches: the parent now holds this full view.
    last_sent_[node] = view;
    child_view_[node] = view;
    return view;
  };
  auto wire_bytes = [&](const Msg& m) {
    return kMsgHeaderBytes + agg::codec::ViewWireBytes(spec_.agg, m.size());
  };
  auto sink = sim::UpWave<Msg>::Run(*net_, produce, wire_bytes, &full_wave_ws_);
  return sink.value_or(Msg{});
}

void MintViews::DisseminateState(bool include_cardinalities, sim::PhaseId phase) {
  net_->SetPhase(phase);
  ++tau_version_;
  // The beacon carries tau; the creation-phase variant additionally carries
  // the (group, cardinality) table so every node can evaluate closure and
  // the gamma bounds. Under node grouping the table is implicit (n_g == 1).
  bool send_table = include_cardinalities && spec_.grouping == Grouping::kRoom;
  struct Beacon {
    double tau;
    bool tau_valid;
    bool with_table;
  };
  Beacon seed{pruning_tau_, pruning_tau_valid_, send_table};
  size_t table_bytes = send_table ? 2 + 4 * total_count_.size() : 0;
  auto produce = [&](sim::NodeId node, const Beacon* incoming) -> std::optional<Beacon> {
    if (node == sim::kSinkId) {
      tau_at_[node] = pruning_tau_;
      tau_valid_at_[node] = pruning_tau_valid_ ? 1 : 0;
      tau_version_at_[node] = tau_version_;
      return seed;
    }
    // Receiving nodes adopt the threshold; the cardinality table is modeled
    // as shared state (total_count_) since its content is identical
    // everywhere — the wire cost is what matters.
    tau_at_[node] = incoming->tau;
    tau_valid_at_[node] = incoming->tau_valid ? 1 : 0;
    tau_version_at_[node] = tau_version_;
    return *incoming;
  };
  auto wire_bytes = [&](const Beacon& b) {
    return kBeaconBytes + (b.with_table ? table_bytes : 0);
  };
  sim::DownWave<Beacon>::Run(*net_, produce, wire_bytes);
  ++beacon_count_;
}

void MintViews::MaybeRebroadcastTau(double kth_value, bool have_kth) {
  if (have_kth) {
    if (have_last_kth_) {
      kth_drift_ema_ = 0.8 * kth_drift_ema_ + 0.2 * std::abs(kth_value - last_kth_);
    }
    last_kth_ = kth_value;
    have_last_kth_ = true;
  }
  if (!options_.gamma_suppression) {
    pruning_tau_valid_ = false;
    return;
  }
  bool want_valid = have_kth;
  double want_tau = kth_value - TauMargin();
  bool must_send = false;
  if (want_valid != pruning_tau_valid_) {
    must_send = true;
  } else if (want_valid) {
    // Falling k-th: rebroadcast once the safety gap between the in-force
    // threshold and the current k-th shrank to half a margin (a stale high
    // threshold would over-prune and force repairs). Rising k-th: reclaim
    // pruning power only once the gap grew past three margins. Both sides
    // reset the gap to exactly one margin — hysteresis against chatter.
    if (kth_value < pruning_tau_ + 0.5 * TauMargin()) must_send = true;
    if (kth_value > pruning_tau_ + 3.0 * TauMargin()) must_send = true;
  }
  if (!must_send) return;
  pruning_tau_ = want_tau;
  pruning_tau_valid_ = want_valid;
  DisseminateState(/*include_cardinalities=*/false, kPhaseBeacon);
}

double MintViews::UpperBound(sim::GroupId g, const agg::PartialAgg& partial,
                             uint32_t subtree_c) const {
  uint32_t n_g = TotalCount(g);
  uint32_t missing = n_g > subtree_c ? n_g - subtree_c : 0;
  int32_t max_fx = util::fixed_point::Encode(spec_.domain_max);
  switch (spec_.agg) {
    case agg::AggKind::kAvg: {
      if (n_g == 0) return partial.Final(spec_.agg);
      double best_sum =
          static_cast<double>(partial.sum_fx) + static_cast<double>(max_fx) * missing;
      return best_sum / util::fixed_point::kScale / static_cast<double>(n_g);
    }
    case agg::AggKind::kSum: {
      double extra = std::max<double>(0.0, static_cast<double>(max_fx)) * missing;
      return (static_cast<double>(partial.sum_fx) + extra) / util::fixed_point::kScale;
    }
    case agg::AggKind::kMin:
      // Further contributions can only lower the minimum.
      return partial.Final(agg::AggKind::kMin);
    case agg::AggKind::kMax:
      // Contributions below tau cannot be the maximum of a top-k group.
      return partial.Final(agg::AggKind::kMax);
    case agg::AggKind::kCount:
      return static_cast<double>(n_g);
  }
  return spec_.domain_max;
}

void MintViews::PruneView(sim::NodeId node, agg::GroupView& view) const {
  std::vector<sim::GroupId> to_erase;
  bool have_tau = tau_valid_at_[node] != 0;
  double tau = tau_at_[node];
  const auto& counts = subtree_count_[node];
  for (const auto& [g, partial] : view.entries()) {
    uint32_t expected = 0;
    auto it = counts.find(g);
    if (it != counts.end()) expected = it->second;
    bool complete = partial.count >= expected;
    if (!complete && options_.closure_pruning && spec_.agg != agg::AggKind::kMax) {
      // A descendant pruned this group: it is provably outside the top-k,
      // so forwarding the remaining partial would be wasted bytes.
      to_erase.push_back(g);
      continue;
    }
    if (options_.gamma_suppression && have_tau) {
      if (UpperBound(g, partial, partial.count) < tau - kTauEps) to_erase.push_back(g);
    }
  }
  for (sim::GroupId g : to_erase) view.Erase(g);
}

agg::GroupView& MintViews::RunUpdateWave(sim::Epoch epoch) {
  using Msg = Delta;
  net_->SetPhase(kPhaseUpdate);
  gen_->PrepareEpoch(epoch);  // Value() is a pure read below
  auto produce = [&](sim::NodeId node, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    // Apply the children's deltas to their cached views.
    for (Msg& delta : inbox) {
      agg::GroupView& cache = child_view_[delta.from];
      for (auto& [g, partial] : delta.changed) cache.Set(g, partial);
      for (sim::GroupId g : delta.removed) cache.Erase(g);
    }
    // Rebuild this node's view from the cached child views + own reading,
    // into scratch reused across nodes and epochs.
    agg::GroupView& view = update_scratch_;
    view.clear();
    for (sim::NodeId child : net_->tree().children(node)) view.MergeView(child_view_[child]);
    if (node == sim::kSinkId) {
      // The sink's materialized view V_0 — its children's deltas were just
      // applied, so the merge of their caches is current.
      sink_view_ = view;
      return Msg{};  // value unused; the sink transmits nothing
    }
    view.AddReading(GroupOf(node), gen_->Value(node, epoch));
    PruneView(node, view);
    // Delta against what the parent believes (the Update Phase proper):
    // both sides are sorted by group, so the diff is one linear walk.
    Msg delta;
    delta.from = node;
    const auto& cur = view.entries();
    const auto& sent = last_sent_[node].entries();
    if (options_.delta_updates) {
      size_t i = 0;
      size_t j = 0;
      while (i < cur.size() || j < sent.size()) {
        if (j == sent.size() || (i < cur.size() && cur[i].first < sent[j].first)) {
          delta.changed.push_back(cur[i]);
          ++i;
        } else if (i == cur.size() || sent[j].first < cur[i].first) {
          delta.removed.push_back(sent[j].first);
          ++j;
        } else {
          if (!SamePartial(cur[i].second, sent[j].second)) delta.changed.push_back(cur[i]);
          ++i;
          ++j;
        }
      }
    } else {
      // Ablation: full-view resend, plus tombstones for vanished groups.
      delta.changed.assign(cur.begin(), cur.end());
      for (const auto& [g, partial] : sent) {
        if (!view.Contains(g)) delta.removed.push_back(g);
      }
    }
    if (delta.changed.empty() && delta.removed.empty()) {
      // Nothing changed: the parent's cached V'_i is still current.
      return std::nullopt;
    }
    last_sent_[node] = view;
    return delta;
  };
  auto wire_bytes = [&](const Msg& m) {
    // Header + changed entries (group codec) + tombstone list when present
    // (a flag bit in the type byte says whether the list follows).
    size_t tombstones = m.removed.empty() ? 0 : 2 + 2 * m.removed.size();
    return kMsgHeaderBytes + agg::codec::ViewWireBytes(spec_.agg, m.changed.size()) + tombstones;
  };
  sim::UpWave<Msg>::Run(*net_, produce, wire_bytes, &update_wave_ws_);
  return sink_view_;
}

TopKResult MintViews::EvaluateAtSink(sim::Epoch epoch, const agg::GroupView& sink_view) {
  // Accept a group when its value is known exactly (complete merge) and it
  // clears the threshold in force at the nodes. MAX needs no completeness:
  // every contribution >= tau survived pruning, so a merged value >= tau is
  // the true maximum.
  std::vector<agg::RankedItem> candidates;
  uint32_t contributors = sink_view.ContributorCount();
  for (const auto& [g, partial] : sink_view.entries()) {
    bool complete = spec_.agg == agg::AggKind::kMax || partial.count >= TotalCount(g);
    if (!complete) continue;
    double value = partial.Final(spec_.agg);
    if (pruning_tau_valid_ && value < pruning_tau_ - kTauEps) continue;
    candidates.push_back(agg::RankedItem{g, value});
  }
  std::sort(candidates.begin(), candidates.end(), agg::RankHigher);

  size_t need = std::min<size_t>(static_cast<size_t>(spec_.k), total_groups_);
  if (candidates.size() < need) {
    // Under-run: values drifted below tau network-wide. Probe/repair round:
    // collect everything once, answer exactly, rebuild caches, reseed tau.
    ++repair_count_;
    agg::GroupView full = FullWaveRebuildingState(epoch, kPhaseRepair);
    candidates = full.Ranked(spec_.agg);
    contributors = full.ContributorCount();
  }

  TopKResult result;
  result.epoch = epoch;
  result.contributors = contributors;
  // MINT suppresses below-tau updates by design, so contributors here counts
  // nodes whose data informed the answer via live updates or repair — an
  // approximation (cached partials from silent nodes still back the view).
  result.StampCompleteness(net_->AliveAttachedSensors(), net_->EpochDegraded());
  for (size_t i = 0; i < candidates.size() && i < static_cast<size_t>(spec_.k); ++i) {
    result.items.push_back(candidates[i]);
  }
  bool have_kth = candidates.size() >= static_cast<size_t>(spec_.k);
  MaybeRebroadcastTau(have_kth ? candidates[static_cast<size_t>(spec_.k) - 1].value : 0.0,
                      have_kth);
  return result;
}

TopKResult MintViews::RunCreation(sim::Epoch epoch) {
  agg::GroupView full = FullWaveRebuildingState(epoch, kPhaseCreate);
  total_count_.clear();
  for (const auto& [g, partial] : full.entries()) total_count_[g] = partial.count;
  total_groups_ = total_count_.size();

  TopKResult result;
  result.epoch = epoch;
  result.contributors = full.ContributorCount();
  result.StampCompleteness(net_->AliveAttachedSensors(), net_->EpochDegraded());
  result.items = full.TopK(spec_.agg, static_cast<size_t>(spec_.k));
  auto ranked = full.Ranked(spec_.agg);
  if (ranked.size() >= static_cast<size_t>(spec_.k) && options_.gamma_suppression) {
    pruning_tau_ = ranked[static_cast<size_t>(spec_.k) - 1].value - TauMargin();
    pruning_tau_valid_ = true;
  } else {
    pruning_tau_valid_ = false;
  }
  DisseminateState(/*include_cardinalities=*/true, kPhaseCreate);
  created_ = true;
  return result;
}

TopKResult MintViews::RunEpoch(sim::Epoch epoch) {
  if (!created_) return RunCreation(epoch);
  return EvaluateAtSink(epoch, RunUpdateWave(epoch));
}

void MintViews::OnTopologyChanged() {
  for (auto& counts : subtree_count_) counts.clear();
  for (auto& view : last_sent_) view.clear();
  for (auto& view : child_view_) view.clear();
  std::fill(tau_valid_at_.begin(), tau_valid_at_.end(), 0);
  pruning_tau_valid_ = false;
  have_last_kth_ = false;
  if (created_) ++churn_rebuild_count_;
  created_ = false;  // next RunEpoch re-creates over the survivors
}

void MintViews::RecountCardinalities() {
  const sim::RoutingTree& tree = net_->tree();
  size_t n = net_->topology().num_nodes();
  total_count_.clear();
  for (sim::NodeId id = 1; id < n; ++id) {
    if (net_->NodeAlive(id) && tree.attached(id)) ++total_count_[GroupOf(id)];
  }
  total_groups_ = total_count_.size();
  // Subtree cardinalities, accumulated leaves-first. Equals what a lossless
  // creation wave would record; the churn layer's join handshakes and the
  // report/retraction messages charged by the incremental repair are how the
  // counts travel in protocol terms.
  for (auto& counts : subtree_count_) counts.clear();
  for (sim::NodeId node : tree.post_order()) {
    auto& counts = subtree_count_[node];
    for (sim::NodeId child : tree.children(node)) {
      for (const auto& [g, c] : subtree_count_[child]) counts[g] += c;
    }
    if (node != sim::kSinkId && net_->NodeAlive(node)) ++counts[GroupOf(node)];
  }
}

void MintViews::OnTopologyChanged(const sim::TopologyDelta& delta) {
  if (!created_) return;  // nothing cached yet; creation covers the new tree
  const sim::RoutingTree& tree = net_->tree();
  size_t affected = delta.removed.size() + delta.reattached.size();
  if (!options_.incremental_repair || delta.empty() ||
      2 * affected >= std::max<size_t>(tree.AttachedCount(), 1)) {
    // Massive churn: re-running the creation phase is cheaper than paying
    // per-subtree repairs over most of the tree.
    OnTopologyChanged();
    return;
  }
  ++incremental_repair_count_;
  net_->SetPhase(kPhaseRepair);
  // 1) Nodes that left the tree: evict their caches so a later re-attach
  //    starts clean. The former parent (which observed the departure) is a
  //    source of the cardinality-delta converge-cast charged in step 3.
  for (const auto& [node, old_parent] : delta.removed) {
    (void)old_parent;
    last_sent_[node].clear();
    child_view_[node].clear();
    subtree_count_[node].clear();
    tau_valid_at_[node] = 0;
  }
  // 2) Re-attached subtree roots: the new parent caches nothing for them, so
  //    the next update wave re-sends the full pruned view through the
  //    ordinary delta mechanism (charged there). The current threshold must
  //    also hold throughout the subtree — non-uniform thresholds are what
  //    breaks the under-run safety argument. The join accept carries tau and
  //    its beacon generation to the root for free; only members whose tau is
  //    actually stale (they missed beacons while detached or down) cost a
  //    relayed install message.
  for (sim::NodeId root : delta.reattached) {
    last_sent_[root].clear();
    child_view_[root].clear();
    if (!tree.attached(root) || !net_->NodeAlive(root)) continue;  // gone again
    std::vector<sim::NodeId> stack = {root};
    while (!stack.empty()) {
      sim::NodeId m = stack.back();
      stack.pop_back();
      bool stale = tau_version_at_[m] != tau_version_ || tau_at_[m] != pruning_tau_ ||
                   (tau_valid_at_[m] != 0) != pruning_tau_valid_;
      if (stale) {
        tau_at_[m] = pruning_tau_;
        tau_valid_at_[m] = pruning_tau_valid_ ? 1 : 0;
        tau_version_at_[m] = tau_version_;
        if (m != root && net_->NodeAlive(tree.parent(m)) && net_->NodeAlive(m)) {
          net_->DeliverControl(tree.parent(m), m, kBeaconBytes);
        }
      }
      for (sim::NodeId c : tree.children(m)) stack.push_back(c);
    }
  }
  // 3) Re-derive the cardinality bookkeeping over the survivors, and charge
  //    one cardinality-delta converge-cast toward the sink: every former
  //    parent of a departed node and every re-attached root reports its
  //    subtree's new group table up; reports merge at shared ancestors like
  //    any converge-cast, so each tree edge on the union of affected paths
  //    carries exactly one message per repair event. Control traffic rides
  //    link-layer ARQ like the join handshakes (DeliverControl).
  RecountCardinalities();
  std::vector<uint8_t> on_path(tree.num_nodes(), 0);
  auto mark_path = [&](sim::NodeId start) {
    for (sim::NodeId cur = start; cur != sim::kSinkId; cur = tree.parent(cur)) {
      if (on_path[cur]) break;  // shared prefix already marked
      on_path[cur] = 1;
    }
  };
  for (const auto& [node, old_parent] : delta.removed) {
    if (old_parent != sim::kNoNode && net_->NodeAlive(old_parent) && tree.attached(old_parent)) {
      mark_path(old_parent);
    }
  }
  for (sim::NodeId root : delta.reattached) {
    if (tree.attached(root) && net_->NodeAlive(root)) mark_path(root);
  }
  for (sim::NodeId node : tree.post_order()) {
    if (node == sim::kSinkId || !on_path[node]) continue;
    sim::NodeId parent = tree.parent(node);
    if (!net_->NodeAlive(node) || !net_->NodeAlive(parent)) continue;
    net_->DeliverControl(node, parent, kCardinalityDeltaBytes);
  }
}

}  // namespace kspot::core
