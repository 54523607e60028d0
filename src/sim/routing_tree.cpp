#include "sim/routing_tree.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"

namespace kspot::sim {

namespace {

/// Index build plus adoption rounds over the whole topology, each traced.
RoutingTree Build(const Topology& topology, ParentRule rule, util::Rng* rng) {
  NeighborIndex index(topology);
  static const uint32_t kSpan = obs::GlobalTracer().InternName("sim.tree_build");
  std::vector<NodeId> parents;
  {
    obs::ScopedSpan span(kSpan);
    parents = GrowTree(index, rule, rng);
  }
  return RoutingTree::FromParents(std::move(parents));
}

}  // namespace

RoutingTree RoutingTree::BuildFirstHeard(const Topology& topology, util::Rng& rng) {
  return Build(topology, ParentRule::kFirstHeard, &rng);
}

RoutingTree RoutingTree::BuildClusterAware(const Topology& topology, util::Rng& rng) {
  return Build(topology, ParentRule::kClusterAware, &rng);
}

RoutingTree RoutingTree::FromParents(std::vector<NodeId> parents) {
  RoutingTree tree;
  tree.parents_ = std::move(parents);
  tree.FinishConstruction();
  return tree;
}

void RoutingTree::FinishConstruction() {
  wave_split_.reset();
  size_t n = parents_.size();
  // Clear-in-place instead of assign: repeated repairs (churn) keep the
  // per-node children capacity instead of reallocating every pass.
  if (children_.size() == n) {
    for (auto& c : children_) c.clear();
  } else {
    children_.assign(n, {});
  }
  depths_.assign(n, 0);
  attached_.assign(n, 0);
  // Filling in ascending node order leaves every children list sorted; no
  // per-list sort needed (repairs rebuild this every churn event).
  for (size_t i = 0; i < n; ++i) {
    if (parents_[i] != kNoNode) children_[parents_[i]].push_back(static_cast<NodeId>(i));
  }
  // Depths via pre-order walk from the sink. Nodes stranded by churn (no
  // parent chain to the sink) are never visited: they keep depth 0, stay out
  // of pre/post order and report attached() == false, so the epoch waves
  // simply skip them.
  pre_order_.clear();
  pre_order_.reserve(n);
  std::vector<NodeId> stack = {kSinkId};
  attached_[kSinkId] = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    pre_order_.push_back(u);
    for (auto it = children_[u].rbegin(); it != children_[u].rend(); ++it) {
      depths_[*it] = depths_[u] + 1;
      attached_[*it] = 1;
      stack.push_back(*it);
    }
  }
  max_depth_ = 0;
  for (size_t i = 0; i < n; ++i) max_depth_ = std::max(max_depth_, depths_[i]);
  // Post order = reverse of a pre-order that visits children in reverse; the
  // simple trick: children-before-parent ordering by sorting pre_order_
  // reversed works because pre_order_ lists every parent before its children.
  post_order_.assign(pre_order_.rbegin(), pre_order_.rend());
  // Slot-schedule order: the epoch scheduler fires node p (the p-th entry of
  // post_order_) at slot (max_depth_ - depth) plus an intra-slot offset of p.
  // Reproducing the (time, seq) order the event queue executed transmissions
  // in means sorting by that key; as long as the intra-slot offsets cannot
  // spill into the next slot (n < kSlotUs, i.e. any realistic network), that
  // is simply "depth descending, post-order-stable" — an O(n) bucket fill.
  wave_order_.resize(post_order_.size());
  if (static_cast<TimeUs>(post_order_.size()) < kSlotUs) {
    std::vector<size_t> cursor(static_cast<size_t>(max_depth_) + 1, 0);
    for (NodeId node : post_order_) ++cursor[depths_[node]];
    size_t acc = 0;
    for (int d = max_depth_; d >= 0; --d) {
      size_t count = cursor[d];
      cursor[d] = acc;
      acc += count;
    }
    for (NodeId node : post_order_) wave_order_[cursor[depths_[node]]++] = node;
  } else {
    wave_order_ = post_order_;
    std::vector<uint64_t> slot_key(n, 0);
    for (size_t p = 0; p < post_order_.size(); ++p) {
      NodeId node = post_order_[p];
      slot_key[node] =
          static_cast<uint64_t>(max_depth_ - depths_[node]) * kSlotUs + static_cast<uint64_t>(p);
    }
    std::stable_sort(wave_order_.begin(), wave_order_.end(),
                     [&](NodeId a, NodeId b) { return slot_key[a] < slot_key[b]; });
  }
}

RepairReport RoutingTree::Repair(const NeighborIndex& index,
                                 const std::function<bool(NodeId)>& is_up, util::Rng& rng,
                                 RepairWorkspace* workspace) {
  RepairWorkspace local;
  RepairWorkspace& ws = workspace != nullptr ? *workspace : local;
  size_t n = parents_.size();
  RepairReport report;
  // Phase 1 — strip the dead. A dead node leaves the tree entirely; its
  // children lose their parent and become orphan-subtree roots.
  for (size_t i = 0; i < n; ++i) {
    NodeId v = static_cast<NodeId>(i);
    if (v == kSinkId) continue;
    if (!is_up(v)) {
      if (parents_[v] != kNoNode) {
        report.removed.emplace_back(v, parents_[v]);
        parents_[v] = kNoNode;
        ++report.dead_removed;
        report.changed = true;
      }
      continue;
    }
    if (parents_[v] != kNoNode && !is_up(parents_[v])) {
      parents_[v] = kNoNode;
      report.changed = true;
    }
  }
  // Remaining parent edges connect up nodes only; the attached component is
  // whatever still reaches the sink over them.
  if (ws.kids.size() == n) {
    for (auto& k : ws.kids) k.clear();
  } else {
    ws.kids.assign(n, {});
  }
  for (size_t i = 0; i < n; ++i) {
    if (parents_[i] != kNoNode) ws.kids[parents_[i]].push_back(static_cast<NodeId>(i));
  }
  ws.attached.assign(n, 0);
  {
    ws.stack.assign(1, kSinkId);
    ws.attached[kSinkId] = 1;
    while (!ws.stack.empty()) {
      NodeId u = ws.stack.back();
      ws.stack.pop_back();
      for (NodeId c : ws.kids[u]) {
        ws.attached[c] = 1;
        ws.stack.push_back(c);
      }
    }
  }
  // Phase 2 — first-heard-from re-attachment rounds, using the same
  // adoption discipline the cluster-aware build uses: a detached up node
  // that hears beacons adopts a same-room broadcaster when one exists and
  // the first heard otherwise, then its intact subtree rides along and
  // beacons next round.
  ws.frontier.clear();
  ws.candidates.clear();
  for (size_t i = 0; i < n; ++i) {
    if (ws.attached[i]) {
      ws.frontier.push_back(static_cast<NodeId>(i));
    } else if (is_up(static_cast<NodeId>(i))) {
      ws.candidates.push_back(static_cast<NodeId>(i));
    }
  }
  // Every round shuffles the frontier even when no candidate is left — the
  // rng consumption must match the historical adoption rounds exactly, or
  // repeated Repair calls in one epoch (mid-repair battery deaths) would
  // diverge from the seed behaviour.
  auto& adoptions = ws.adoptions;
  while (!ws.frontier.empty()) {
    rng.Shuffle(ws.frontier);
    adoptions.clear();
    if (!ws.candidates.empty()) {
      ws.rounds.Run(index, ws.frontier, ws.candidates, ParentRule::kClusterAware, adoptions);
    }
    ws.frontier.clear();
    // A joiner's surviving subtree is attached with it; all of the newly
    // attached beacon in the next round.
    for (const Adoption& a : adoptions) {
      parents_[a.node] = a.parent;
      report.reattached.push_back({a.node, a.parent});
      report.changed = true;
    }
    for (const Adoption& a : adoptions) {
      ws.stack.assign(1, a.node);
      while (!ws.stack.empty()) {
        NodeId u = ws.stack.back();
        ws.stack.pop_back();
        if (ws.attached[u]) continue;
        ws.attached[u] = 1;
        ws.frontier.push_back(u);
        for (NodeId c : ws.kids[u]) {
          // The old edge still holds only if c was not itself re-parented
          // this round (it then roots its own attached subtree).
          if (parents_[c] == u) ws.stack.push_back(c);
        }
      }
    }
    if (!adoptions.empty()) {
      ws.candidates.erase(std::remove_if(ws.candidates.begin(), ws.candidates.end(),
                                         [&](NodeId v) { return ws.attached[v] != 0; }),
                          ws.candidates.end());
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (is_up(static_cast<NodeId>(i)) && !ws.attached[i]) ++report.detached;
  }
  FinishConstruction();
  return report;
}

size_t RoutingTree::SubtreeSize(NodeId id) const {
  size_t count = 0;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId c : children_[u]) stack.push_back(c);
  }
  return count;
}

std::shared_ptr<const WaveSplit> RoutingTree::SplitWave(size_t lanes) const {
  if (wave_split_ != nullptr && wave_split_->lane_size.size() == lanes) return wave_split_;
  const size_t n = parents_.size();
  std::vector<uint32_t> size(n, 0);
  for (NodeId node : post_order_) {
    size[node] += 1;
    if (parents_[node] != kNoNode) size[parents_[node]] += size[node];
  }
  const size_t total = post_order_.empty() ? 0 : post_order_.size() - 1;  // sink excluded
  std::vector<NodeId> pieces = children_[kSinkId];
  std::vector<size_t> load(lanes);
  std::vector<uint16_t> lane_of_piece;
  size_t above = 0;
  for (;;) {
    // Longest first onto the least-loaded lane.
    std::sort(pieces.begin(), pieces.end(), [&](NodeId a, NodeId b) {
      return size[a] != size[b] ? size[a] > size[b] : a < b;
    });
    std::fill(load.begin(), load.end(), 0);
    lane_of_piece.assign(pieces.size(), 0);
    for (size_t i = 0; i < pieces.size(); ++i) {
      auto lane = static_cast<size_t>(std::min_element(load.begin(), load.end()) - load.begin());
      lane_of_piece[i] = static_cast<uint16_t>(lane);
      load[lane] += size[pieces[i]];
    }
    const size_t heaviest = *std::max_element(load.begin(), load.end());
    if (16 * heaviest * lanes <= 17 * total || pieces.empty() || size[pieces[0]] == 1 ||
        16 * above >= total) {
      break;
    }
    // Move the largest subtree's root above the frontier.
    const NodeId root = pieces.front();
    pieces.erase(pieces.begin());
    pieces.insert(pieces.end(), children_[root].begin(), children_[root].end());
    ++above;
  }
  auto split = std::make_shared<WaveSplit>();
  split->lane_of.assign(n, 0);
  for (size_t i = 0; i < pieces.size(); ++i) {
    split->lane_of[pieces[i]] = static_cast<uint16_t>(lane_of_piece[i] + 1);
  }
  for (NodeId node : pre_order_) {  // parents before children
    const NodeId parent = parents_[node];
    if (split->lane_of[node] == 0 && parent != kNoNode) split->lane_of[node] = split->lane_of[parent];
  }
  split->lane_size.assign(lanes, 0);
  for (uint32_t pos = 0; pos < wave_order_.size(); ++pos) {
    const uint16_t lane = split->lane_of[wave_order_[pos]];
    if (lane != 0) ++split->lane_size[lane - 1];
    if (!split->runs.empty() && split->runs.back().lane == lane) {
      split->runs.back().end = pos + 1;
    } else {
      split->runs.push_back({pos, pos + 1, lane});
    }
  }
  wave_split_ = std::move(split);
  return wave_split_;
}

}  // namespace kspot::sim
