#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "agg/aggregate.hpp"
#include "net/serializer.hpp"
#include "sim/types.hpp"

namespace kspot::agg {

/// One ranked answer: a group and its final aggregate value.
struct RankedItem {
  sim::GroupId group = 0;
  double value = 0.0;

  friend bool operator==(const RankedItem& a, const RankedItem& b) = default;
};

/// Deterministic ranking order: value descending, group id ascending on ties.
bool RankHigher(const RankedItem& a, const RankedItem& b);

/// A materialized view V_i: the per-group partial aggregates a node (or the
/// sink) holds. This is the object MINT's in-network hierarchy maintains —
/// ancestor views are supersets of descendant views.
///
/// Storage is a flat vector sorted by group id (flat-map semantics): lookups
/// binary-search, MergeView is a linear two-pointer merge, and iteration is a
/// cache-friendly contiguous scan. Views are the per-node per-epoch message
/// payload of every converge-cast, so the node-per-entry allocation of the
/// previous std::map representation was the simulator's dominant allocator
/// traffic. The ordering contract (entries ascending by group id; ranking by
/// RankHigher) is identical to the map-based implementation, so all results
/// are bit-identical.
class GroupView {
 public:
  using Entry = std::pair<sim::GroupId, PartialAgg>;

  /// Adds one sensor reading to `group`.
  void AddReading(sim::GroupId group, double value);

  /// Merges a partial for `group`.
  void MergePartial(sim::GroupId group, const PartialAgg& partial);

  /// Merges a whole view (linear two-pointer merge, in place: the view
  /// grows its own buffer and allocates nothing once that is large enough).
  /// `other` must be another view.
  void MergeView(const GroupView& other);

  /// Merge overload that steals `other`'s storage when this view is empty —
  /// the first child of every converge-cast merge.
  void MergeView(GroupView&& other);

  /// Overwrites (or inserts) the partial cached for `group`.
  void Set(sim::GroupId group, const PartialAgg& partial);

  /// Applies one update delta to this cached view in a single linear merge —
  /// the materialized-view maintenance primitive of MINT's update phase.
  /// Entries of `changed` overwrite (or insert) their group; groups in
  /// `removed` are dropped (absent ones are ignored). Both lists must ascend
  /// strictly by group id and be disjoint; a violation aborts with a message
  /// (checked inside the same pass). Entries before the first delta key stay
  /// in place; the rest is merged into `scratch` (reused across calls) and
  /// copied back, so this view keeps its own capacity.
  void ApplyDelta(const std::vector<Entry>& changed, const std::vector<sim::GroupId>& removed,
                  std::vector<Entry>* scratch);

  /// Removes every entry for which `pred(entry)` holds, in one pass. `pred`
  /// sees the entries once each, in ascending group order, so it may walk a
  /// second sorted table alongside.
  template <typename Pred>
  void EraseIf(Pred pred) {
    auto out = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pred(*it)) continue;
      if (out != it) *out = std::move(*it);
      ++out;
    }
    entries_.erase(out, entries_.end());
  }

  /// Windowed-incremental maintenance: retracts the `evicted` group's
  /// contribution (no-op when absent) and overwrites `inserted` with `added`
  /// — the O(delta) alternative to rebuilding a sliding-window view from
  /// scratch each epoch. An empty `added` (count 0) removes `inserted`
  /// instead of caching a contributor-less group.
  void ApplyWindowDelta(sim::GroupId evicted, sim::GroupId inserted, const PartialAgg& added) {
    Erase(evicted);
    if (added.count == 0) {
      Erase(inserted);
    } else {
      Set(inserted, added);
    }
  }

  /// Partial for `group`; empty partial if absent.
  PartialAgg Get(sim::GroupId group) const;

  /// Pointer to `group`'s partial, or nullptr when absent (no copy).
  const PartialAgg* Find(sim::GroupId group) const;

  /// True when `group` is present.
  bool Contains(sim::GroupId group) const { return Find(group) != nullptr; }

  /// Removes `group`; no-op when absent.
  void Erase(sim::GroupId group);

  /// Removes all groups (capacity is retained for reuse across epochs).
  void clear() { entries_.clear(); }

  /// Pre-sizes the backing storage.
  void Reserve(size_t n) { entries_.reserve(n); }

  /// Number of groups.
  size_t size() const { return entries_.size(); }
  /// True when no groups are present.
  bool empty() const { return entries_.empty(); }

  /// Total readings merged across all groups — how many sensors contributed
  /// to this view (the TopKResult::contributors accounting).
  uint32_t ContributorCount() const;

  /// Underlying entries, ascending by group id.
  const std::vector<Entry>& entries() const { return entries_; }

  /// Final values for all groups under `kind`, ranked best-first.
  std::vector<RankedItem> Ranked(AggKind kind) const;

  /// The K best groups under `kind` (all groups if fewer than k). Partial
  /// selection (nth_element) + sort of the prefix: same output as ranking
  /// everything, without the full sort.
  std::vector<RankedItem> TopK(AggKind kind, size_t k) const;

  /// Keeps only the K best groups under `kind` (the *naive* local pruning of
  /// Section III-A — provided so the Naive algorithm and tests can exercise
  /// the anomaly).
  void PruneToLocalTopK(AggKind kind, size_t k);

 private:
  std::vector<Entry> entries_;
};

/// Wire codec for views. Entry layouts (little endian):
///   AVG / SUM / COUNT / MIN: group u16, sum i64, count u16, min i32 -> 16 B
///   MAX:                     group u16, max i32                    ->  6 B
/// A serialized view is: count u16, then entries. The MAX layout is smaller
/// because MAX pruning needs no completeness bookkeeping (see DESIGN.md).
namespace codec {

/// Serialized size of a view with `entries` entries under `kind`.
size_t ViewWireBytes(AggKind kind, size_t entries);

/// Appends `view` to `w`.
void WriteView(net::Writer& w, AggKind kind, const GroupView& view);

/// Parses a view; returns false on malformed input.
bool ReadView(net::Reader& r, AggKind kind, GroupView* out);

}  // namespace codec

}  // namespace kspot::agg
