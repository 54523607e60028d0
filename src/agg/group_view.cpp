#include "agg/group_view.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace kspot::agg {

namespace {

bool EntryBefore(const GroupView::Entry& entry, sim::GroupId group) {
  return entry.first < group;
}

}  // namespace

bool RankHigher(const RankedItem& a, const RankedItem& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.group < b.group;
}

void GroupView::AddReading(sim::GroupId group, double value) {
  MergePartial(group, PartialAgg::FromValue(value));
}

void GroupView::MergePartial(sim::GroupId group, const PartialAgg& partial) {
  // Appends (the sorted-input case: codec decode, in-order building) hit the
  // end() fast path and stay O(1) amortized.
  auto it = std::lower_bound(entries_.begin(), entries_.end(), group, EntryBefore);
  if (it != entries_.end() && it->first == group) {
    it->second.Merge(partial);
  } else {
    entries_.insert(it, Entry{group, partial});
  }
}

void GroupView::Set(sim::GroupId group, const PartialAgg& partial) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), group, EntryBefore);
  if (it != entries_.end() && it->first == group) {
    it->second = partial;
  } else {
    entries_.insert(it, Entry{group, partial});
  }
}

void GroupView::ApplyDelta(const std::vector<Entry>& changed,
                           const std::vector<sim::GroupId>& removed,
                           std::vector<Entry>* scratch) {
  if (changed.empty() && removed.empty()) return;
  sim::GroupId first = changed.empty()   ? removed.front()
                       : removed.empty() ? changed.front().first
                                         : std::min(changed.front().first, removed.front());
  auto a = std::lower_bound(entries_.begin(), entries_.end(), first, EntryBefore);
  const auto keep = static_cast<size_t>(a - entries_.begin());
  auto c = changed.begin();
  auto r = removed.begin();
  scratch->clear();
  bool have_prev = false;
  sim::GroupId prev = 0;
  // Walks the delta keys in merged order. The walk yields each list in its
  // own order, so strictly ascending keys prove both lists sorted and
  // disjoint (a shared group shows up twice in a row).
  while (c != changed.end() || r != removed.end()) {
    bool from_changed = r == removed.end() || (c != changed.end() && c->first < *r);
    sim::GroupId key = from_changed ? c->first : *r;
    if (have_prev && key <= prev) {
      std::fprintf(stderr,
                   "GroupView::ApplyDelta: delta groups must ascend strictly and changed/removed "
                   "must be disjoint (group %d after %d)\n",
                   static_cast<int>(key), static_cast<int>(prev));
      std::abort();
    }
    have_prev = true;
    prev = key;
    while (a != entries_.end() && a->first < key) scratch->push_back(*a++);
    if (a != entries_.end() && a->first == key) ++a;  // overwritten or removed
    if (from_changed) {
      scratch->push_back(*c++);
    } else {
      ++r;
    }
  }
  scratch->insert(scratch->end(), a, entries_.end());
  entries_.resize(keep);
  entries_.insert(entries_.end(), scratch->begin(), scratch->end());
}

void GroupView::MergeView(const GroupView& other) {
  if (other.entries_.empty()) return;
  if (entries_.empty()) {
    entries_ = other.entries_;  // copy-assign reuses our capacity
    return;
  }
  // Disjoint-range fast path: converge-casts over clustered trees often merge
  // sibling subtrees whose group ranges do not interleave.
  if (entries_.back().first < other.entries_.front().first) {
    entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
    return;
  }
  // Interleaved ranges: size the union, grow this view in place and merge
  // from the back, so every entry is read before the output reaches it and
  // the view keeps (and only ever grows) its own buffer.
  size_t shared = 0;
  for (auto a = entries_.cbegin(), b = other.entries_.cbegin();
       a != entries_.cend() && b != other.entries_.cend();) {
    if (a->first < b->first) {
      ++a;
    } else if (b->first < a->first) {
      ++b;
    } else {
      ++shared;
      ++a;
      ++b;
    }
  }
  const size_t old_size = entries_.size();
  entries_.resize(old_size + other.entries_.size() - shared);
  auto out = entries_.end();
  auto a = entries_.begin() + static_cast<std::ptrdiff_t>(old_size);
  auto b = other.entries_.end();
  // Entries of this view left when `other` runs out are already in place.
  while (b != other.entries_.begin()) {
    const Entry& next_b = *(b - 1);
    if (a != entries_.begin() && (a - 1)->first > next_b.first) {
      *--out = std::move(*--a);
    } else if (a != entries_.begin() && (a - 1)->first == next_b.first) {
      *--out = std::move(*--a);
      out->second.Merge(next_b.second);
      --b;
    } else {
      *--out = next_b;
      --b;
    }
  }
}

void GroupView::MergeView(GroupView&& other) {
  if (entries_.empty()) {
    entries_ = std::move(other.entries_);
    return;
  }
  MergeView(other);
}

PartialAgg GroupView::Get(sim::GroupId group) const {
  const PartialAgg* found = Find(group);
  return found == nullptr ? PartialAgg{} : *found;
}

const PartialAgg* GroupView::Find(sim::GroupId group) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), group, EntryBefore);
  return it != entries_.end() && it->first == group ? &it->second : nullptr;
}

void GroupView::Erase(sim::GroupId group) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), group, EntryBefore);
  if (it != entries_.end() && it->first == group) entries_.erase(it);
}

uint32_t GroupView::ContributorCount() const {
  uint32_t count = 0;
  for (const auto& [group, partial] : entries_) count += partial.count;
  return count;
}

std::vector<RankedItem> GroupView::Ranked(AggKind kind) const {
  std::vector<RankedItem> out;
  out.reserve(entries_.size());
  for (const auto& [group, partial] : entries_) {
    out.push_back(RankedItem{group, partial.Final(kind)});
  }
  std::sort(out.begin(), out.end(), RankHigher);
  return out;
}

std::vector<RankedItem> GroupView::TopK(AggKind kind, size_t k) const {
  std::vector<RankedItem> out;
  out.reserve(entries_.size());
  for (const auto& [group, partial] : entries_) {
    out.push_back(RankedItem{group, partial.Final(kind)});
  }
  // RankHigher is a strict total order (ties break on group id), so the k-set
  // selected by nth_element and its sorted order are both unique — identical
  // output to sorting everything and truncating.
  if (out.size() > k) {
    std::nth_element(out.begin(), out.begin() + static_cast<long>(k), out.end(), RankHigher);
    out.resize(k);
  }
  std::sort(out.begin(), out.end(), RankHigher);
  return out;
}

void GroupView::PruneToLocalTopK(AggKind kind, size_t k) {
  if (entries_.size() <= k) return;
  std::vector<RankedItem> keep = TopK(kind, k);
  std::vector<sim::GroupId> keep_groups;
  keep_groups.reserve(keep.size());
  for (const RankedItem& item : keep) keep_groups.push_back(item.group);
  std::sort(keep_groups.begin(), keep_groups.end());
  EraseIf([&](const Entry& entry) {
    return !std::binary_search(keep_groups.begin(), keep_groups.end(), entry.first);
  });
}

namespace codec {

namespace {

// Per-entry wire bytes after the u16 group id. Each aggregate carries exactly
// the fields its final value needs, plus the merge count where MINT's
// completeness check requires it (AVG/SUM/MIN/COUNT; MAX pruning is
// completeness-free, see DESIGN.md).
size_t EntryBodyBytes(AggKind kind) {
  switch (kind) {
    case AggKind::kAvg: return 8 + 2;  // sum, count
    case AggKind::kSum: return 8 + 2;  // sum, count
    case AggKind::kMin: return 4 + 2;  // min, count
    case AggKind::kMax: return 4;      // max
    case AggKind::kCount: return 2;    // count
  }
  return 0;
}

}  // namespace

size_t ViewWireBytes(AggKind kind, size_t entries) {
  return 2 + entries * (2 + EntryBodyBytes(kind));
}

void WriteView(net::Writer& w, AggKind kind, const GroupView& view) {
  w.PutU16(static_cast<uint16_t>(view.size()));
  for (const auto& [group, partial] : view.entries()) {
    w.PutU16(static_cast<uint16_t>(group));
    switch (kind) {
      case AggKind::kAvg:
      case AggKind::kSum:
        w.PutI64(partial.sum_fx);
        w.PutU16(static_cast<uint16_t>(partial.count));
        break;
      case AggKind::kMin:
        w.PutI32(partial.min_fx);
        w.PutU16(static_cast<uint16_t>(partial.count));
        break;
      case AggKind::kMax:
        w.PutI32(partial.max_fx);
        break;
      case AggKind::kCount:
        w.PutU16(static_cast<uint16_t>(partial.count));
        break;
    }
  }
}

bool ReadView(net::Reader& r, AggKind kind, GroupView* out) {
  // Decoded partials are only meaningful under the same `kind` they were
  // encoded with; fields not on the wire are defaulted.
  uint16_t n = r.GetU16();
  out->Reserve(out->size() + n);
  for (uint16_t i = 0; i < n; ++i) {
    auto group = static_cast<sim::GroupId>(r.GetU16());
    PartialAgg p;
    switch (kind) {
      case AggKind::kAvg:
      case AggKind::kSum:
        p.sum_fx = r.GetI64();
        p.count = r.GetU16();
        break;
      case AggKind::kMin:
        p.min_fx = r.GetI32();
        p.count = r.GetU16();
        break;
      case AggKind::kMax:
        p.max_fx = r.GetI32();
        p.count = 1;
        break;
      case AggKind::kCount:
        p.count = r.GetU16();
        break;
    }
    if (!r.ok()) return false;
    out->MergePartial(group, p);
  }
  return r.ok();
}

}  // namespace codec

}  // namespace kspot::agg
