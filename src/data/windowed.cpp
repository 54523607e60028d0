#include "data/windowed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/fixed_point.hpp"

namespace kspot::data {

namespace {

/// A window of no epoch has no aggregate; clamping it would answer a query
/// nobody asked.
size_t CheckedWindow(size_t window, const char* who) {
  if (window == 0) {
    std::fprintf(stderr, "%s: a window must hold at least one epoch\n", who);
    std::abort();
  }
  return window;
}

}  // namespace

ReadingRing::ReadingRing(size_t num_nodes, size_t rows, sim::Epoch first)
    : num_nodes_(num_nodes),
      rows_(CheckedWindow(rows, "ReadingRing")),
      evicted_(num_nodes, 0),
      next_epoch_(first) {}

void ReadingRing::Push(DataGenerator& source, sim::Epoch epoch) {
  if (epoch != next_epoch_) {
    std::fprintf(stderr, "ReadingRing::Push: epoch %llu pushed, expected %llu\n",
                 static_cast<unsigned long long>(epoch),
                 static_cast<unsigned long long>(next_epoch_));
    std::abort();
  }
  source.PrepareEpoch(epoch);
  const bool evict = held_ == rows_;
  if (!evict) {
    readings_.resize((held_ + 1) * num_nodes_);
    sums_.resize((held_ + 1) * num_nodes_);
  }
  const size_t at = (evict ? head_ : held_) * num_nodes_;
  const int64_t* before = held_ == 0 ? evicted_.data() : &sums_[Slot(held_ - 1) * num_nodes_];
  for (size_t id = 1; id < num_nodes_; ++id) {
    const int64_t sum = before[id];
    if (evict) evicted_[id] = sums_[at + id];
    readings_[at + id] = source.Value(static_cast<sim::NodeId>(id), epoch);
    sums_[at + id] = sum + util::fixed_point::Encode(readings_[at + id]);
  }
  if (evict) {
    head_ = head_ + 1 == held_ ? 0 : head_ + 1;
  } else {
    ++held_;
  }
  next_epoch_ = epoch + 1;
}

int64_t ReadingRing::SumFx(sim::NodeId id, size_t count) const {
  const int64_t before =
      count == held_ ? evicted_[id] : sums_[Slot(held_ - count - 1) * num_nodes_ + id];
  return sums_[Slot(held_ - 1) * num_nodes_ + id] - before;
}

ReadingRing DrawnRing(DataGenerator& source, size_t num_nodes, sim::Epoch first, size_t count) {
  ReadingRing ring(num_nodes, count, first);
  for (sim::Epoch e = first; e < first + count; ++e) ring.Push(source, e);
  return ring;
}

WindowAggregateGenerator::WindowAggregateGenerator(DataGenerator* inner, size_t num_nodes,
                                                   size_t window, agg::AggKind agg)
    : WindowAggregateGenerator(nullptr, window, agg, inner->modality()) {
  inner_ = inner;
  owned_ = std::make_unique<ReadingRing>(num_nodes, window);
  ring_ = owned_.get();
}

WindowAggregateGenerator::WindowAggregateGenerator(const ReadingRing* ring, size_t window,
                                                   agg::AggKind agg, const ModalityInfo& modality)
    : ring_(ring),
      window_(CheckedWindow(window, "WindowAggregateGenerator")),
      agg_(agg),
      modality_(&modality) {}

void WindowAggregateGenerator::PrepareEpoch(sim::Epoch epoch) {
  while (inner_ != nullptr && owned_->next_epoch() <= epoch) {
    owned_->Push(*inner_, owned_->next_epoch());
  }
  if (epoch + 1 != ring_->next_epoch()) {
    std::fprintf(stderr, "WindowAggregateGenerator: epoch %llu asked %s epoch %llu\n",
                 static_cast<unsigned long long>(epoch),
                 epoch < ring_->next_epoch() ? "after the window moved on to"
                                             : "before its ring took it; the ring ends at",
                 static_cast<unsigned long long>(ring_->next_epoch() - 1));
    std::abort();
  }
}

double WindowAggregateGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  PrepareEpoch(epoch);
  const size_t count = std::min(window_, ring_->held());
  if (id == 0 || id >= ring_->num_nodes() || count == 0) return 0.0;
  agg::PartialAgg partial;
  partial.count = static_cast<uint32_t>(count);
  partial.sum_fx = ring_->SumFx(id, count);
  if (agg_ == agg::AggKind::kMin || agg_ == agg::AggKind::kMax) {
    partial.min_fx = INT32_MAX;
    partial.max_fx = INT32_MIN;
    for (size_t age = ring_->held() - count; age < ring_->held(); ++age) {
      const int32_t fx = util::fixed_point::Encode(ring_->Row(age)[id]);
      partial.min_fx = std::min(partial.min_fx, fx);
      partial.max_fx = std::max(partial.max_fx, fx);
    }
  }
  // Quantize so downstream fixed-point transport is lossless.
  return util::fixed_point::Quantize(partial.Final(agg_));
}

}  // namespace kspot::data
