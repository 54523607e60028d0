#include "data/windowed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/fixed_point.hpp"

namespace kspot::data {

WindowAggregateGenerator::WindowAggregateGenerator(DataGenerator* inner, size_t num_nodes,
                                                   size_t window, agg::AggKind agg,
                                                   sim::Epoch first)
    : inner_(inner),
      num_nodes_(num_nodes),
      window_(window == 0 ? 1 : window),
      agg_(agg),
      ring_(num_nodes * window_, 0),
      sum_fx_(num_nodes, 0),
      next_epoch_(first) {}

void WindowAggregateGenerator::Push(DataGenerator& source, sim::Epoch epoch) {
  if (epoch != next_epoch_) {
    std::fprintf(stderr, "WindowAggregateGenerator::Push: epoch %llu pushed, expected %llu\n",
                 static_cast<unsigned long long>(epoch),
                 static_cast<unsigned long long>(next_epoch_));
    std::abort();
  }
  source.PrepareEpoch(epoch);
  const bool evict = filled_ == window_;
  for (size_t id = 1; id < num_nodes_; ++id) {
    int32_t fx = util::fixed_point::Encode(source.Value(static_cast<sim::NodeId>(id), epoch));
    int32_t& slot = ring_[id * window_ + head_];
    if (evict) sum_fx_[id] -= slot;
    slot = fx;
    sum_fx_[id] += fx;
  }
  if (!evict) ++filled_;
  head_ = head_ + 1 == window_ ? 0 : head_ + 1;
  next_epoch_ = epoch + 1;
}

void WindowAggregateGenerator::AdvanceTo(sim::Epoch epoch) {
  if (epoch + 1 < next_epoch_) {
    std::fprintf(stderr,
                 "WindowAggregateGenerator: epoch %llu asked after the window moved on to "
                 "epoch %llu\n",
                 static_cast<unsigned long long>(epoch),
                 static_cast<unsigned long long>(next_epoch_ - 1));
    std::abort();
  }
  while (next_epoch_ <= epoch) Push(*inner_, next_epoch_);
}

double WindowAggregateGenerator::Value(sim::NodeId id, sim::Epoch epoch) {
  AdvanceTo(epoch);
  if (id == 0 || id >= num_nodes_ || filled_ == 0) return 0.0;
  agg::PartialAgg partial;
  partial.sum_fx = sum_fx_[id];
  partial.count = static_cast<uint32_t>(filled_);
  if (agg_ == agg::AggKind::kMin || agg_ == agg::AggKind::kMax) {
    const int32_t* slots = &ring_[id * window_];
    auto [lo, hi] = std::minmax_element(slots, slots + filled_);
    partial.min_fx = *lo;
    partial.max_fx = *hi;
  }
  // Quantize so downstream fixed-point transport is lossless.
  return util::fixed_point::Quantize(partial.Final(agg_));
}

}  // namespace kspot::data
