#include "core/oracle.hpp"

namespace kspot::core {

Oracle::Oracle(const sim::Topology* topology, data::DataGenerator* gen, QuerySpec spec)
    : topology_(topology), gen_(gen), spec_(spec) {}

agg::GroupView Oracle::FullView(sim::Epoch epoch) const {
  return FullViewOver(epoch, [](sim::NodeId) { return true; });
}

agg::GroupView Oracle::FullViewOver(sim::Epoch epoch, const Contributes& contributes) const {
  agg::GroupView view;
  FillViewOver(view, epoch, contributes);
  return view;
}

void Oracle::FillViewOver(agg::GroupView& view, sim::Epoch epoch,
                          const Contributes& contributes) const {
  for (sim::NodeId id = 1; id < topology_->num_nodes(); ++id) {
    if (!contributes(id)) continue;
    view.AddReading(spec_.GroupOf(*topology_, id), gen_->Value(id, epoch));
  }
}

TopKResult Oracle::TopK(sim::Epoch epoch) const {
  return TopKOver(epoch, [](sim::NodeId) { return true; });
}

TopKResult Oracle::TopKOver(sim::Epoch epoch, const Contributes& contributes) const {
  TopKResult result;
  result.epoch = epoch;
  // Build into the reused scratch view: the oracle is consulted every epoch
  // by the accuracy benchmarks, so the per-call view allocation matters.
  scratch_.clear();
  FillViewOver(scratch_, epoch, contributes);
  result.contributors = scratch_.ContributorCount();
  result.items = scratch_.TopK(spec_.agg, static_cast<size_t>(spec_.k));
  return result;
}

}  // namespace kspot::core
