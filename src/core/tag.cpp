#include "core/tag.hpp"

#include "agg/group_view.hpp"

namespace kspot::core {

agg::GroupView TagTopK::CollectFullView(sim::Network& net, data::DataGenerator& gen,
                                        const QuerySpec& spec, sim::Epoch epoch,
                                        sim::UpWave<agg::GroupView>::Workspace* workspace) {
  using Msg = agg::GroupView;
  gen.PrepareEpoch(epoch);  // Value() is a pure read below
  // Lane aware: a node's view is built from its inbox and its own reading.
  auto produce = [&](sim::NodeId node, std::vector<Msg>&& inbox, size_t) -> std::optional<Msg> {
    Msg view;
    for (Msg& child : inbox) view.MergeView(std::move(child));
    if (node != sim::kSinkId) {
      view.AddReading(spec.GroupOf(net.topology(), node), gen.Value(node, epoch));
    }
    return view;
  };
  auto wire_bytes = [&](const Msg& m) {
    return kMsgHeaderBytes + agg::codec::ViewWireBytes(spec.agg, m.size());
  };
  auto sink = sim::UpWave<Msg>::Run(net, produce, wire_bytes, workspace);
  return sink.value_or(Msg{});
}

TopKResult TagTopK::RunEpoch(sim::Epoch epoch) {
  static const sim::PhaseId kPhaseCollect = sim::Network::InternPhase("tag.collect");
  net_->SetPhase(kPhaseCollect);
  agg::GroupView view = CollectFullView(*net_, *gen_, spec_, epoch, &wave_ws_);
  TopKResult result;
  result.epoch = epoch;
  result.contributors = view.ContributorCount();
  result.items = view.TopK(spec_.agg, static_cast<size_t>(spec_.k));
  result.StampCompleteness(net_->AliveAttachedSensors(), net_->EpochDegraded());
  return result;
}

}  // namespace kspot::core
