#include "core/historic_stream.hpp"

#include <algorithm>
#include <cmath>

namespace kspot::core {

namespace {

// Interned once per process (same discipline as the TJA phases).
const sim::PhaseId kPhaseStore = sim::Network::InternPhase("historic.store");
const sim::PhaseId kPhaseDelta = sim::Network::InternPhase("historic.delta");
const sim::PhaseId kPhaseScratch = sim::Network::InternPhase("historic.scratch");

QuerySpec SpecFrom(const HistoricStreamOptions& options, data::DataGenerator* gen) {
  QuerySpec spec;
  spec.k = options.k;
  spec.agg = options.agg;
  spec.SetDomainFrom(gen->modality());
  return spec;
}

}  // namespace

HistoricStream::HistoricStream(sim::Network* net, data::DataGenerator* gen,
                               HistoricStreamOptions options)
    : EpochAlgorithm(net, gen, SpecFrom(options, gen)), options_(options) {
  size_t n = net->topology().num_nodes();
  const data::ModalityInfo& info = gen->modality();
  stores_.reserve(n);
  for (size_t id = 0; id < n; ++id) {
    stores_.emplace_back(options_.window, options_.archive_to_flash, info.min_value,
                         info.max_value);
  }
  value_now_.assign(n, 0.0);
  if (options_.suppression) {
    head_of_.assign(n, sim::kNoNode);
    members_of_head_.assign(n, {});
    predictor_.assign(n, 0.0);
    has_predictor_.assign(n, 0);
    suppressed_now_.assign(n, 0);
    const sim::Topology& topo = net->topology();
    for (sim::GroupId room : topo.DistinctRooms()) {
      sim::NodeId head = sim::kNoNode;
      for (sim::NodeId id : topo.NodesInRoom(room)) {
        if (id == sim::kSinkId) continue;
        if (head == sim::kNoNode) head = id;
        head_of_[id] = head;
        if (id != head) members_of_head_[head].push_back(id);
      }
    }
  }
}

std::string HistoricStream::name() const {
  return options_.incremental ? "HIST-delta" : "HIST-scratch";
}

void HistoricStream::OnTopologyChanged() {
  // Membership changed: predictors anchored at the old tree may never be
  // reconstructed again (a head may have died). Force fresh reports.
  if (options_.suppression) std::fill(has_predictor_.begin(), has_predictor_.end(), 0);
}

storage::IoCounters HistoricStream::FlashIoTotal() const {
  storage::IoCounters total;
  for (const storage::HistoryStore& s : stores_) total.Add(s.io());
  return total;
}

double HistoricStream::suppression_ratio() const {
  uint64_t decisions = reports_ + suppressed_;
  return decisions == 0 ? 0.0 : static_cast<double>(suppressed_) / static_cast<double>(decisions);
}

TopKResult HistoricStream::RunEpoch(sim::Epoch epoch) {
  gen_->PrepareEpoch(epoch);
  size_t n = stores_.size();
  // Local sampling and buffering (and flash archiving, when on): radio-silent.
  net_->SetPhase(kPhaseStore);
  last_delta_ = storage::WindowDelta{};
  for (size_t id = 1; id < n; ++id) {
    auto node = static_cast<sim::NodeId>(id);
    double v = gen_->Value(node, epoch);
    value_now_[id] = v;
    last_delta_ = stores_[id].Append(epoch, v);
  }
  return options_.incremental ? RunDeltaEpoch(epoch) : RunScratchEpoch(epoch);
}

TopKResult HistoricStream::RunDeltaEpoch(sim::Epoch epoch) {
  size_t n = stores_.size();
  auto key = static_cast<sim::GroupId>(epoch);
  bool suppressing = options_.suppression;
  if (suppressing) {
    // Suppression decisions run in id order before the wave, so the wave
    // callbacks only read shared state.
    for (size_t id = 1; id < n; ++id) {
      double v = value_now_[id];
      bool is_head = head_of_[id] == static_cast<sim::NodeId>(id);
      if (!is_head && has_predictor_[id] != 0 &&
          std::abs(v - predictor_[id]) <= options_.suppression_eps) {
        suppressed_now_[id] = 1;
        ++suppressed_;
        max_recon_err_ = std::max(max_recon_err_, std::abs(v - predictor_[id]));
      } else {
        suppressed_now_[id] = 0;
        predictor_[id] = v;
        has_predictor_[id] = 1;
        ++reports_;
      }
    }
  }

  net_->SetPhase(kPhaseDelta);
  using Msg = agg::GroupView;
  auto produce = [&](sim::NodeId node, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    Msg view;
    for (Msg& child : inbox) view.MergeView(std::move(child));
    if (node != sim::kSinkId) {
      if (!suppressing || suppressed_now_[node] == 0) {
        view.AddReading(key, value_now_[node]);
      }
      if (suppressing) {
        // The room head re-injects its silent members' predictors: the sink
        // still hears one (approximate) reading per sensor.
        for (sim::NodeId m : members_of_head_[node]) {
          if (suppressed_now_[m] != 0) {
            view.MergePartial(key, agg::PartialAgg::FromValue(predictor_[m]));
          }
        }
      }
      if (view.empty()) return std::nullopt;  // fully suppressed leaf: free
    }
    return view;
  };
  auto wire_bytes = [&](const Msg& m) {
    return kMsgHeaderBytes + agg::codec::ViewWireBytes(options_.agg, m.size());
  };
  auto sink = sim::UpWave<Msg>::Run(*net_, produce, wire_bytes, &ws_);

  agg::PartialAgg merged;
  if (sink.has_value()) {
    const agg::PartialAgg* p = sink->Find(key);
    if (p != nullptr) merged = *p;
  }
  // Windowed-incremental maintenance: every store slid identically, so the
  // last Append's delta names the epoch that left the window (if any).
  if (last_delta_.evicted) {
    window_view_.ApplyWindowDelta(static_cast<sim::GroupId>(last_delta_.evicted_epoch), key,
                                  merged);
  } else if (merged.count > 0) {
    window_view_.Set(key, merged);
  }

  TopKResult result;
  result.epoch = epoch;
  result.items = window_view_.TopK(options_.agg, static_cast<size_t>(options_.k));
  result.contributors = merged.count;
  result.StampCompleteness(net_->AliveAttachedSensors(), net_->EpochDegraded());
  return result;
}

TopKResult HistoricStream::RunScratchEpoch(sim::Epoch epoch) {
  net_->SetPhase(kPhaseScratch);
  auto key = static_cast<sim::GroupId>(epoch);
  using Msg = agg::GroupView;
  auto produce = [&](sim::NodeId node, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    Msg view;
    for (Msg& child : inbox) view.MergeView(std::move(child));
    if (node != sim::kSinkId) {
      // Ship the whole window, keyed by absolute epoch: the honest O(W*n)
      // per-epoch cost the delta path exists to avoid.
      const storage::HistoryStore& store = stores_[node];
      size_t fill = store.window_size();
      sim::Epoch first = epoch + 1 - static_cast<sim::Epoch>(fill);
      store.Window().ForEach([&](size_t t, double v) {
        view.AddReading(static_cast<sim::GroupId>(first + static_cast<sim::Epoch>(t)), v);
      });
    }
    return view;
  };
  auto wire_bytes = [&](const Msg& m) {
    return kMsgHeaderBytes + agg::codec::ViewWireBytes(options_.agg, m.size());
  };
  auto sink = sim::UpWave<Msg>::Run(*net_, produce, wire_bytes, &ws_);

  TopKResult result;
  result.epoch = epoch;
  if (sink.has_value()) {
    result.items = sink->TopK(options_.agg, static_cast<size_t>(options_.k));
    const agg::PartialAgg* newest = sink->Find(key);
    result.contributors = newest != nullptr ? newest->count : 0;
  }
  result.StampCompleteness(net_->AliveAttachedSensors(), net_->EpochDegraded());
  return result;
}

}  // namespace kspot::core
