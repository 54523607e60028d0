#include "core/select.hpp"

#include <algorithm>

#include "sim/waves.hpp"

namespace kspot::core {

bool EvalPredicate(const query::Predicate& predicate, double value) {
  switch (predicate.op) {
    case query::CompareOp::kLt: return value < predicate.literal;
    case query::CompareOp::kLe: return value <= predicate.literal;
    case query::CompareOp::kGt: return value > predicate.literal;
    case query::CompareOp::kGe: return value >= predicate.literal;
    case query::CompareOp::kEq: return value == predicate.literal;
    case query::CompareOp::kNe: return value != predicate.literal;
  }
  return false;
}

BasicSelect::BasicSelect(sim::Network* net, data::DataGenerator* gen, bool has_predicate,
                         query::Predicate predicate)
    : net_(net), gen_(gen), has_predicate_(has_predicate), predicate_(predicate) {}

std::vector<SelectTuple> BasicSelect::RunEpoch(sim::Epoch epoch) {
  using Msg = std::vector<SelectTuple>;
  static const sim::PhaseId kPhaseCollect = sim::Network::InternPhase("select.collect");
  net_->SetPhase(kPhaseCollect);
  // Lane aware: a node's tuples are built from its inbox and its own reading.
  auto produce = [&](sim::NodeId node, std::vector<Msg>&& inbox, size_t) -> std::optional<Msg> {
    // The first child's tuples are taken over, not copied, and the buffer
    // grows at most once to hold the rest.
    size_t total = 1;
    for (const Msg& child : inbox) total += child.size();
    Msg out;
    for (Msg& child : inbox) {
      if (out.empty()) {
        out = std::move(child);
        out.reserve(total);
      } else {
        out.insert(out.end(), child.begin(), child.end());
      }
    }
    if (node != sim::kSinkId) {
      double value = gen_->Value(node, epoch);
      if (!has_predicate_ || EvalPredicate(predicate_, value)) {
        SelectTuple t;
        t.node = node;
        t.room = net_->topology().room(node);
        t.value = value;
        out.push_back(t);
      }
      // Acquisitional filtering: a node (and whole subtree) with nothing to
      // report stays silent.
      if (out.empty()) return std::nullopt;
    }
    return out;
  };
  auto wire_bytes = [&](const Msg& m) { return kMsgHeaderBytes + kTupleBytes * m.size(); };
  auto sink = sim::UpWave<Msg>::Run(*net_, produce, wire_bytes, &wave_ws_);
  std::vector<SelectTuple> rows = sink.value_or(Msg{});
  std::sort(rows.begin(), rows.end(),
            [](const SelectTuple& a, const SelectTuple& b) { return a.node < b.node; });
  return rows;
}

}  // namespace kspot::core
