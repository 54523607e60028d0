#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace kspot::sim {

namespace {

/// Process-global phase-label registry. Interning is rare (once per distinct
/// label per process for cached call sites), so one mutex covers it; labels
/// live in a deque for pointer stability.
struct PhaseRegistry {
  std::mutex mu;
  std::unordered_map<std::string, PhaseId> ids;
  std::deque<std::string> names;
};

PhaseRegistry& Registry() {
  static PhaseRegistry* registry = new PhaseRegistry();
  return *registry;
}

}  // namespace

PhaseId Network::InternPhase(std::string_view name) {
  PhaseRegistry& reg = Registry();
  std::string key(name);
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.ids.find(key);
  if (it != reg.ids.end()) return it->second;
  auto id = static_cast<PhaseId>(reg.names.size());
  reg.names.push_back(std::move(key));
  reg.ids.emplace(reg.names.back(), id);
  return id;
}

const std::string& Network::PhaseName(PhaseId id) {
  PhaseRegistry& reg = Registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.names.at(id);
}

Network::Network(const Topology* topology, const RoutingTree* tree, NetworkOptions options,
                 util::Rng rng)
    : topology_(topology), tree_(tree), options_(options), rng_(rng) {
  state_.Reset(topology->num_nodes(), options.battery_j);
  BeginReliabilityEpoch();
  static const PhaseId kDefaultPhase = InternPhase("default");
  SetPhase(kDefaultPhase);
}

void Network::SetPhase(PhaseId id) {
  if (phase_name_ != nullptr && id == phase_id_) return;
  if (id >= state_.by_phase.size()) {
    state_.by_phase.resize(id + 1);
    state_.phase_touched.resize(id + 1, 0);
  }
  phase_id_ = id;
  phase_name_ = &PhaseName(id);
  state_.phase_touched[id] = 1;
}

void Network::SetPhase(const std::string& phase) {
  if (phase_name_ != nullptr && phase == *phase_name_) return;
  SetPhase(InternPhase(phase));
}

TrafficCounters Network::PhaseTotal(const std::string& phase) const {
  PhaseRegistry& reg = Registry();
  PhaseId id;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.ids.find(phase);
    if (it == reg.ids.end()) return {};
    id = it->second;
  }
  return PhaseTotal(id);
}

TrafficCounters Network::PhaseTotal(PhaseId id) const {
  return id < state_.by_phase.size() ? state_.by_phase[id] : TrafficCounters{};
}

std::map<std::string, TrafficCounters> Network::by_phase() const {
  std::map<std::string, TrafficCounters> out;
  for (PhaseId id = 0; id < state_.by_phase.size(); ++id) {
    if (state_.phase_touched[id]) out.emplace(PhaseName(id), state_.by_phase[id]);
  }
  return out;
}

size_t Network::AliveCount() const {
  size_t n = 0;
  for (size_t i = 0; i < state_.meters.size(); ++i) {
    if (NodeAlive(static_cast<NodeId>(i))) ++n;
  }
  return n;
}

double Network::LinkLossProb(NodeId from, NodeId to) const {
  double p = options_.loss_prob;
  if (options_.edge_max_loss > 0.0 && topology_->comm_range() > 0.0) {
    double frac = Distance(topology_->position(from), topology_->position(to)) /
                  topology_->comm_range();
    double onset = options_.edge_onset;
    if (frac > onset && onset < 1.0) {
      double t = std::min(1.0, (frac - onset) / (1.0 - onset));
      double edge = options_.edge_max_loss * t * t;
      p = p + (1.0 - p) * edge;
    }
  }
  // Degradation episodes at either endpoint compound independently with the
  // link's baseline loss (each is one more way a frame can die).
  for (double extra : {state_.extra_loss[from], state_.extra_loss[to]}) {
    if (extra > 0.0) p = p + (1.0 - p) * std::min(1.0, extra);
  }
  // The compounding above keeps p in [0, 1] for in-range inputs, but a
  // configured edge_max_loss > 1 (or a baseline outside [0, 1]) could push
  // it out, and a probability > 1 silently breaks the Bernoulli draws.
  return std::clamp(p, 0.0, 1.0);
}

void Network::BeginReliabilityEpoch() {
  std::fill(state_.retry_budget_left.begin(), state_.retry_budget_left.end(),
            options_.reliability.retry_budget);
  state_.epoch_degraded = 0;
  state_.truncated_nodes = 0;
}

void Network::MarkEpochDegraded(uint32_t truncated) {
  state_.epoch_degraded = 1;
  state_.truncated_nodes += truncated;
}

uint32_t Network::ApplyWaveDepthBudget(int depth_cap) {
  uint32_t cut = 0;
  for (NodeId node : tree_->wave_order()) {
    if (tree_->depth(node) > static_cast<size_t>(depth_cap) && NodeAlive(node)) ++cut;
  }
  if (cut > 0) MarkEpochDegraded(cut);
  return cut;
}

size_t Network::AliveAttachedSensors() const {
  size_t n = 0;
  for (size_t i = 1; i < state_.meters.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    if (NodeAlive(id) && tree_->attached(id)) ++n;
  }
  return n;
}

int Network::PlannedAttempts(double ewma_loss) const {
  const ReliabilityOptions& rel = options_.reliability;
  int cap = std::max(1, rel.max_retries + 1);
  if (!(ewma_loss > 0.0)) return 1;   // clean link: one attempt suffices
  if (ewma_loss >= 1.0) return cap;   // blackout: spend the whole allowance
  double need = std::log(std::max(rel.residual_target, 1e-12)) / std::log(ewma_loss);
  if (!(need > 1.0)) return 1;
  if (need >= static_cast<double>(cap)) return cap;
  return static_cast<int>(std::ceil(need));
}

bool Network::ReliableUnicast(NodeId sender, NodeId receiver, NodeId link_slot,
                              size_t payload_bytes, TrafficCounters& delta) {
  const ReliabilityOptions& rel = options_.reliability;
  size_t frames = options_.radio.FramesForPayload(payload_bytes);
  double link_loss = LinkLossProb(sender, receiver);
  // The EWMA samples *message*-level outcomes, so planning works at message
  // level too: a message dies when any of its frames does.
  double msg_loss =
      frames <= 1 ? link_loss : 1.0 - std::pow(1.0 - link_loss, static_cast<double>(frames));
  LinkEstimator& est = state_.link_est[link_slot];
  NodeId other = link_slot == sender ? receiver : sender;
  if (est.to != other) {
    // First sighting of this link (or churn re-parented the node): the prior
    // is the loss model's own message loss, so even the first message
    // schedules a sensible attempt count.
    est.to = other;
    est.ewma = msg_loss;
  }
  bool delivered = false;
  // The model's own loss floors the estimate: the EWMA adapts *upward* when
  // the link runs worse than modeled (episodes, interference), but a lucky
  // streak of binary samples must not talk the policy into under-retrying a
  // link the model says is lossy.
  int attempts = PlannedAttempts(std::max(est.ewma, msg_loss));
  for (int attempt = 0; attempt < attempts && !delivered; ++attempt) {
    if (!NodeAlive(sender)) break;
    if (attempt > 0) {
      if (rel.retry_budget > 0) {
        if (state_.retry_budget_left[sender] == 0) break;
        --state_.retry_budget_left[sender];
      }
      uint64_t backoff = attempt - 1 >= 30
                             ? rel.backoff_cap_us
                             : std::min(rel.backoff_cap_us, rel.backoff_base_us
                                                                << (attempt - 1));
      // The radio idles in receive mode while it waits out the backoff, so
      // the wait is charged at the rx draw (idle-listen energy).
      double idle_j = options_.energy.RxEnergy(1e-6 * static_cast<double>(backoff));
      state_.meters[sender].AddRx(idle_j);
      delta.rx_energy_j += idle_j;
      delta.retries += 1;
      delta.backoff_us += backoff;
    }
    ChargeTx(sender, payload_bytes, delta);
    bool lost = false;
    for (size_t f = 0; f < frames && !lost; ++f) {
      lost = rng_.NextBernoulli(link_loss);
    }
    est.ewma = rel.ewma_alpha * (lost ? 1.0 : 0.0) + (1.0 - rel.ewma_alpha) * est.ewma;
    if (!lost && NodeAlive(receiver)) {
      double rx_j = options_.energy.RxEnergy(options_.radio.AirtimeSeconds(payload_bytes));
      state_.meters[receiver].AddRx(rx_j);
      delta.rx_energy_j += rx_j;
      delivered = true;
    }
  }
  return delivered;
}

void Network::ChargeTx(NodeId sender, size_t payload_bytes, TrafficCounters& counters) {
  const RadioModel& radio = options_.radio;
  double airtime = radio.AirtimeSeconds(payload_bytes);
  double tx_j = options_.energy.TxEnergy(airtime);
  state_.meters[sender].AddTx(tx_j);
  state_.sent_by[sender] += 1;
  counters.messages += 1;
  counters.frames += radio.FramesForPayload(payload_bytes);
  counters.payload_bytes += payload_bytes;
  counters.onair_bytes += radio.OnAirBytes(payload_bytes);
  counters.tx_energy_j += tx_j;
}

bool Network::UnicastToParent(NodeId child, size_t payload_bytes) {
  NodeId parent = tree_->parent(child);
  if (parent == kNoNode) return false;
  if (!NodeAlive(child)) return false;
  TrafficCounters delta;
  bool delivered = false;
  if (options_.reliability.enabled) {
    delivered = ReliableUnicast(child, parent, child, payload_bytes, delta);
  } else {
    // Per-frame loss: the message survives an attempt only if every fragment does.
    size_t frames = options_.radio.FramesForPayload(payload_bytes);
    double link_loss = LinkLossProb(child, parent);
    for (int attempt = 0; attempt <= options_.max_retries && !delivered; ++attempt) {
      if (!NodeAlive(child)) break;
      ChargeTx(child, payload_bytes, delta);
      bool lost = false;
      for (size_t f = 0; f < frames && !lost; ++f) {
        lost = rng_.NextBernoulli(link_loss);
      }
      if (!lost && NodeAlive(parent)) {
        double rx_j = options_.energy.RxEnergy(options_.radio.AirtimeSeconds(payload_bytes));
        state_.meters[parent].AddRx(rx_j);
        delta.rx_energy_j += rx_j;
        delivered = true;
      }
    }
  }
  state_.total.Add(delta);
  state_.by_phase[phase_id_].Add(delta);
  // backoff_us is zero unless the reliability layer waited out retries.
  events_.AdvanceTo(events_.now() + options_.radio.AirtimeMicros(payload_bytes) +
                    delta.backoff_us);
  return delivered;
}

bool Network::UnicastUpPath(NodeId from, size_t payload_bytes) {
  if (!tree_->attached(from)) return false;  // stranded by churn: no route
  NodeId cur = from;
  while (cur != kSinkId) {
    if (!UnicastToParent(cur, payload_bytes)) return false;
    cur = tree_->parent(cur);
  }
  return true;
}

bool Network::UnicastDownPath(NodeId target, size_t payload_bytes) {
  if (!tree_->attached(target)) return false;  // stranded by churn: no route
  // Collect the sink -> target path, then charge each hop as a unicast with
  // the same loss/retry discipline as the upward direction.
  std::vector<NodeId> path;
  for (NodeId cur = target; cur != kNoNode; cur = tree_->parent(cur)) path.push_back(cur);
  // path = [target, ..., sink]; walk it top-down.
  for (size_t i = path.size(); i-- > 1;) {
    NodeId sender = path[i];
    NodeId receiver = path[i - 1];
    if (!NodeAlive(sender)) return false;
    TrafficCounters delta;
    bool delivered = false;
    if (options_.reliability.enabled) {
      // Down traffic shares the child-endpoint estimator slot with up traffic
      // (the link is the same; LinkLossProb is symmetric).
      delivered = ReliableUnicast(sender, receiver, receiver, payload_bytes, delta);
    } else {
      size_t frames = options_.radio.FramesForPayload(payload_bytes);
      double link_loss = LinkLossProb(sender, receiver);
      for (int attempt = 0; attempt <= options_.max_retries && !delivered; ++attempt) {
        ChargeTx(sender, payload_bytes, delta);
        bool lost = false;
        for (size_t f = 0; f < frames && !lost; ++f) {
          lost = rng_.NextBernoulli(link_loss);
        }
        if (!lost && NodeAlive(receiver)) {
          double rx_j = options_.energy.RxEnergy(options_.radio.AirtimeSeconds(payload_bytes));
          state_.meters[receiver].AddRx(rx_j);
          delta.rx_energy_j += rx_j;
          delivered = true;
        }
      }
    }
    state_.total.Add(delta);
    state_.by_phase[phase_id_].Add(delta);
    events_.AdvanceTo(events_.now() + options_.radio.AirtimeMicros(payload_bytes) +
                      delta.backoff_us);
    if (!delivered) return false;
  }
  return true;
}

std::vector<NodeId> Network::BroadcastToChildren(NodeId node, size_t payload_bytes) {
  std::vector<NodeId> delivered;
  const auto& kids = tree_->children(node);
  if (kids.empty()) return delivered;
  if (!NodeAlive(node)) return delivered;
  TrafficCounters delta;
  ChargeTx(node, payload_bytes, delta);
  size_t frames = options_.radio.FramesForPayload(payload_bytes);
  double rx_airtime = options_.radio.AirtimeSeconds(payload_bytes);
  for (NodeId child : kids) {
    if (!NodeAlive(child)) continue;
    bool lost = false;
    double link_loss = LinkLossProb(node, child);
    for (size_t f = 0; f < frames && !lost; ++f) {
      lost = rng_.NextBernoulli(link_loss);
    }
    // Listening children pay receive energy whether or not the CRC passes.
    double rx_j = options_.energy.RxEnergy(rx_airtime);
    state_.meters[child].AddRx(rx_j);
    delta.rx_energy_j += rx_j;
    if (!lost) delivered.push_back(child);
  }
  state_.total.Add(delta);
  state_.by_phase[phase_id_].Add(delta);
  events_.AdvanceTo(events_.now() + options_.radio.AirtimeMicros(payload_bytes));
  return delivered;
}

void Network::ChargeStorageIo(NodeId node, uint64_t reads, uint64_t writes, uint64_t bytes,
                              double energy_j) {
  state_.meters[node].AddStorage(energy_j);
  TrafficCounters delta;
  delta.flash_reads = reads;
  delta.flash_writes = writes;
  delta.flash_bytes = bytes;
  delta.flash_energy_j = energy_j;
  state_.total.Add(delta);
  state_.by_phase[phase_id_].Add(delta);
}

void Network::DeliverControl(NodeId from, NodeId to, size_t payload_bytes) {
  TrafficCounters delta;
  ChargeTx(from, payload_bytes, delta);
  double rx_j = options_.energy.RxEnergy(options_.radio.AirtimeSeconds(payload_bytes));
  state_.meters[to].AddRx(rx_j);
  delta.rx_energy_j += rx_j;
  state_.total.Add(delta);
  state_.by_phase[phase_id_].Add(delta);
  events_.AdvanceTo(events_.now() + options_.radio.AirtimeMicros(payload_bytes));
}

}  // namespace kspot::sim
