#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "sim/radio_model.hpp"

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

/// The ledger the calling thread's LedgerScope bound, if any.
thread_local ChargeLedger* t_bound_ledger = nullptr;
/// The pool the calling thread's PoolScope bound, and to which network.
thread_local util::SharedTaskPool* t_bound_pool = nullptr;
thread_local const Network* t_pool_net = nullptr;

/// EWMA smoothing factor of the adaptive ARQ's per-link loss estimator.
constexpr double kEwmaAlpha = 0.25;
/// First-retry backoff; doubles per further retry up to kBackoffCapUs.
constexpr uint64_t kBackoffBaseUs = 500;
constexpr uint64_t kBackoffCapUs = 8000;

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
  // A NaN loss would draw the RNG for every frame and never lose one; a
  // negative retry count would run no attempt, so every unicast would
  // vanish uncharged. Both are configuration errors, not loss models.
  if (!(options.loss_prob >= 0.0 && options.loss_prob <= 1.0)) {
    std::fprintf(stderr, "sim::Network: loss_prob %g is outside [0, 1]\n", options.loss_prob);
    std::abort();
  }
  if (options.max_retries < 0) {
    std::fprintf(stderr, "sim::Network: max_retries %d is negative\n", options.max_retries);
    std::abort();
  }
  state_.Reset(topology->num_nodes(), options.battery_j);
  BeginReliabilityEpoch();
  static const PhaseId kDefaultPhase = InternPhase("default");
  SetPhase(kDefaultPhase);
}

void ChargeLedger::Clear(size_t expected_charges) {
  clock_ = Clock{};
  phase_ = kInheritedPhase;
  words_.clear();
  joules_.clear();
  words_.reserve(expected_charges);
  joules_.reserve(expected_charges);
  booked_ = 0;
  std::fill(phase_counts_.begin(), phase_counts_.end(), TrafficCounters{});
  std::fill(phase_touched_.begin(), phase_touched_.end(), 0);
  inherited_counts_ = TrafficCounters{};
}

Network::LedgerScope::LedgerScope(const Network& net, ChargeLedger* ledger) {
  if (net.topology().num_nodes() > ChargeLedger::kIdMask) {
    throw std::length_error("ChargeLedger: node ids do not fit a journal word");
  }
  ledger->net_ = &net;
  t_bound_ledger = ledger;
}

Network::LedgerScope::~LedgerScope() { t_bound_ledger = nullptr; }

Network::PoolScope::PoolScope(const Network& net, util::SharedTaskPool* pool) {
  t_bound_pool = pool;
  t_pool_net = &net;
}

Network::PoolScope::~PoolScope() {
  t_bound_pool = nullptr;
  t_pool_net = nullptr;
}

util::SharedTaskPool* Network::BoundPool() const {
  return t_pool_net == this && BoundLedger() == nullptr ? t_bound_pool : nullptr;
}

ChargeLedger* Network::BoundLedger() const {
  ChargeLedger* ledger = t_bound_ledger;
  return ledger != nullptr && ledger->net_ == this ? ledger : nullptr;
}

void Network::TouchPhase(PhaseId id) {
  if (id >= state_.by_phase.size()) {
    state_.by_phase.resize(id + 1);
    state_.phase_touched.resize(id + 1, 0);
  }
  state_.phase_touched[id] = 1;
}

void Network::SetPhase(PhaseId id) {
  if (ChargeLedger* ledger = BoundLedger()) {
    if (id == ledger->phase_) return;
    if (id >= ledger->phase_counts_.size()) {
      ledger->phase_counts_.resize(id + 1);
      ledger->phase_touched_.resize(id + 1, 0);
    }
    ledger->phase_ = id;
    ledger->phase_touched_[id] = 1;
    ledger->words_.push_back(ChargeLedger::kPhase | id);
    ledger->booked_ = ledger->words_.size();
    return;
  }
  if (phase_name_ != nullptr && id == phase_id_) return;
  TouchPhase(id);
  phase_id_ = id;
  phase_name_ = &PhaseName(id);
}

void Network::SetPhase(const std::string& phase) {
  if (BoundLedger() == nullptr && phase_name_ != nullptr && phase == *phase_name_) return;
  SetPhase(InternPhase(phase));
}

const std::string& Network::phase() const {
  ChargeLedger* ledger = BoundLedger();
  if (ledger == nullptr || ledger->phase_ == ChargeLedger::kInheritedPhase) return *phase_name_;
  return PhaseName(ledger->phase_);
}

PhaseId Network::phase_id() const {
  ChargeLedger* ledger = BoundLedger();
  if (ledger == nullptr || ledger->phase_ == ChargeLedger::kInheritedPhase) return phase_id_;
  return ledger->phase_;
}

Clock& Network::events() {
  ChargeLedger* ledger = BoundLedger();
  return ledger != nullptr ? ledger->clock_ : clock_;
}

const Clock& Network::events() const {
  ChargeLedger* ledger = BoundLedger();
  return ledger != nullptr ? ledger->clock_ : clock_;
}

bool Network::CanJournalCharges() const {
  return options_.loss_prob == 0.0 && options_.edge_max_loss == 0.0 &&
         !options_.reliability.enabled && options_.battery_j <= 0.0;
}

void Network::Replay(const ChargeLedger& ledger) {
  ChargeLedger::Cursor at;
  ReplayBookings(ledger, at, ledger.mark());
  ReplayCounts(ledger);
}

void Network::ReplayBookings(const ChargeLedger& ledger, ChargeLedger::Cursor& at, size_t until) {
  // Traffic charged before the ledger's first SetPhase belongs to the phase
  // this network is in now, exactly where a direct run would have put it.
  const PhaseId inherited = phase_id_;
  PhaseId phase = at.phase_ == ChargeLedger::kInheritedPhase ? inherited : at.phase_;
  // The energy sums of the total and the current phase are added in
  // registers, in booking order, and stored back on a phase switch and at
  // the end: the same additions in the same order as booking them in place.
  double total[2] = {state_.total.tx_energy_j, state_.total.rx_energy_j};
  double in_phase[2];
  auto load = [&] {
    const TrafficCounters& c = state_.by_phase[phase];
    in_phase[0] = c.tx_energy_j;
    in_phase[1] = c.rx_energy_j;
  };
  auto store = [&] {
    TrafficCounters& c = state_.by_phase[phase];
    c.tx_energy_j = in_phase[0];
    c.rx_energy_j = in_phase[1];
  };
  load();
  double delta[2] = {0.0, 0.0};  // energy of the booking in progress
  const double* joules = ledger.joules_.data() + at.joule_;
  for (; at.word_ < until; ++at.word_) {
    const uint32_t word = ledger.words_[at.word_];
    const uint32_t id = word & ChargeLedger::kIdMask;
    switch (word & ChargeLedger::kKindMask) {
      case ChargeLedger::kPhase:
        store();
        at.phase_ = id;
        phase = id == ChargeLedger::kInheritedPhase ? inherited : id;
        TouchPhase(phase);
        load();
        continue;
      case ChargeLedger::kTx:
        state_.meters[id].AddTx(*joules);
        state_.sent_by[id] += 1;
        delta[0] += *joules++;
        break;
      case ChargeLedger::kRx:
        state_.meters[id].AddRx(*joules);
        delta[1] += *joules++;
        break;
    }
    if ((word & ChargeLedger::kEndsBooking) == 0) continue;
    for (int f = 0; f < 2; ++f) {
      total[f] += delta[f];
      in_phase[f] += delta[f];
      delta[f] = 0.0;
    }
  }
  store();
  state_.total.tx_energy_j = total[0];
  state_.total.rx_energy_j = total[1];
  at.joule_ = static_cast<size_t>(joules - ledger.joules_.data());
}

void Network::ReplayCounts(const ChargeLedger& ledger) {
  const PhaseId inherited = phase_id_;
  state_.total.AddCounts(ledger.inherited_counts_);
  state_.by_phase[inherited].AddCounts(ledger.inherited_counts_);
  for (PhaseId id = 0; id < ledger.phase_touched_.size(); ++id) {
    if (!ledger.phase_touched_[id]) continue;
    TouchPhase(id);
    state_.total.AddCounts(ledger.phase_counts_[id]);
    state_.by_phase[id].AddCounts(ledger.phase_counts_[id]);
  }
  clock_.JumpTo(clock_.now() + ledger.clock_.now());
  if (ledger.phase_ != ChargeLedger::kInheritedPhase) SetPhase(ledger.phase_);
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
  // The compounding above keeps p in [0, 1] for in-range inputs (the
  // constructor rejects a baseline outside it), but a configured
  // edge_max_loss > 1 could push it out, and a probability > 1 silently
  // breaks the Bernoulli draws.
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
    if (tree_->depth(node) > depth_cap && NodeAlive(node)) ++cut;
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
  if (ewma_loss >= 1.0) return cap;   // a link at loss 1.0: spend the whole allowance
  double need = std::log(std::max(rel.residual_target, 1e-12)) / std::log(ewma_loss);
  if (!(need > 1.0)) return 1;
  if (need >= static_cast<double>(cap)) return cap;
  return static_cast<int>(std::ceil(need));
}

Network::MessageCost::MessageCost(size_t bytes)
    : payload_bytes(bytes),
      frames(RadioModel::FramesForPayload(bytes)),
      onair_bytes(RadioModel::OnAirBytes(bytes)),
      airtime_s(RadioModel::AirtimeSeconds(bytes)),
      airtime_us(RadioModel::AirtimeMicros(bytes)),
      tx_j(EnergyModel::TxEnergy(airtime_s)),
      rx_j(EnergyModel::RxEnergy(airtime_s)) {}

bool Network::ReliableUnicast(NodeId sender, NodeId receiver, NodeId link_slot,
                              const MessageCost& cost, TrafficCounters& delta) {
  const ReliabilityOptions& rel = options_.reliability;
  double link_loss = LinkLossProb(sender, receiver);
  // The EWMA samples *message*-level outcomes, so planning works at message
  // level too: a message dies when any of its frames does.
  double msg_loss =
      cost.frames <= 1 ? link_loss
                       : 1.0 - std::pow(1.0 - link_loss, static_cast<double>(cost.frames));
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
                             ? kBackoffCapUs
                             : std::min(kBackoffCapUs, kBackoffBaseUs << (attempt - 1));
      // The radio idles in receive mode while it waits out the backoff, so
      // the wait is charged at the rx draw (idle-listen energy).
      double idle_j = EnergyModel::RxEnergy(1e-6 * static_cast<double>(backoff));
      ChargeRx(sender, idle_j, delta);
      delta.retries += 1;
      delta.backoff_us += backoff;
    }
    ChargeTx(sender, cost, delta);
    bool lost = false;
    for (size_t f = 0; f < cost.frames && !lost; ++f) {
      lost = rng_.NextBernoulli(link_loss);
    }
    est.ewma = kEwmaAlpha * (lost ? 1.0 : 0.0) + (1.0 - kEwmaAlpha) * est.ewma;
    if (!lost && NodeAlive(receiver)) {
      ChargeRx(receiver, cost.rx_j, delta);
      delivered = true;
    }
  }
  return delivered;
}

void Network::ChargeTx(NodeId sender, const MessageCost& cost, TrafficCounters& delta) {
  if (ChargeLedger* ledger = BoundLedger()) {
    ledger->Charge(ChargeLedger::kTx, sender, cost.tx_j);
  } else {
    state_.meters[sender].AddTx(cost.tx_j);
    state_.sent_by[sender] += 1;
  }
  delta.messages += 1;
  delta.frames += cost.frames;
  delta.payload_bytes += cost.payload_bytes;
  delta.onair_bytes += cost.onair_bytes;
  delta.tx_energy_j += cost.tx_j;
}

void Network::ChargeRx(NodeId node, double joules, TrafficCounters& delta) {
  if (ChargeLedger* ledger = BoundLedger()) {
    ledger->Charge(ChargeLedger::kRx, node, joules);
  } else {
    state_.meters[node].AddRx(joules);
  }
  delta.rx_energy_j += joules;
}

void Network::Book(const TrafficCounters& delta) {
  ChargeLedger* ledger = BoundLedger();
  if (ledger == nullptr) {
    state_.total.Add(delta);
    state_.by_phase[phase_id_].Add(delta);
    return;
  }
  const PhaseId phase = ledger->phase_;
  TrafficCounters& counts = phase == ChargeLedger::kInheritedPhase ? ledger->inherited_counts_
                                                                  : ledger->phase_counts_[phase];
  counts.AddCounts(delta);
  // A delta without charges carries no energy; its counters are summed above.
  if (ledger->words_.size() > ledger->booked_) {
    ledger->words_.back() |= ChargeLedger::kEndsBooking;
    ledger->booked_ = ledger->words_.size();
  }
}

bool Network::FlatUnicast(NodeId sender, NodeId receiver, const MessageCost& cost,
                          TrafficCounters& delta) {
  // Per-frame loss: the message survives an attempt only if every fragment does.
  double link_loss = LinkLossProb(sender, receiver);
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (!NodeAlive(sender)) return false;
    ChargeTx(sender, cost, delta);
    bool lost = false;
    for (size_t f = 0; f < cost.frames && !lost; ++f) {
      lost = rng_.NextBernoulli(link_loss);
    }
    if (!lost && NodeAlive(receiver)) {
      ChargeRx(receiver, cost.rx_j, delta);
      return true;
    }
  }
  return false;
}

bool Network::UnicastHop(NodeId sender, NodeId receiver, NodeId link_slot,
                         const MessageCost& cost) {
  TrafficCounters delta;
  bool delivered = options_.reliability.enabled
                       ? ReliableUnicast(sender, receiver, link_slot, cost, delta)
                       : FlatUnicast(sender, receiver, cost, delta);
  Book(delta);
  // backoff_us is zero unless the reliability layer waited out retries.
  Clock& clock = events();
  clock.AdvanceTo(clock.now() + cost.airtime_us + delta.backoff_us);
  return delivered;
}

bool Network::UnicastToParent(NodeId child, size_t payload_bytes) {
  NodeId parent = tree_->parent(child);
  if (parent == kNoNode) return false;
  if (!NodeAlive(child)) return false;
  return UnicastHop(child, parent, child, MessageCost(payload_bytes));
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
  // path = [target, ..., sink]; walk it top-down. Down traffic shares the
  // child-endpoint estimator slot with up traffic (the link is the same;
  // LinkLossProb is symmetric).
  const MessageCost cost(payload_bytes);
  for (size_t i = path.size(); i-- > 1;) {
    NodeId sender = path[i];
    NodeId receiver = path[i - 1];
    if (!NodeAlive(sender)) return false;
    if (!UnicastHop(sender, receiver, receiver, cost)) return false;
  }
  return true;
}

std::vector<NodeId> Network::BroadcastToChildren(NodeId node, size_t payload_bytes) {
  std::vector<NodeId> delivered;
  const auto& kids = tree_->children(node);
  if (kids.empty()) return delivered;
  if (!NodeAlive(node)) return delivered;
  const MessageCost cost(payload_bytes);
  TrafficCounters delta;
  ChargeTx(node, cost, delta);
  for (NodeId child : kids) {
    if (!NodeAlive(child)) continue;
    bool lost = false;
    double link_loss = LinkLossProb(node, child);
    for (size_t f = 0; f < cost.frames && !lost; ++f) {
      lost = rng_.NextBernoulli(link_loss);
    }
    // Listening children pay receive energy whether or not the CRC passes.
    ChargeRx(child, cost.rx_j, delta);
    if (!lost) delivered.push_back(child);
  }
  Book(delta);
  Clock& clock = events();
  clock.AdvanceTo(clock.now() + cost.airtime_us);
  return delivered;
}

void Network::DeliverControl(NodeId from, NodeId to, size_t payload_bytes) {
  const MessageCost cost(payload_bytes);
  TrafficCounters delta;
  ChargeTx(from, cost, delta);
  ChargeRx(to, cost.rx_j, delta);
  Book(delta);
  Clock& clock = events();
  clock.AdvanceTo(clock.now() + cost.airtime_us);
}

}  // namespace kspot::sim
