#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

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

/// Fraction of the radio range where gray-zone loss (edge_max_loss) starts.
constexpr double kEdgeOnset = 0.7;

/// EWMA smoothing factor of the adaptive ARQ's per-link loss estimator.
constexpr double kEwmaAlpha = 0.25;
/// First-retry backoff; doubles per further retry up to kBackoffCapUs.
constexpr uint64_t kBackoffBaseUs = 500;
constexpr uint64_t kBackoffCapUs = 8000;

// The one list of TrafficCounters' integer fields: Add, AddCounts and Since
// all apply `op` through it. A field added to the struct must be added here,
// which the size check below enforces.
static_assert(sizeof(TrafficCounters) == 6 * sizeof(uint64_t) + 2 * sizeof(double),
              "TrafficCounters changed: update ForEachCount");

template <typename Op>
void ForEachCount(TrafficCounters& to, const TrafficCounters& from, Op op) {
  op(to.messages, from.messages);
  op(to.frames, from.frames);
  op(to.payload_bytes, from.payload_bytes);
  op(to.onair_bytes, from.onair_bytes);
  op(to.retries, from.retries);
  op(to.backoff_us, from.backoff_us);
}

}  // namespace

void TrafficCounters::AddCounts(const TrafficCounters& other) {
  ForEachCount(*this, other, [](uint64_t& a, uint64_t b) { a += b; });
}

void TrafficCounters::Add(const TrafficCounters& other) {
  AddCounts(other);
  tx_energy_j += other.tx_energy_j;
  rx_energy_j += other.rx_energy_j;
}

TrafficCounters TrafficCounters::Since(const TrafficCounters& earlier) const {
  TrafficCounters d = *this;
  ForEachCount(d, earlier, [](uint64_t& a, uint64_t b) { a -= b; });
  d.tx_energy_j -= earlier.tx_energy_j;
  d.rx_energy_j -= earlier.rx_energy_j;
  return d;
}

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
    : topology_(topology),
      tree_(tree),
      options_(options),
      rng_(rng),
      meters_(topology->num_nodes(), EnergyMeter(options.battery_j)),
      up_(topology->num_nodes(), 1),
      extra_loss_(topology->num_nodes(), 0.0),
      sent_by_(topology->num_nodes(), 0),
      link_est_(topology->num_nodes()),
      retry_budget_left_(topology->num_nodes(), options.reliability.retry_budget) {
  // A NaN loss would draw the RNG for every frame and never lose one, and a
  // loss above 1 breaks the Bernoulli draws; a negative retry count would
  // run no attempt, so every unicast would vanish uncharged. All are
  // configuration errors, not loss models.
  for (auto [name, loss] : {std::pair{"loss_prob", options.loss_prob},
                            std::pair{"edge_max_loss", options.edge_max_loss}}) {
    if (!(loss >= 0.0 && loss <= 1.0)) {
      std::fprintf(stderr, "sim::Network: %s %g is outside [0, 1]\n", name, loss);
      std::abort();
    }
  }
  if (options.max_retries < 0) {
    std::fprintf(stderr, "sim::Network: max_retries %d is negative\n", options.max_retries);
    std::abort();
  }
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
  if (id >= by_phase_.size()) {
    by_phase_.resize(id + 1);
    phase_touched_.resize(id + 1, 0);
  }
  phase_touched_[id] = 1;
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
  double total[2] = {total_.tx_energy_j, total_.rx_energy_j};
  double in_phase[2];
  auto load = [&] {
    const TrafficCounters& c = by_phase_[phase];
    in_phase[0] = c.tx_energy_j;
    in_phase[1] = c.rx_energy_j;
  };
  auto store = [&] {
    TrafficCounters& c = by_phase_[phase];
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
        meters_[id].AddTx(*joules);
        sent_by_[id] += 1;
        delta[0] += *joules++;
        break;
      case ChargeLedger::kRx:
        meters_[id].AddRx(*joules);
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
  total_.tx_energy_j = total[0];
  total_.rx_energy_j = total[1];
  at.joule_ = static_cast<size_t>(joules - ledger.joules_.data());
}

void Network::ReplayCounts(const ChargeLedger& ledger) {
  const PhaseId inherited = phase_id_;
  total_.AddCounts(ledger.inherited_counts_);
  by_phase_[inherited].AddCounts(ledger.inherited_counts_);
  for (PhaseId id = 0; id < ledger.phase_touched_.size(); ++id) {
    if (!ledger.phase_touched_[id]) continue;
    TouchPhase(id);
    total_.AddCounts(ledger.phase_counts_[id]);
    by_phase_[id].AddCounts(ledger.phase_counts_[id]);
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
  return id < by_phase_.size() ? by_phase_[id] : TrafficCounters{};
}

std::map<std::string, TrafficCounters> Network::by_phase() const {
  std::map<std::string, TrafficCounters> out;
  for (PhaseId id = 0; id < by_phase_.size(); ++id) {
    if (phase_touched_[id]) out.emplace(PhaseName(id), by_phase_[id]);
  }
  return out;
}

size_t Network::AliveCount() const {
  size_t n = 0;
  for (size_t i = 0; i < meters_.size(); ++i) {
    if (NodeAlive(static_cast<NodeId>(i))) ++n;
  }
  return n;
}

double Network::LinkLossProb(NodeId from, NodeId to) const {
  double p = options_.loss_prob;
  if (options_.edge_max_loss > 0.0 && topology_->comm_range() > 0.0) {
    double frac = Distance(topology_->position(from), topology_->position(to)) /
                  topology_->comm_range();
    if (frac > kEdgeOnset) {
      double t = std::min(1.0, (frac - kEdgeOnset) / (1.0 - kEdgeOnset));
      double edge = options_.edge_max_loss * t * t;
      p = p + (1.0 - p) * edge;
    }
  }
  // Degradation episodes at either endpoint compound independently with the
  // link's baseline loss (each is one more way a frame can die).
  for (double extra : {extra_loss_[from], extra_loss_[to]}) {
    if (extra > 0.0) p = p + (1.0 - p) * std::min(1.0, extra);
  }
  // The compounding keeps p in [0, 1] (the constructor rejects a baseline or
  // gray-zone loss outside it); the clamp pins the bounds against rounding,
  // since a probability > 1 silently breaks the Bernoulli draws.
  return std::clamp(p, 0.0, 1.0);
}

void Network::BeginReliabilityEpoch() {
  std::fill(retry_budget_left_.begin(), retry_budget_left_.end(),
            options_.reliability.retry_budget);
  epoch_degraded_ = 0;
  truncated_nodes_ = 0;
}

void Network::MarkEpochDegraded(uint32_t truncated) {
  epoch_degraded_ = 1;
  truncated_nodes_ += truncated;
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
  for (size_t i = 1; i < meters_.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    if (NodeAlive(id) && tree_->attached(id)) ++n;
  }
  return n;
}

int Network::PlannedAttempts(double ewma_loss) const {
  const ReliabilityOptions& rel = options_.reliability;
  const int cap = options_.max_retries + 1;
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
  LinkEstimator& est = link_est_[link_slot];
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
        if (retry_budget_left_[sender] == 0) break;
        --retry_budget_left_[sender];
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
    meters_[sender].AddTx(cost.tx_j);
    sent_by_[sender] += 1;
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
    meters_[node].AddRx(joules);
  }
  delta.rx_energy_j += joules;
}

void Network::Book(const TrafficCounters& delta) {
  ChargeLedger* ledger = BoundLedger();
  if (ledger == nullptr) {
    total_.Add(delta);
    by_phase_[phase_id_].Add(delta);
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
