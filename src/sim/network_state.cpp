#include "sim/network_state.hpp"

namespace kspot::sim {

namespace {

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

void NetworkState::Reset(size_t num_nodes, double battery_j) {
  meters.assign(num_nodes, EnergyMeter(battery_j));
  up.assign(num_nodes, 1);
  extra_loss.assign(num_nodes, 0.0);
  sent_by.assign(num_nodes, 0);
  total = TrafficCounters{};
  by_phase.clear();
  phase_touched.clear();
  link_est.assign(num_nodes, LinkEstimator{});
  retry_budget_left.assign(num_nodes, 0);
  epoch_degraded = 0;
  truncated_nodes = 0;
}

}  // namespace kspot::sim
