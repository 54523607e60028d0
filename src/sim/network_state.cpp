#include "sim/network_state.hpp"

namespace kspot::sim {

void TrafficCounters::Add(const TrafficCounters& other) {
  messages += other.messages;
  frames += other.frames;
  payload_bytes += other.payload_bytes;
  onair_bytes += other.onair_bytes;
  retries += other.retries;
  backoff_us += other.backoff_us;
  flash_reads += other.flash_reads;
  flash_writes += other.flash_writes;
  flash_bytes += other.flash_bytes;
  tx_energy_j += other.tx_energy_j;
  rx_energy_j += other.rx_energy_j;
  flash_energy_j += other.flash_energy_j;
}

TrafficCounters TrafficCounters::Since(const TrafficCounters& earlier) const {
  TrafficCounters d;
  d.messages = messages - earlier.messages;
  d.frames = frames - earlier.frames;
  d.payload_bytes = payload_bytes - earlier.payload_bytes;
  d.onair_bytes = onair_bytes - earlier.onair_bytes;
  d.retries = retries - earlier.retries;
  d.backoff_us = backoff_us - earlier.backoff_us;
  d.flash_reads = flash_reads - earlier.flash_reads;
  d.flash_writes = flash_writes - earlier.flash_writes;
  d.flash_bytes = flash_bytes - earlier.flash_bytes;
  d.tx_energy_j = tx_energy_j - earlier.tx_energy_j;
  d.rx_energy_j = rx_energy_j - earlier.rx_energy_j;
  d.flash_energy_j = flash_energy_j - earlier.flash_energy_j;
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
