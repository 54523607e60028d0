#pragma once

#include <cstddef>

namespace kspot::sim {

/// First-order MICA2 energy model, fixed like the radio model (3 V supply;
/// CC1000 currents from the MICA2 datasheet, the same model used in the TAG /
/// TinyDB evaluations).
struct EnergyModel {
  /// Supply voltage, volts.
  static constexpr double voltage = 3.0;
  /// Radio transmit current, amperes (CC1000 at ~5 dBm).
  static constexpr double tx_current_a = 0.027;
  /// Radio receive/listen current, amperes.
  static constexpr double rx_current_a = 0.010;

  /// Energy to transmit for `airtime_s` seconds, joules.
  static constexpr double TxEnergy(double airtime_s) { return voltage * tx_current_a * airtime_s; }
  /// Energy to receive for `airtime_s` seconds, joules.
  static constexpr double RxEnergy(double airtime_s) { return voltage * rx_current_a * airtime_s; }
};

/// Per-node radio energy ledger with an optional battery budget; when the
/// budget is exhausted the node is considered dead (used for network-lifetime
/// studies).
class EnergyMeter {
 public:
  /// Creates a meter with `battery_j` joules of budget; <= 0 means unlimited.
  explicit EnergyMeter(double battery_j = 0.0) : battery_j_(battery_j) {}

  /// Records transmit energy.
  void AddTx(double joules) { tx_j_ += joules; }
  /// Records receive energy.
  void AddRx(double joules) { rx_j_ += joules; }

  /// Joules spent transmitting.
  double tx_joules() const { return tx_j_; }
  /// Joules spent receiving.
  double rx_joules() const { return rx_j_; }
  /// Total joules spent.
  double total_joules() const { return tx_j_ + rx_j_; }

  /// True while the node has battery left (or has no budget).
  bool alive() const { return battery_j_ <= 0.0 || total_joules() < battery_j_; }
  /// Remaining fraction of battery in [0,1]; 1 when unlimited.
  double remaining_fraction() const;

 private:
  double tx_j_ = 0.0;
  double rx_j_ = 0.0;
  double battery_j_ = 0.0;
};

}  // namespace kspot::sim
