#include "kspot/system_panel.hpp"

#include <sstream>

#include "util/string_util.hpp"

namespace kspot::system {

namespace {

/// Percentage saved versus a baseline quantity (0 when baseline is 0).
double SavingsPercent(double baseline, double mine) {
  if (baseline <= 0.0) return 0.0;
  return 100.0 * (baseline - mine) / baseline;
}

}  // namespace

void SystemPanel::RecordKspotEpoch(const sim::TrafficCounters& epoch_delta) {
  kspot_.Add(epoch_delta);
  ++epochs_;
}

void SystemPanel::RecordBaselineEpoch(const sim::TrafficCounters& epoch_delta) {
  baseline_.Add(epoch_delta);
}

void SystemPanel::RecordNodeStatus(const NodeStatus& status) { node_status_ = status; }

void SystemPanel::RecordMetrics(const obs::MetricsSnapshot& snapshot) { metrics_ = snapshot; }

double SystemPanel::MessageSavingsPercent() const {
  return SavingsPercent(static_cast<double>(baseline_.messages),
                        static_cast<double>(kspot_.messages));
}

double SystemPanel::ByteSavingsPercent() const {
  return SavingsPercent(static_cast<double>(baseline_.payload_bytes),
                        static_cast<double>(kspot_.payload_bytes));
}

double SystemPanel::EnergySavingsPercent() const {
  return SavingsPercent(baseline_.energy_j(), kspot_.energy_j());
}

std::string SystemPanel::Render() const {
  std::ostringstream oss;
  oss << "=== KSpot System Panel (cumulative over " << epochs_ << " epochs) ===\n";
  oss << "              " << "KSpot"
      << "        baseline(TAG)   savings\n";
  oss << "  messages    " << kspot_.messages << "          " << baseline_.messages << "        "
      << util::FormatDouble(MessageSavingsPercent(), 1) << "%\n";
  oss << "  bytes       " << kspot_.payload_bytes << "       " << baseline_.payload_bytes
      << "     " << util::FormatDouble(ByteSavingsPercent(), 1) << "%\n";
  oss << "  energy (J)  " << util::FormatDouble(kspot_.energy_j(), 4) << "      "
      << util::FormatDouble(baseline_.energy_j(), 4) << "      "
      << util::FormatDouble(EnergySavingsPercent(), 1) << "%\n";
  if (node_status_.total > 0) {
    oss << "  nodes up    " << node_status_.up << "/" << node_status_.total;
    if (node_status_.detached > 0) oss << " (" << node_status_.detached << " detached)";
    oss << "   tree repairs " << node_status_.repair_events << " ("
        << node_status_.repair_messages << " msgs)\n";
  }
  if (!metrics_.empty()) {
    oss << "  --- runtime metrics ---\n";
    for (const obs::CounterSample& c : metrics_.counters) {
      oss << "  counter  " << c.name;
      if (!c.label.empty()) oss << "{" << c.label << "}";
      oss << " = " << c.value << "\n";
    }
    for (const obs::GaugeSample& g : metrics_.gauges) {
      oss << "  gauge    " << g.name;
      if (!g.label.empty()) oss << "{" << g.label << "}";
      oss << " = " << util::FormatDouble(g.value, 3) << "\n";
    }
    for (const obs::HistogramSample& h : metrics_.histograms) {
      oss << "  histo    " << h.name;
      if (!h.label.empty()) oss << "{" << h.label << "}";
      oss << " n=" << h.dist.count << " mean=" << util::FormatDouble(h.dist.mean, 1)
          << " p50=" << util::FormatDouble(h.dist.p50, 1)
          << " p95=" << util::FormatDouble(h.dist.p95, 1)
          << " p99=" << util::FormatDouble(h.dist.p99, 1) << "\n";
    }
  }
  return oss.str();
}

}  // namespace kspot::system
