#include "fault/churn_engine.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace kspot::fault {

namespace {

/// Join handshake payloads: type u8 + epoch u32 + node id u16.
constexpr size_t kJoinRequestBytes = 7;
constexpr size_t kJoinAcceptBytes = 7;

/// Salt separating the repair RNG stream from every other consumer of the
/// plan seed.
constexpr uint64_t kRepairSalt = 0x5EED'FA17'0000'0001ULL;

}  // namespace

ChurnEngine::ChurnEngine(sim::Network* net, sim::RoutingTree* tree, FaultPlan plan)
    : net_(net),
      tree_(tree),
      plan_(std::move(plan)),
      neighbors_(net->topology()) {
  size_t n = net_->topology().num_nodes();
  was_alive_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    was_alive_[i] = net_->NodeAlive(static_cast<sim::NodeId>(i)) ? 1 : 0;
  }
}

ChurnReport ChurnEngine::BeginEpoch(sim::Epoch epoch) {
  ChurnReport report;
  // 1) Scheduled events due this epoch (or skipped-over earlier ones).
  while (next_event_ < plan_.events.size() && plan_.events[next_event_].at <= epoch) {
    const FaultEvent& ev = plan_.events[next_event_++];
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
        net_->SetNodeUp(ev.node, false);
        ++report.crashes;
        break;
      case FaultEvent::Kind::kRecover:
        net_->SetNodeUp(ev.node, true);
        ++report.recoveries;
        break;
      case FaultEvent::Kind::kDegradeStart:
      case FaultEvent::Kind::kDegradeEnd:
        // The episode's loss passes through untouched (an end carries 0.0),
        // so 1.0 pins the node's links at exactly 1.0.
        net_->SetNodeExtraLoss(ev.node, ev.extra_loss);
        ++report.degrade_changes;
        break;
    }
  }
  // 2+3) Battery deaths and tree repair, iterated to a fixed point: the
  // repair's own join-handshake charges can drain a battery mid-repair, and
  // that death must be seen *this* epoch (marking was_alive_ as we count
  // keeps each death counted exactly once).
  size_t n = was_alive_.size();
  bool scheduled_membership = report.crashes + report.recoveries > 0;
  util::Rng repair_rng = util::Rng(plan_.seed ^ kRepairSalt).Split(epoch);
  while (true) {
    size_t deaths = 0;
    for (size_t i = 0; i < n; ++i) {
      auto id = static_cast<sim::NodeId>(i);
      if (was_alive_[i] && net_->NodeUp(id) && !net_->meter(id).alive()) {
        was_alive_[i] = 0;
        ++deaths;
      }
    }
    report.battery_deaths += deaths;
    if (!scheduled_membership && deaths == 0) break;
    scheduled_membership = false;
    // A dead sink is the end of the network, not a repairable fault: Repair
    // requires the sink up (it would otherwise re-attach everyone to a node
    // that can no longer receive). The epoch waves already skip a dead sink
    // and produce empty answers; the caller reads the sink's state off the
    // network.
    if (!net_->NodeAlive(sim::kSinkId)) break;
    static const uint32_t kRepairSpan = obs::GlobalTracer().InternName("fault.repair");
    obs::ScopedSpan repair_span(kRepairSpan);
    sim::RepairReport repair = tree_->Repair(
        neighbors_, [this](sim::NodeId id) { return net_->NodeAlive(id); }, repair_rng,
        &repair_workspace_);
    last_detached_ = repair.detached;
    report.detached = repair.detached;
    // Only an *actual* tree change notifies algorithms and counts as a
    // repair event: a scheduled crash of a node that already battery-died
    // (the plan cannot know about battery state) must not force MINT into a
    // spurious full rebuild.
    if (!repair.changed) continue;
    report.topology_changed = true;
    report.delta.Accumulate(repair);
    static const sim::PhaseId kPhaseRepair = sim::Network::InternPhase("fault.repair");
    net_->SetPhase(kPhaseRepair);
    for (const sim::RepairOp& op : repair.reattached) {
      net_->DeliverControl(op.node, op.new_parent, kJoinRequestBytes);
      net_->DeliverControl(op.new_parent, op.node, kJoinAcceptBytes);
      repair_messages_ += 2;
    }
    report.reattached += repair.reattached.size();
    total_reattached_ += repair.reattached.size();
  }
  if (report.topology_changed) ++repair_events_;
  for (size_t i = 0; i < n; ++i) {
    was_alive_[i] = net_->NodeAlive(static_cast<sim::NodeId>(i)) ? 1 : 0;
  }
  if (obs::MetricsOn()) {
    static obs::Counter& crashes = obs::Registry().counter("churn.crashes");
    static obs::Counter& recoveries = obs::Registry().counter("churn.recoveries");
    static obs::Counter& deaths = obs::Registry().counter("churn.battery_deaths");
    static obs::Counter& reattached = obs::Registry().counter("churn.reattached");
    static obs::Counter& repairs = obs::Registry().counter("churn.repair_events");
    crashes.Add(report.crashes);
    recoveries.Add(report.recoveries);
    deaths.Add(report.battery_deaths);
    reattached.Add(report.reattached);
    if (report.topology_changed) repairs.Add(1);
  }
  return report;
}

}  // namespace kspot::fault
