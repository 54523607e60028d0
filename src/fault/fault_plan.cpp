#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <queue>
#include <tuple>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace kspot::fault {

namespace {

/// Number of failed Bernoulli(p) trials before the next success, sampled
/// with a single uniform draw (inverse-CDF geometric skip). This is what
/// lets Generate jump straight from event to event instead of paying one
/// draw per node per epoch: the skip over the eligible-epoch axis has
/// exactly the distribution the per-trial loop realized.
uint64_t GeometricSkip(util::Rng& rng, double p) {
  double u = rng.NextDouble();  // [0, 1), so log1p(-u) is finite
  if (p >= 1.0) return 0;
  double g = std::floor(std::log1p(-u) / std::log1p(-p));
  if (!(g >= 0.0)) return 0;
  // Anything beyond ~4e18 no longer fits uint64; every caller clamps against
  // the horizon anyway.
  return g >= 4e18 ? UINT64_MAX : static_cast<uint64_t>(g);
}

/// Lazy per-node fault process. Each node owns an independent RNG stream
/// (Rng::Split keyed by node id) and two geometric clocks: the crash clock
/// ticks on every up epoch, the degradation clock on every up-and-clean
/// epoch. Gaps count eligible epochs that pass *without* the event; the
/// event fires on the (gap+1)-th eligible epoch.
struct NodeProcess {
  util::Rng rng{0};
  /// First epoch the crash clock ticks again (recovery epoch, or the epoch
  /// after a cap-suppressed candidate).
  sim::Epoch crash_from = 1;
  uint64_t crash_gap = 0;
  /// First epoch the degradation clock may tick again (recovery epoch).
  sim::Epoch degrade_from = 1;
  uint64_t degrade_gap = 0;
  /// Exclusive end of the current degradation episode (0 = none).
  sim::Epoch degraded_until = 0;
};

/// One entry of the chronological merge sweep. pass 0 carries scheduled
/// returns (recoveries, degradation ends), pass 1 fresh proposals (crashes,
/// degradation starts) — mirroring the per-epoch generator, which processed the
/// epoch's returns before drawing its fresh events. The (at, pass, node,
/// kind) tuple is a strict total order, so the sweep — and therefore the
/// generated plan — is deterministic.
struct SweepItem {
  sim::Epoch at = 0;
  uint8_t pass = 0;
  sim::NodeId node = 0;
  FaultEvent::Kind kind = FaultEvent::Kind::kCrash;
};

struct SweepLater {
  bool operator()(const SweepItem& a, const SweepItem& b) const {
    return std::tie(a.at, a.pass, a.node, a.kind) > std::tie(b.at, b.pass, b.node, b.kind);
  }
};

}  // namespace

FaultPlan FaultPlan::Generate(const sim::Topology& topology, const FaultPlanOptions& options,
                              uint64_t seed) {
  // Written so a NaN fails too: a cast of it (or of a negative product) to
  // size_t is undefined behaviour, not a zero cap.
  if (!(options.max_down_fraction >= 0.0 && options.max_down_fraction <= 1.0)) {
    std::fprintf(stderr, "FaultPlan::Generate: max_down_fraction must lie in [0, 1]\n");
    std::abort();
  }
  static const uint32_t kSpan = obs::GlobalTracer().InternName("fault.plan_generate");
  obs::ScopedSpan span(kSpan);
  FaultPlan plan;
  plan.seed = seed;
  size_t n = topology.num_nodes();
  size_t sensors = topology.num_sensors();
  // Epoch 0 always stays clean and no event is scheduled at or past the
  // horizon, so a horizon of 0 or 1 leaves nothing to schedule.
  if (options.horizon <= 1 || n <= 1) return plan;
  size_t max_down = static_cast<size_t>(options.max_down_fraction * static_cast<double>(sensors));
  // A zero cap means crash candidates could never commit (the per-epoch
  // generator short-circuited the draw entirely in that case).
  bool crash_on = options.crash_prob > 0.0 && max_down > 0;
  bool degrade_on = options.degrade_prob > 0.0;
  if (!crash_on && !degrade_on) return plan;

  util::Rng master(seed ^ 0xFA17'F1A6'0D15'EA5EULL);
  std::vector<NodeProcess> procs(n);

  // The node's next fresh event strictly inside the horizon, if any. Ties
  // go to the crash clock (the per-epoch generator drew crash before
  // degradation, and a crash suppresses the epoch's degradation trial
  // without consuming it).
  auto propose = [&](sim::NodeId v) -> std::optional<SweepItem> {
    NodeProcess& p = procs[v];
    uint64_t best_at = UINT64_MAX;
    FaultEvent::Kind best_kind = FaultEvent::Kind::kCrash;
    auto consider = [&](bool on, uint64_t from, uint64_t gap, FaultEvent::Kind kind) {
      if (!on || gap >= options.horizon) return;
      uint64_t at = from + gap;
      if (at < best_at) {
        best_at = at;
        best_kind = kind;
      }
    };
    consider(crash_on, p.crash_from, p.crash_gap, FaultEvent::Kind::kCrash);
    consider(degrade_on, std::max<uint64_t>(p.degrade_from, p.degraded_until), p.degrade_gap,
             FaultEvent::Kind::kDegradeStart);
    if (best_at >= options.horizon) return std::nullopt;
    return SweepItem{static_cast<sim::Epoch>(best_at), 1, v, best_kind};
  };

  std::priority_queue<SweepItem, std::vector<SweepItem>, SweepLater> queue;
  for (sim::NodeId v = 1; v < n; ++v) {
    procs[v].rng = master.Split(v);
    // Draw order is fixed (crash, then degradation) and each draw is gated
    // on its clock being on.
    if (crash_on) procs[v].crash_gap = GeometricSkip(procs[v].rng, options.crash_prob);
    if (degrade_on) procs[v].degrade_gap = GeometricSkip(procs[v].rng, options.degrade_prob);
    if (std::optional<SweepItem> item = propose(v)) queue.push(*item);
  }

  // Chronological merge of the per-node processes. Only the max-down cap
  // couples nodes, so the sweep's job beyond ordering is bookkeeping
  // down_count and suppressing crash candidates while the cap binds.
  size_t down_count = 0;
  while (!queue.empty()) {
    SweepItem item = queue.top();
    queue.pop();
    NodeProcess& p = procs[item.node];
    switch (item.kind) {
      case FaultEvent::Kind::kRecover: {
        plan.events.push_back({item.at, item.kind, item.node, 0.0});
        --down_count;
        // Proposals resume only now, so a crash drawn for this very epoch
        // orders after the recovery — exactly the per-epoch generator's
        // returns-then-fresh-draws order.
        if (std::optional<SweepItem> next = propose(item.node)) queue.push(*next);
        break;
      }
      case FaultEvent::Kind::kDegradeEnd: {
        plan.events.push_back({item.at, item.kind, item.node, 0.0});
        // Eligibility bookkeeping (degraded_until) was recorded when the
        // episode started; the node's outstanding proposal already honors it.
        break;
      }
      case FaultEvent::Kind::kCrash: {
        if (down_count >= max_down) {
          // Cap in force: this epoch was not crash-eligible after all. The
          // process is memoryless, so redraw the gap from the next epoch.
          p.crash_from = item.at + 1;
          p.crash_gap = GeometricSkip(p.rng, options.crash_prob);
          if (std::optional<SweepItem> next = propose(item.node)) queue.push(*next);
          break;
        }
        plan.events.push_back({item.at, item.kind, item.node, 0.0});
        ++down_count;
        if (degrade_on) {
          // The degradation clock ticked (without firing) on every up-and-
          // clean epoch strictly before the crash; the crash epoch itself
          // had no degrade trial, and none happen while down.
          uint64_t clean_from = std::max<uint64_t>(p.degrade_from, p.degraded_until);
          if (item.at > clean_from) p.degrade_gap -= item.at - clean_from;
        }
        if (options.mean_downtime == 0) break;  // permanent: the node is done
        // 64-bit end to end: 2 * mean_downtime overflows an Epoch from 2^31,
        // and so can the downtime itself.
        uint64_t downtime = 1 + p.rng.NextBounded(2 * uint64_t{options.mean_downtime});
        uint64_t back = static_cast<uint64_t>(item.at) + downtime;
        // A recovery landing at or past the horizon never happens: the node
        // stays down and proposes nothing further.
        if (back >= options.horizon) break;
        p.crash_from = static_cast<sim::Epoch>(back);
        p.crash_gap = GeometricSkip(p.rng, options.crash_prob);
        p.degrade_from = static_cast<sim::Epoch>(back);
        queue.push({static_cast<sim::Epoch>(back), 0, item.node, FaultEvent::Kind::kRecover});
        break;
      }
      case FaultEvent::Kind::kDegradeStart: {
        plan.events.push_back({item.at, item.kind, item.node, options.degrade_extra_loss});
        // 64-bit so a huge duration cannot wrap the end to before the start;
        // an end at or past the horizon is stored as the horizon, which
        // every later comparison treats alike.
        uint64_t end = uint64_t{item.at} + std::max<sim::Epoch>(1, options.degrade_duration);
        auto until = static_cast<sim::Epoch>(std::min<uint64_t>(end, options.horizon));
        p.degraded_until = until;
        p.degrade_from = until;
        p.degrade_gap = GeometricSkip(p.rng, options.degrade_prob);
        if (end < options.horizon) {
          queue.push({until, 0, item.node, FaultEvent::Kind::kDegradeEnd});
        }
        if (std::optional<SweepItem> next = propose(item.node)) queue.push(*next);
        break;
      }
    }
  }
  // The sweep pops in (epoch, pass, node, kind) order, so the plan is sorted
  // by construction — no trailing sort.
  return plan;
}

size_t FaultPlan::CountKind(FaultEvent::Kind kind) const {
  size_t count = 0;
  for (const FaultEvent& ev : events) {
    if (ev.kind == kind) ++count;
  }
  return count;
}

}  // namespace kspot::fault
