/// E19 — reliability tradeoff: what the adaptive retry/backoff layer buys
/// (answer completeness, recall) and what it costs (radio energy, retries)
/// versus the same deployment with the layer off, swept over frame loss,
/// per-node retry budget and epoch deadline. Expected shape: at the
/// reference point (30% loss, ample budget, no deadline) completeness holds
/// >= 0.95 while the flat no-retry run visibly thins out; tight budgets and
/// deadlines trade completeness back for energy/latency. The reference row
/// carries the CI gate bits (slo_completeness_ok, overhead_ok).
#include "bench_util.hpp"
#include "scenarios.hpp"
#include "util/string_util.hpp"

namespace kspot::bench {

namespace {

/// One swept operating point of the reliability layer.
struct RelCase {
  double loss;           ///< i.i.d. per-frame loss.
  uint32_t budget;       ///< Per-node per-epoch retry budget (0 = unlimited).
  int deadline;          ///< Wave depth budget in slots (0 = no deadline).
  bool reference;        ///< The gated operating point (one per sweep).
};

/// Mean completeness the gate requires at the reference point.
constexpr double kCompletenessSlo = 0.95;
/// Reliability-on energy may cost at most this multiple of the flat run.
constexpr double kOverheadBound = 4.0;

}  // namespace

void RegisterReliabilityTradeoff(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "reliability_tradeoff";
  s.id = "E19";
  s.title = "completeness & energy vs loss x retry budget x deadline (n=49, TAG, K=3)";
  s.make_trials = [](const runner::SweepOptions& opt) {
    const size_t nodes = 49;
    const size_t rooms = 12;
    const size_t epochs = opt.quick ? 10 : 50;
    const uint64_t seed = opt.seed != 0 ? opt.seed : 31;

    const std::vector<RelCase> cases =
        opt.quick ? std::vector<RelCase>{{0.3, 64, 0, true}, {0.3, 64, 2, false}}
                  : std::vector<RelCase>{{0.1, 64, 0, false},
                                         {0.2, 64, 0, false},
                                         {0.3, 64, 0, true},
                                         {0.3, 1, 0, false},
                                         {0.3, 64, 2, false},
                                         {0.3, 64, 1, false}};

    std::vector<runner::Trial> trials;
    for (const RelCase& c : cases) {
      runner::Trial t;
      t.spec.algorithm = "TAG";
      t.spec.seed = seed;
      t.spec.params = {{"loss", util::FormatDouble(c.loss, 2)},
                       {"retry_budget", std::to_string(c.budget)},
                       {"deadline", std::to_string(c.deadline)}};
      RelCase rc = c;
      t.run = [=]() -> runner::MetricList {
        core::QuerySpec spec = RoomAvgSpec(3);
        // The flat run: same loss, no retries — what the layer is bought
        // against. Identical seed, so both runs see the same data wave.
        sim::NetworkOptions off_opt;
        off_opt.loss_prob = rc.loss;
        auto off_bed = Bed::Clustered(nodes, rooms, seed, off_opt);
        auto off_gen = off_bed.RoomData(seed);
        auto off_oracle_gen = off_bed.RoomData(seed);
        core::Oracle off_oracle(&off_bed.topology, off_oracle_gen.get(), spec);
        core::TagTopK off_algo(off_bed.net.get(), off_gen.get(), spec);
        double off_recall_sum = 0.0;
        for (size_t e = 0; e < epochs; ++e) {
          core::TopKResult result = off_algo.RunEpoch(static_cast<sim::Epoch>(e));
          off_recall_sum += result.RecallAgainst(off_oracle.TopK(static_cast<sim::Epoch>(e)));
        }
        double off_energy_mj = PerEpoch(1e3 * off_bed.net->total().energy_j(), epochs);

        sim::NetworkOptions on_opt = off_opt;
        on_opt.reliability.enabled = true;
        on_opt.max_retries = 6;
        on_opt.reliability.residual_target = 0.01;
        on_opt.reliability.retry_budget = rc.budget;
        on_opt.reliability.wave_depth_budget = rc.deadline;
        auto bed = Bed::Clustered(nodes, rooms, seed, on_opt);
        auto gen = bed.RoomData(seed);
        auto oracle_gen = bed.RoomData(seed);
        core::Oracle oracle(&bed.topology, oracle_gen.get(), spec);
        core::TagTopK algo(bed.net.get(), gen.get(), spec);
        double recall_sum = 0.0;
        double completeness_sum = 0.0;
        size_t degraded_epochs = 0;
        for (size_t e = 0; e < epochs; ++e) {
          // Budgets and the degraded flag are per-epoch contracts (the
          // coordinator does the same at each StepEpoch).
          bed.net->BeginReliabilityEpoch();
          core::TopKResult result = algo.RunEpoch(static_cast<sim::Epoch>(e));
          recall_sum += result.RecallAgainst(oracle.TopK(static_cast<sim::Epoch>(e)));
          completeness_sum += result.completeness;
          if (result.degraded) ++degraded_epochs;
        }
        const sim::TrafficCounters& on_total = bed.net->total();
        double energy_mj = PerEpoch(1e3 * on_total.energy_j(), epochs);
        double completeness = PerEpoch(completeness_sum, epochs);

        runner::MetricList metrics = {
            {"completeness", completeness},
            {"recall", PerEpoch(recall_sum, epochs)},
            {"recall_off", PerEpoch(off_recall_sum, epochs)},
            {"energy_mj_per_epoch", energy_mj},
            {"energy_off_mj_per_epoch", off_energy_mj},
            {"retries_per_epoch", PerEpoch(on_total.retries, epochs)},
            {"degraded_epochs", static_cast<double>(degraded_epochs)},
        };
        if (rc.reference) {
          // The CI gate bits live only on the reference row, so deadline
          // rows (deliberately partial) never trip the SLO.
          metrics.emplace_back("slo_completeness_ok",
                               completeness >= kCompletenessSlo ? 1.0 : 0.0);
          metrics.emplace_back(
              "overhead_ok",
              off_energy_mj > 0.0 && energy_mj <= kOverheadBound * off_energy_mj ? 1.0 : 0.0);
        }
        return metrics;
      };
      trials.push_back(std::move(t));
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
