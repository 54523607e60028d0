/// E7 — TJA anatomy: per-phase byte breakdown (LB / HJ down / HJ up), the
/// union size o = |Lsink| as K grows, and the Bloom-filter compression
/// ablation of the Lsink dissemination (the optimization of the original
/// TJA paper). False positives cost extra HJ bytes but never correctness.
#include "bench_util.hpp"
#include "core/tja.hpp"
#include "scenarios.hpp"

namespace kspot::bench {

void RegisterTjaPhases(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "tja_phases";
  s.id = "E7";
  s.title = "TJA phase breakdown and Bloom ablation (n=100, W=256)";
  s.notes =
      "The Bloom variant compresses the downstream Lsink dissemination inside\n"
      "the HJ phase; whether it wins depends on |Lsink| vs the filter size.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    const size_t nodes = 100;
    const size_t window = opt.quick ? 64 : 256;
    const uint64_t seed = opt.seed != 0 ? opt.seed : 19;
    const std::vector<int> ks = opt.quick ? std::vector<int>{1, 4}
                                          : std::vector<int>{1, 4, 16};

    std::vector<runner::Trial> trials;
    for (int k : ks) {
      for (bool bloom : {false, true}) {
        runner::Trial t;
        t.spec.algorithm = "TJA";
        t.spec.seed = seed;
        t.spec.params = {{"k", std::to_string(k)}, {"bloom", bloom ? "yes" : "no"}};
        t.run = [=]() -> runner::MetricList {
          auto bed = Bed::Grid(nodes, 4, seed);
          auto history = MakeEventHistory(bed, window, seed);
          core::HistoricOptions hopt;
          hopt.k = k;
          hopt.use_bloom = bloom;
          core::Tja tja(bed.net.get(), &history, hopt);
          auto result = tja.Run();
          return {{"lb_bytes", static_cast<double>(bed.net->PhaseTotal("tja.lb").payload_bytes)},
                  {"hj_bytes", static_cast<double>(bed.net->PhaseTotal("tja.hj").payload_bytes)},
                  {"total_bytes", static_cast<double>(bed.net->total().payload_bytes)},
                  {"lsink_size", static_cast<double>(result.lsink_size)},
                  {"rounds", static_cast<double>(result.rounds)}};
        };
        trials.push_back(std::move(t));
      }
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
