/// E1 — reproduces Figure 1 of the paper: the 9-sensor / 4-room building
/// with a TOP-1 AVG(sound) query. Each algorithm answers the constant scene
/// for 10 epochs; the metrics expose the wrongful naive answer (D, 76.5)
/// versus the correct (C, 75) and the per-algorithm message/byte cost.
#include "bench_util.hpp"
#include "scenarios.hpp"

namespace kspot::bench {

void RegisterFig1Scenario(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "fig1_scenario";
  s.id = "E1";
  s.title = "Figure-1 scenario: TOP-1 AVG(sound) over 4 rooms, 9 sensors";
  s.notes =
      "Naive reports group 3 (room D, 76.5) because s4 wrongfully eliminated (D, 39) —\n"
      "exactly the anomaly of Section III-A. MINT reports the correct group 2 (room C,\n"
      "75) while transmitting nothing at all in steady state on this static scene.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    const size_t epochs = opt.quick ? 5 : 10;

    std::vector<runner::Trial> trials;
    for (SnapshotAlgo algo : {SnapshotAlgo::kTag, SnapshotAlgo::kNaive, SnapshotAlgo::kMint}) {
      runner::Trial t;
      t.spec.algorithm = AlgoName(algo);
      t.spec.seed = 42;  // Figure-1 beds are fully deterministic.
      t.run = [=]() -> runner::MetricList {
        core::QuerySpec spec = RoomAvgSpec(1);
        data::ConstantGenerator oracle_gen(sim::Figure1Readings());
        auto oracle_bed = Bed::Figure1();
        core::Oracle oracle(&oracle_bed.topology, &oracle_gen, spec);

        auto bed = Bed::Figure1();
        data::ConstantGenerator gen(sim::Figure1Readings());
        auto algorithm = MakeSnapshotAlgo(algo, bed.net.get(), &gen, spec);
        core::TopKResult last;
        sim::TrafficCounters after_first;
        for (size_t e = 0; e < epochs; ++e) {
          last = algorithm->RunEpoch(static_cast<sim::Epoch>(e));
          if (e == 0) after_first = bed.net->total();
        }
        auto steady = bed.net->total().Since(after_first);
        bool correct = last.Matches(oracle.TopK(static_cast<sim::Epoch>(epochs - 1)));
        return {{"answer_group", static_cast<double>(last.items.at(0).group)},
                {"answer_value", last.items.at(0).value},
                {"correct", correct ? 1.0 : 0.0},
                {"msgs_per_epoch", PerEpoch(bed.net->total().messages, epochs)},
                {"bytes_per_epoch", PerEpoch(bed.net->total().payload_bytes, epochs)},
                {"steady_msgs_per_epoch", SteadyPerEpoch(steady.messages, epochs)},
                {"steady_bytes_per_epoch", SteadyPerEpoch(steady.payload_bytes, epochs)}};
      };
      trials.push_back(std::move(t));
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
