#include "runner/experiment_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "util/task_pool.hpp"

namespace kspot::runner {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

bool ScenarioRun::AllOk() const {
  for (const TrialResult& t : trials) {
    if (!t.ok) return false;
  }
  return true;
}

ExperimentEngine::ExperimentEngine(Options options) : options_(options) {
  if (options_.threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    options_.threads = hw == 0 ? 1 : hw;
  }
}

ScenarioRun ExperimentEngine::Run(const Scenario& scenario) const {
  auto sweep_start = std::chrono::steady_clock::now();

  ScenarioRun run;
  run.name = scenario.name;
  run.id = scenario.id;
  run.title = scenario.title;
  run.notes = scenario.notes;
  run.quick = options_.quick;
  run.seed = options_.seed;
  run.threads = options_.threads;

  SweepOptions sweep;
  sweep.quick = options_.quick;
  sweep.seed = options_.seed;
  std::vector<Trial> trials = scenario.make_trials(sweep);

  run.trials.resize(trials.size());
  for (size_t i = 0; i < trials.size(); ++i) {
    trials[i].spec.scenario = scenario.name;
    trials[i].spec.index = i;
    run.trials[i].spec = trials[i].spec;
  }

  // Fork-join over the trial indices: every thread claims indices from one
  // counter and writes into each trial's own result slot, so the output
  // order is the enumeration order regardless of scheduling. Exceptions stay
  // per-trial (recorded in the result), never escape the pool.
  util::TaskPool pool(std::min(options_.threads, std::max<size_t>(trials.size(), 1)));
  std::atomic<size_t> next{0};
  pool.RunPerThread(pool.thread_count(), [&](size_t) {
    for (size_t i = next++; i < trials.size(); i = next++) {
      TrialResult& result = run.trials[i];
      auto trial_start = std::chrono::steady_clock::now();
      try {
        result.metrics = trials[i].run();
        result.ok = true;
      } catch (const std::exception& e) {
        result.ok = false;
        result.error = e.what();
      } catch (...) {
        result.ok = false;
        result.error = "unknown exception";
      }
      result.wall_ms = MsSince(trial_start);
    }
  });

  run.wall_ms = MsSince(sweep_start);
  return run;
}

}  // namespace kspot::runner
