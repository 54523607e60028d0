/// kspot_bench — the unified experiment CLI. Every experiment the 12
/// standalone bench programs used to run is a registered Scenario; this
/// multiplexer lists them, fans their trials out over a worker pool, prints
/// the classic tables, and emits machine-readable BENCH_<scenario>.json
/// result files for the perf trajectory.
///
///   kspot_bench --list
///   kspot_bench --scenario msgs_vs_k --threads 4 --json out.json
///   kspot_bench --all --quick --json-dir bench-results
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/experiment_engine.hpp"
#include "runner/report.hpp"
#include "runner/scenario_registry.hpp"
#include "scenarios.hpp"
#include "util/string_util.hpp"

namespace {

using namespace kspot;

constexpr const char* kUsage = R"(kspot_bench — KSpot experiment engine

Usage:
  kspot_bench --list
  kspot_bench --scenario NAME [--scenario NAME ...] [options]
  kspot_bench --all [options]

Selection:
  --list              List registered scenarios and exit.
  --scenario NAME     Run one scenario (repeatable; comma lists allowed).
  --all               Run every registered scenario.

Execution:
  --threads N         Worker threads (default: hardware concurrency;
                      results are identical for any N).
  --quick             Reduced axes/epochs for smoke runs.
  --seed N            Re-base every scenario's sweep on seed N (default:
                      each scenario's published seed).

Observability (off by default; enabling changes no result bit):
  --obs               Enable the metrics registry AND the span tracer.
  --metrics-out PATH  Write the metrics JSON snapshot to PATH after the run
                      (implies metrics on).
  --trace-out PATH    Write a chrome://tracing-loadable trace-event JSON to
                      PATH after the run (implies tracing on).

Output:
  --json PATH         Write JSON results to PATH (single scenario only).
  --json-dir DIR      Write BENCH_<scenario>.json per scenario into DIR.
  --no-table          Suppress the human-readable tables.
  --help              This text.
)";

struct CliOptions {
  bool list = false;
  bool all = false;
  bool quick = false;
  bool table = true;
  size_t threads = 0;  // 0 = hardware concurrency
  uint64_t seed = 0;
  bool obs = false;
  std::vector<std::string> scenarios;
  std::string json_path;
  std::string json_dir;
  std::string metrics_out;
  std::string trace_out;
};

/// Strict base-10 parse: the whole token must be digits.
bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  uint64_t value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* out, std::string* error) {
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      *error = std::string(flag) + " requires a value";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (arg == "--list") {
      out->list = true;
    } else if (arg == "--all") {
      out->all = true;
    } else if (arg == "--quick") {
      out->quick = true;
    } else if (arg == "--no-table") {
      out->table = false;
    } else if (arg == "--scenario") {
      const char* value = need_value(i, "--scenario");
      if (value == nullptr) return false;
      for (const std::string& name : util::Split(value, ',')) {
        if (!name.empty()) out->scenarios.push_back(name);
      }
    } else if (arg == "--threads") {
      const char* value = need_value(i, "--threads");
      if (value == nullptr) return false;
      uint64_t threads = 0;
      if (!ParseUint(value, &threads)) {
        *error = std::string("--threads expects a non-negative integer, got '") + value + "'";
        return false;
      }
      out->threads = static_cast<size_t>(threads);
    } else if (arg == "--seed") {
      const char* value = need_value(i, "--seed");
      if (value == nullptr) return false;
      if (!ParseUint(value, &out->seed)) {
        *error = std::string("--seed expects a non-negative integer, got '") + value + "'";
        return false;
      }
    } else if (arg == "--obs") {
      out->obs = true;
    } else if (arg == "--metrics-out") {
      const char* value = need_value(i, "--metrics-out");
      if (value == nullptr) return false;
      out->metrics_out = value;
    } else if (arg == "--trace-out") {
      const char* value = need_value(i, "--trace-out");
      if (value == nullptr) return false;
      out->trace_out = value;
    } else if (arg == "--json") {
      const char* value = need_value(i, "--json");
      if (value == nullptr) return false;
      out->json_path = value;
    } else if (arg == "--json-dir") {
      const char* value = need_value(i, "--json-dir");
      if (value == nullptr) return false;
      out->json_dir = value;
    } else {
      *error = "unknown argument '" + arg + "' (see --help)";
      return false;
    }
  }
  return true;
}

void PrintList(const runner::ScenarioRegistry& registry) {
  std::printf("%zu registered scenarios:\n\n", registry.size());
  size_t width = 0;
  for (const auto* s : registry.All()) width = std::max(width, s->name.size());
  for (const auto* s : registry.All()) {
    std::printf("  %-*s  %-4s %s\n", static_cast<int>(width), s->name.c_str(), s->id.c_str(),
                s->title.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  runner::ScenarioRegistry registry;
  bench::RegisterAllScenarios(registry);

  CliOptions cli;
  std::string error;
  if (!ParseArgs(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "kspot_bench: %s\n", error.c_str());
    return 2;
  }

  if (cli.list) {
    PrintList(registry);
    return 0;
  }
  if (!cli.all && cli.scenarios.empty()) {
    std::fprintf(stderr, "kspot_bench: nothing to run (use --scenario, --all or --list)\n");
    return 2;
  }
  if (!cli.json_path.empty() && (cli.all || cli.scenarios.size() > 1)) {
    std::fprintf(stderr, "kspot_bench: --json works with exactly one scenario; "
                         "use --json-dir for multi-scenario runs\n");
    return 2;
  }

  // Every requested name is validated even when --all also appeared, so a
  // typo in a CI script fails loudly instead of being masked by the
  // catch-all.
  std::vector<const runner::Scenario*> selected;
  for (const std::string& name : cli.scenarios) {
    const runner::Scenario* s = registry.Find(name);
    if (s == nullptr) {
      std::fprintf(stderr, "kspot_bench: unknown scenario '%s'; known scenarios:\n",
                   name.c_str());
      for (const std::string& known : registry.Names()) {
        std::fprintf(stderr, "  %s\n", known.c_str());
      }
      return 2;
    }
    selected.push_back(s);
  }
  if (cli.all) selected = registry.All();

  if (!cli.json_dir.empty()) {
    // Create it before any trial runs so a typo doesn't cost a full sweep.
    std::error_code ec;
    std::filesystem::create_directories(cli.json_dir, ec);
    if (ec) {
      std::fprintf(stderr, "kspot_bench: cannot create --json-dir '%s': %s\n",
                   cli.json_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  // Observability switches go up before any trial runs; the golden suite
  // pins that this changes wall-clock only, never a result bit.
  if (cli.obs || !cli.metrics_out.empty()) obs::SetMetricsEnabled(true);
  if (cli.obs || !cli.trace_out.empty()) obs::SetTracingEnabled(true);

  runner::ExperimentEngine::Options engine_opt;
  engine_opt.threads = cli.threads;
  engine_opt.quick = cli.quick;
  engine_opt.seed = cli.seed;
  runner::ExperimentEngine engine(engine_opt);

  int failures = 0;
  for (const runner::Scenario* scenario : selected) {
    runner::ScenarioRun run = engine.Run(*scenario);
    if (cli.table) {
      std::fputs(runner::RenderTable(run).c_str(), stdout);
    }
    std::string json_target;
    if (!cli.json_path.empty()) {
      json_target = cli.json_path;
    } else if (!cli.json_dir.empty()) {
      json_target = cli.json_dir + "/" + runner::DefaultJsonFileName(run.name);
    }
    if (!json_target.empty()) {
      util::Status status = runner::WriteJsonFile(run, json_target);
      if (!status.ok()) {
        std::fprintf(stderr, "kspot_bench: %s\n", status.message().c_str());
        return 1;
      }
      std::fprintf(stdout, "wrote %s\n", json_target.c_str());
    }
    if (!run.AllOk()) {
      for (const runner::TrialResult& t : run.trials) {
        if (!t.ok) {
          std::fprintf(stderr, "kspot_bench: %s trial %zu failed: %s\n", run.name.c_str(),
                       t.spec.index, t.error.c_str());
        }
      }
      ++failures;
    }
  }

  if (!cli.metrics_out.empty()) {
    std::ofstream out(cli.metrics_out);
    if (!out) {
      std::fprintf(stderr, "kspot_bench: cannot open --metrics-out '%s'\n",
                   cli.metrics_out.c_str());
      return 1;
    }
    out << obs::Registry().Snapshot().ToJson() << "\n";
    std::fprintf(stdout, "wrote %s\n", cli.metrics_out.c_str());
  }
  if (!cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out);
    if (!out) {
      std::fprintf(stderr, "kspot_bench: cannot open --trace-out '%s'\n", cli.trace_out.c_str());
      return 1;
    }
    obs::GlobalTracer().WriteChromeTrace(out);
    out << "\n";
    std::fprintf(stdout, "wrote %s (%zu spans, %llu dropped)\n", cli.trace_out.c_str(),
                 obs::GlobalTracer().size(),
                 static_cast<unsigned long long>(obs::GlobalTracer().dropped()));
  }
  return failures == 0 ? 0 : 1;
}
