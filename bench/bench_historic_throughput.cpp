/// E20 — continuous historic windows (core::HistoricStream) at production
/// scale.
///
/// The delta path exists to make the historic (vertical) operator's
/// per-epoch cost O(delta) instead of O(W*n): every node appends one
/// reading, one converge-cast ships just the new epoch's partial, and the
/// sink retracts the evicted epoch from its materialized window view.
/// Scratch mode — re-collecting every node's whole window each epoch — is
/// the honest strawman this scenario measures against.
///
/// Rows sweep W x n x {delta, scratch} x {flash off, on} and report
/// epochs_per_sec (wall-clock, like E16), per-epoch radio traffic, and
/// flash I/O; a final row turns on cluster-neighbor predictive suppression
/// and reports the traffic reduction against its unsuppressed twin plus the
/// observed max reconstruction error (bounded by eps by construction).
///
/// CI runs this quick with --threads 1 and bench/check_regression.py gates
/// epochs_per_sec against bench/baseline/BENCH_E20_historic_throughput.json;
/// `check_regression.py --e20-gate` pins delta >= 5x scratch at W >= 64.
#include <chrono>
#include <string>

#include "bench_util.hpp"
#include "core/historic_stream.hpp"
#include "scenarios.hpp"
#include "util/stats.hpp"

namespace kspot::bench {

namespace {

struct HistoricConfig {
  size_t nodes = 200;
  size_t rooms = 16;
  size_t window = 64;
  size_t epochs = 256;
  uint64_t seed = 201;
  bool incremental = true;
  /// Archive evicted readings to simulated flash; the flash columns read
  /// the stores' own I/O counters.
  bool flash = false;
  bool suppression = false;
  double suppression_eps = 0.5;
};

struct HistoricStats {
  double epochs_per_sec = 0.0;
  util::DistSummary wall_ms;
  double msgs_per_epoch = 0.0;
  double bytes_per_epoch = 0.0;
  double flash_bytes_per_epoch = 0.0;
  double flash_energy_mj_per_epoch = 0.0;
  double suppression_ratio = 0.0;
  double recon_err_max = 0.0;
};

HistoricStats RunHistoric(const HistoricConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  auto bed = Bed::Grid(cfg.nodes, cfg.rooms, cfg.seed);
  auto gen = bed.RoomData(cfg.seed);
  core::HistoricStreamOptions hopt;
  hopt.k = 3;
  hopt.agg = agg::AggKind::kAvg;
  hopt.window = cfg.window;
  hopt.incremental = cfg.incremental;
  hopt.archive_to_flash = cfg.flash;
  hopt.suppression = cfg.suppression;
  hopt.suppression_eps = cfg.suppression_eps;
  core::HistoricStream stream(bed.net.get(), gen.get(), hopt);

  util::Percentiles epoch_ms;
  Clock::time_point run_start = Clock::now();
  for (size_t e = 0; e < cfg.epochs; ++e) {
    Clock::time_point epoch_start = Clock::now();
    stream.RunEpoch(static_cast<sim::Epoch>(e));
    epoch_ms.Add(std::chrono::duration<double, std::milli>(Clock::now() - epoch_start).count());
  }
  double total_s = std::chrono::duration<double>(Clock::now() - run_start).count();

  HistoricStats stats;
  stats.epochs_per_sec = total_s > 0.0 ? static_cast<double>(cfg.epochs) / total_s : 0.0;
  stats.wall_ms = epoch_ms.Summary();
  stats.msgs_per_epoch = PerEpoch(bed.net->total().messages, cfg.epochs);
  stats.bytes_per_epoch = PerEpoch(bed.net->total().payload_bytes, cfg.epochs);
  storage::IoCounters io = stream.FlashIoTotal();
  stats.flash_bytes_per_epoch = PerEpoch(io.bytes, cfg.epochs);
  stats.flash_energy_mj_per_epoch = PerEpoch(1e3 * io.energy_j, cfg.epochs);
  stats.suppression_ratio = stream.suppression_ratio();
  stats.recon_err_max = stream.max_reconstruction_error();
  return stats;
}

}  // namespace

void RegisterHistoricThroughput(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "historic_throughput";
  s.id = "E20";
  s.title = "continuous historic serving: delta vs from-scratch, flash, suppression";
  s.notes =
      "epochs_per_sec is wall-clock simulator speed (compare with --threads 1, like\n"
      "E16); delta and scratch rows answer identically — only cost differs. Flash\n"
      "rows archive evicted readings through MicroHash and count the I/O; the\n"
      "suppression row reports traffic_reduction vs its unsuppressed twin and the\n"
      "observed max reconstruction error (<= eps by construction).\n"
      "bench/check_regression.py gates CI on this scenario's JSON.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    struct Point {
      size_t nodes;
      size_t rooms;
    };
    const std::vector<Point> points = {{49, 8}, {200, 16}};
    const std::vector<size_t> windows =
        opt.quick ? std::vector<size_t>{16, 64} : std::vector<size_t>{16, 64, 128};
    const uint64_t seed = opt.seed != 0 ? opt.seed : 201;
    const size_t epochs = opt.quick ? 96 : 256;

    auto run_metrics = [](const HistoricConfig& cfg) -> runner::MetricList {
      HistoricStats st = RunHistoric(cfg);
      return {{"epochs_per_sec", st.epochs_per_sec},
              {"wall_ms_p50", st.wall_ms.p50},
              {"wall_ms_p95", st.wall_ms.p95},
              {"msgs_per_epoch", st.msgs_per_epoch},
              {"bytes_per_epoch", st.bytes_per_epoch},
              {"flash_bytes_per_epoch", st.flash_bytes_per_epoch},
              {"flash_energy_mj_per_epoch", st.flash_energy_mj_per_epoch}};
    };

    std::vector<runner::Trial> trials;
    for (const Point& point : points) {
      for (size_t window : windows) {
        for (bool incremental : {true, false}) {
          for (bool flash : {false, true}) {
            // Flash archiving exercises the same eviction stream either
            // way; one mode's flash rows are enough to price it.
            if (flash && !incremental) continue;
            runner::Trial t;
            t.spec.algorithm = incremental ? "HIST-delta" : "HIST-scratch";
            t.spec.seed = seed;
            t.spec.params = {{"n", std::to_string(point.nodes)},
                             {"w", std::to_string(window)},
                             {"flash", flash ? "on" : "off"}};
            HistoricConfig cfg;
            cfg.nodes = point.nodes;
            cfg.rooms = point.rooms;
            cfg.window = window;
            cfg.epochs = epochs;
            cfg.seed = seed;
            cfg.incremental = incremental;
            cfg.flash = flash;
            t.run = [cfg, run_metrics]() -> runner::MetricList { return run_metrics(cfg); };
            trials.push_back(std::move(t));
          }
        }
      }
    }
    // The suppression row: one delta-mode bed with cluster-neighbor
    // predictive suppression on, paired internally against its unsuppressed
    // twin so traffic_reduction is a single self-contained metric.
    {
      runner::Trial t;
      t.spec.algorithm = "HIST-delta+suppress";
      t.spec.seed = seed;
      t.spec.params = {{"n", "200"}, {"w", "64"}, {"eps", "2"}};
      HistoricConfig cfg;
      cfg.nodes = 200;
      cfg.rooms = 16;
      cfg.window = 64;
      cfg.epochs = epochs;
      cfg.seed = seed;
      cfg.suppression = true;
      cfg.suppression_eps = 2.0;
      t.run = [cfg]() -> runner::MetricList {
        HistoricStats on = RunHistoric(cfg);
        HistoricConfig base = cfg;
        base.suppression = false;
        HistoricStats off = RunHistoric(base);
        double reduction = off.bytes_per_epoch > 0.0
                               ? 1.0 - on.bytes_per_epoch / off.bytes_per_epoch
                               : 0.0;
        return {{"epochs_per_sec", on.epochs_per_sec},
                {"bytes_per_epoch", on.bytes_per_epoch},
                {"traffic_reduction", reduction},
                {"suppression_ratio", on.suppression_ratio},
                {"recon_err_max", on.recon_err_max},
                {"recon_err_bound", cfg.suppression_eps}};
      };
      trials.push_back(std::move(t));
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
