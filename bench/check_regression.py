#!/usr/bin/env python3
"""Gate on wall-clock regressions of the perf scenarios.

Compares a freshly produced BENCH_<scenario>.json against its committed
baseline and fails when any sweep point's gated metric dropped by more than
the tolerance (default 25%; override with --tolerance, or with the
KSPOT_E16_TOLERANCE environment variable that seeds --tolerance's default —
the CI E17 gate passes --tolerance explicitly).

Gated scenarios:
  E16 throughput         metric epochs_per_sec (the default)
  E17 server_throughput  metric coord_qps
  E18 fanout_throughput  metric deliveries_per_sec

Several --baseline and --current files are paired in order, and each sweep
point is gated on the median of its per-pair ratios: the CI obs-overhead gates
interleave off/on runs, so one run slowed by a shared host cannot fail them.

Only the gated metric can fail the build, but every numeric metric the two
runs share is printed per sweep row (baseline -> current, ratio) on pass as
well as fail, so CI logs carry the whole perf trajectory.

With --servebench-result it instead checks the result line (the last stdout
line) of a servebench/run.py run: the run must be correct, no call may have
failed, and answer recall must be exactly 1.0. Recall is a simulation output,
not wall-clock, so this gate needs no baseline.

With --servebench-correct it checks the same result line but only that the
run is correct and no call failed: the `churn` workload serves lossy answers
(recall about 0.79 by design), so its recall is not gated.

With --e17-gate it instead checks the acceptance floor of one E17
server_throughput run: the {queries 16, mix snapshot, churn off} sweep point
must exist and serve >= 1.5x the queries/sec of sequential Execute.

With --e18-gate it instead checks the acceptance floor of one E18
fanout_throughput run: exactly three U=1e6 sweep points, each delivering
>= 1e5 subscriber results per second.

With --e19-gate it instead checks the acceptance point of one E19
reliability_tradeoff run: the reference sweep point (the trial carrying
slo_completeness_ok) must exist, meet the completeness SLO and stay within
the energy-overhead bound.

With --e20-gate it instead checks the acceptance floor of one E20
historic_throughput run: at every W >= 64 sweep point (at least two of them)
the delta path runs >= 5x the epochs/sec of the from-scratch path, and the
suppression row is present, saves traffic, and keeps its observed
reconstruction error within the configured bound.

With --bench-dir it instead checks a `kspot_bench --all --json-dir`
output directory: at least 20 BENCH_*.json files, among them the eight
gated scenarios, each with schema_version 1 and every trial ok.

With --same-results DIR_A DIR_B it instead checks that two `kspot_bench
--json-dir` output directories hold the same results: the same BENCH_*.json
files, equal in every value except the wall-clock ones (top-level `threads`
and `wall_ms`, each trial's `wall_ms`, and the timing metrics listed in
SAME_RESULTS_WALL_CLOCK_METRICS). Runs of one build with different --threads
must pass, and so must two builds that only move or delete code.

With --tracked-baselines it instead checks a CI workflow file: every
--baseline path it passes to a gate (outside the bench-json* directories the
jobs write) must be tracked by git, because a gate whose baseline is missing
from a fresh checkout is a broken build.

The baselines are machine-dependent: refresh them (run the scenario with
--quick --threads 1 and copy the JSON) whenever CI hardware changes, and
always alongside intentional perf-trade commits.

Usage:
  python3 bench/check_regression.py --current bench-json-e16/BENCH_throughput.json
  python3 bench/check_regression.py --tolerance 0.03 \
      --baseline obs_off_1.json obs_off_2.json obs_off_3.json \
      --current obs_on_1.json obs_on_2.json obs_on_3.json
  python3 bench/check_regression.py --metric coord_qps \
      --baseline bench/baseline/BENCH_E17_server_throughput.json \
      --current bench-json-e17/BENCH_server_throughput.json
  python3 servebench/run.py --workload floor --seed 1 --seconds 5 > floor.txt
  python3 bench/check_regression.py --servebench-result floor.txt
  python3 servebench/run.py --workload churn --seed 1 --seconds 5 > churn.txt
  python3 bench/check_regression.py --servebench-correct churn.txt
  python3 bench/check_regression.py --e17-gate bench-json-e17/BENCH_server_throughput.json
  python3 bench/check_regression.py --e18-gate bench-json-e18/BENCH_fanout_throughput.json
  python3 bench/check_regression.py --e19-gate bench-json-e19/BENCH_reliability_tradeoff.json
  python3 bench/check_regression.py --e20-gate bench-json-e20/BENCH_historic_throughput.json
  python3 bench/check_regression.py --bench-dir bench-json
  python3 bench/check_regression.py --same-results bench-json bench-json-t1
  python3 bench/check_regression.py --tracked-baselines .github/workflows/ci.yml
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys


class BenchFileError(Exception):
    """A bench JSON file that cannot be read or parsed (one-line message)."""


def load_bench_doc(path):
    """Returns the parsed JSON object of a bench file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BenchFileError(
            f"cannot read bench file {path}: {exc.strerror or exc} "
            "(missing baseline? run the scenario with --quick --threads 1 and "
            "commit the JSON)"
        ) from exc
    except json.JSONDecodeError as exc:
        raise BenchFileError(f"bench file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BenchFileError(f"bench file {path} is not a JSON object")
    return doc


def load_points(path, metric):
    """Returns ({(param tuple): gated metric value},
    {(param tuple): {name: value}}) for every ok trial."""
    doc = load_bench_doc(path)
    points = {}
    all_metrics = {}
    for trial in doc.get("trials", []):
        if not trial.get("ok", False):
            continue
        key = tuple(sorted((k, str(v)) for k, v in dict(trial["params"]).items()))
        metrics = dict(trial["metrics"])
        all_metrics[key] = {
            name: float(value)
            for name, value in metrics.items()
            if isinstance(value, (int, float))
        }
        if metric in metrics:
            points[key] = float(metrics[metric])
    return points, all_metrics


def load_servebench_result(path):
    """Returns the JSON object on the last non-empty line of a servebench
    run's stdout."""
    try:
        with open(path) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise BenchFileError(f"cannot read servebench output {path}: {exc.strerror or exc}") from exc
    if not lines:
        raise BenchFileError(f"servebench output {path} is empty (did the run fail?)")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchFileError(f"last line of {path} is not a JSON result: {exc}") from exc
    if not isinstance(doc, dict):
        raise BenchFileError(f"last line of {path} is not a JSON object")
    return doc


def check_servebench(path, full_recall=True):
    """Gate on a servebench result line: correct, no failed calls and, with
    `full_recall`, recall exactly 1.0. Returns the exit code."""
    try:
        doc = load_servebench_result(path)
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recall = doc.get("metrics", {}).get("recall", {}).get("value")
    if recall is None:
        print(f"error: {path}: result line has no metrics.recall", file=sys.stderr)
        return 2
    failures = []
    if doc.get("correct") is not True:
        failures.append(f"correct is {doc.get('correct')!r}, want true")
    if doc.get("failed") != 0:
        failures.append(f"{doc.get('failed')} failed call(s), want 0")
    if full_recall and recall != 1.0:
        failures.append(f"recall {recall}, want 1.0")
    print(f"servebench: correct {doc.get('correct')}, failed {doc.get('failed')}, "
          f"recall {recall}")
    for failure in failures:
        print(f"servebench gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def load_trials(path):
    """Returns [(params dict, metrics dict)] for every trial of a bench file."""
    doc = load_bench_doc(path)
    return [(dict(t.get("params", {})), dict(t.get("metrics", {})))
            for t in doc.get("trials", [])]


E17_POINT = {"queries": "16", "mix": "snapshot", "churn": "off"}
E17_MIN_SPEEDUP = 1.5


def check_e17(path):
    """Gate on an E17 server_throughput bench JSON: 16 concurrent snapshot
    queries without churn serve >= 1.5x the queries/sec of sequential
    Execute. Returns the exit code."""
    try:
        trials = load_trials(path)
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = []
    matched = False
    for params, metrics in trials:
        if params != E17_POINT:
            continue
        matched = True
        speedup = metrics.get("speedup")
        if speedup is None or not speedup >= E17_MIN_SPEEDUP:
            failures.append(f"16 concurrent snapshot queries: speedup {speedup} "
                            f"< {E17_MIN_SPEEDUP:g}x")
        else:
            print(f"16 concurrent snapshot queries: {speedup:.2f}x over sequential Execute")
    # A sweep rename must fail loudly, not turn the gate into a no-op.
    if not matched:
        failures.append("E17 sweep point {queries:16, mix:snapshot, churn:off} missing")
    for failure in failures:
        print(f"E17 gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


E18_SUBSCRIBERS = "1000000"
E18_POINTS = 3
E18_MIN_RATE = 1e5


def check_e18(path):
    """Gate on an E18 fanout_throughput bench JSON: exactly three U=1e6
    sweep points, each >= 1e5 deliveries/sec. Returns the exit code."""
    try:
        trials = load_trials(path)
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = []
    matched = 0
    for params, metrics in trials:
        if params.get("subscribers") != E18_SUBSCRIBERS:
            continue
        matched += 1
        rate = metrics.get("deliveries_per_sec")
        if rate is None or not rate >= E18_MIN_RATE:
            failures.append(f"U=1e6 Q={params.get('queries')}: {rate} deliveries/sec "
                            f"< {E18_MIN_RATE:g}")
        else:
            print(f"U=1e6 Q={params.get('queries')}: {rate:.0f} deliveries/sec, "
                  f"{metrics.get('operators', 0):.0f} operators")
    # A sweep rename must fail loudly, not turn the gate into a no-op.
    if matched != E18_POINTS:
        failures.append(f"expected {E18_POINTS} U=1e6 sweep points, saw {matched}")
    for failure in failures:
        print(f"E18 gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def check_e19(path):
    """Gate on an E19 reliability_tradeoff bench JSON: the reference sweep
    point is present, meets the completeness SLO and keeps the energy
    overhead in bound. Returns the exit code."""
    try:
        trials = load_trials(path)
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = []
    matched = False
    for _, metrics in trials:
        if "slo_completeness_ok" not in metrics:
            continue
        matched = True
        num = {name: float(metrics.get(name, float("nan")))
               for name in ("completeness", "energy_mj_per_epoch", "energy_off_mj_per_epoch",
                            "retries_per_epoch")}
        if metrics["slo_completeness_ok"] != 1.0:
            failures.append(f"reference completeness {num['completeness']:.3f} < SLO")
        if metrics.get("overhead_ok") != 1.0:
            failures.append(f"energy overhead: {num['energy_mj_per_epoch']:.2f} vs "
                            f"{num['energy_off_mj_per_epoch']:.2f} mJ/epoch flat")
        print(f"reference point: completeness {num['completeness']:.3f}, "
              f"{num['retries_per_epoch']:.1f} retries/epoch")
    # A sweep rename must fail loudly, not turn the gate into a no-op.
    if not matched:
        failures.append("E19 reference sweep point missing")
    for failure in failures:
        print(f"E19 gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


BENCH_DIR_MIN_FILES = 20
BENCH_DIR_SCENARIOS = ("churn_lifetime", "churn_accuracy", "repair_cost", "throughput",
                       "server_throughput", "fanout_throughput", "reliability_tradeoff",
                       "historic_throughput")


def check_bench_dir(path):
    """Gate on a `kspot_bench --all --json-dir` directory: >= 20 result
    files including the gated scenarios, schema_version 1, every trial ok.
    Returns the exit code."""
    if not os.path.isdir(path):
        print(f"error: bench JSON directory {path} does not exist", file=sys.stderr)
        return 2
    files = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
    failures = []
    if len(files) < BENCH_DIR_MIN_FILES:
        failures.append(f"expected >= {BENCH_DIR_MIN_FILES} result files, got {len(files)}")
    for name in BENCH_DIR_SCENARIOS:
        if os.path.join(path, f"BENCH_{name}.json") not in files:
            failures.append(f"missing scenario {name}")
    for file in files:
        try:
            doc = load_bench_doc(file)
        except BenchFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if doc.get("schema_version") != 1:
            failures.append(f"{file}: schema_version {doc.get('schema_version')!r}, want 1")
            continue
        trials = doc.get("trials", [])
        bad = [t.get("index", i) for i, t in enumerate(trials) if not t.get("ok")]
        if bad:
            failures.append(f"{file}: failed trials {bad}")
        else:
            print(f"{file}: {doc.get('trial_count', len(trials))} trials ok")
    for failure in failures:
        print(f"bench JSON check FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


SAME_RESULTS_WALL_CLOCK_METRICS = frozenset((
    "epochs_per_sec", "wall_ms_p50", "wall_ms_p95", "wall_ms_p99", "coord_qps", "seq_qps",
    "speedup", "deliveries_per_sec", "p50_delivery_ms", "p99_delivery_ms"))
SAME_RESULTS_MAX_REPORTED = 20


def strip_wall_clock(doc):
    """Returns a bench document without its wall-clock values."""
    doc = {k: v for k, v in doc.items() if k not in ("threads", "wall_ms")}
    trials = []
    for trial in doc.get("trials", []):
        if isinstance(trial, dict):
            trial = {k: v for k, v in trial.items() if k != "wall_ms"}
            if isinstance(trial.get("metrics"), dict):
                trial["metrics"] = {k: v for k, v in trial["metrics"].items()
                                    if k not in SAME_RESULTS_WALL_CLOCK_METRICS}
        trials.append(trial)
    if "trials" in doc:
        doc["trials"] = trials
    return doc


def json_differences(a, b, path):
    """Yields a line per value that differs between two parsed documents."""
    if type(a) is not type(b):
        yield f"{path}: {a!r} != {b!r}"
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield f"{path}.{key}: present in only one run"
            else:
                yield from json_differences(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{path}: {len(a)} entries != {len(b)}"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from json_differences(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: {a!r} != {b!r}"


def check_same_results(dir_a, dir_b):
    """Gate on two `kspot_bench --json-dir` directories: the same BENCH_*.json
    files with equal non-wall-clock values. Returns the exit code."""
    files = {}
    for path in (dir_a, dir_b):
        if not os.path.isdir(path):
            print(f"error: {path} is not a bench JSON directory", file=sys.stderr)
            return 2
        names = sorted(os.path.basename(f)
                       for f in glob.glob(os.path.join(path, "BENCH_*.json")))
        if not names:
            print(f"error: bench JSON directory {path} holds no BENCH_*.json file",
                  file=sys.stderr)
            return 2
        files[path] = names
    failures = [f"{name}: missing from {path}"
                for path, other in ((dir_b, dir_a), (dir_a, dir_b))
                for name in files[other] if name not in files[path]]
    for name in sorted(set(files[dir_a]) & set(files[dir_b])):
        try:
            docs = [strip_wall_clock(load_bench_doc(os.path.join(path, name)))
                    for path in (dir_a, dir_b)]
        except BenchFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diffs = list(json_differences(docs[0], docs[1], name))
        failures += diffs
        if not diffs:
            print(f"{name}: same results")
    for failure in failures[:SAME_RESULTS_MAX_REPORTED]:
        print(f"same-results check FAILED: {failure}", file=sys.stderr)
    if len(failures) > SAME_RESULTS_MAX_REPORTED:
        print(f"... and {len(failures) - SAME_RESULTS_MAX_REPORTED} more differences",
              file=sys.stderr)
    return 1 if failures else 0


def check_tracked_baselines(workflow):
    """Gate on a CI workflow file: every --baseline path it names outside the
    bench-json* output directories is tracked by git (run from the repository
    root). Returns the exit code."""
    try:
        with open(workflow) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read workflow {workflow}: {exc}", file=sys.stderr)
        return 2
    paths = sorted({p for p in re.findall(r"--baseline\s+(\S+\.json)", text)
                    if not p.startswith("bench-json")})
    if not paths:
        print(f"error: no --baseline paths found in {workflow}; gate would be vacuous",
              file=sys.stderr)
        return 2
    missing = [p for p in paths
               if subprocess.run(["git", "ls-files", "--error-unmatch", p],
                                 capture_output=True).returncode != 0]
    for p in paths:
        print(("MISSING " if p in missing else "tracked ") + p)
    return 1 if missing else 0


E20_MIN_SPEEDUP = 5.0
E20_MIN_WINDOW = 64
E20_MIN_PAIRS = 2


def check_e20(path):
    """Gate on an E20 historic_throughput bench JSON: delta >= 5x scratch at
    every W >= 64 point (at least two), and a suppression row that saves
    traffic within its error bound. Returns the exit code."""
    try:
        doc = load_bench_doc(path)
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    delta, scratch = {}, {}
    suppress = None
    for trial in doc.get("trials", []):
        params, metrics = dict(trial.get("params", {})), dict(trial.get("metrics", {}))
        key = (params.get("n"), params.get("w"))
        algorithm = trial.get("algorithm")
        if algorithm == "HIST-delta" and params.get("flash") == "off":
            delta[key] = metrics.get("epochs_per_sec")
        elif algorithm == "HIST-scratch" and params.get("flash") == "off":
            scratch[key] = metrics.get("epochs_per_sec")
        elif algorithm == "HIST-delta+suppress":
            suppress = metrics
    failures = []
    pairs = 0
    for key, scratch_rate in scratch.items():
        if int(key[1]) < E20_MIN_WINDOW:
            continue
        if not delta.get(key) or not scratch_rate:
            failures.append(f"n={key[0]} W={key[1]}: no delta/scratch epochs_per_sec pair")
            continue
        pairs += 1
        speedup = delta[key] / scratch_rate
        print(f"n={key[0]} W={key[1]}: delta {speedup:.1f}x over from-scratch")
        if speedup < E20_MIN_SPEEDUP:
            failures.append(f"n={key[0]} W={key[1]}: delta only {speedup:.1f}x over "
                            f"scratch (< {E20_MIN_SPEEDUP:g}x)")
    # A sweep rename must fail loudly, not turn the gate into a no-op.
    if pairs < E20_MIN_PAIRS:
        failures.append(f"expected >= {E20_MIN_PAIRS} W>={E20_MIN_WINDOW} delta/scratch "
                        f"pairs, saw {pairs}")
    if suppress is None:
        failures.append("suppression sweep row missing")
    else:
        reduction = suppress.get("traffic_reduction", 0.0)
        err, bound = suppress.get("recon_err_max"), suppress.get("recon_err_bound")
        if not reduction > 0.0:
            failures.append("suppression saved no traffic")
        if err is None or bound is None or not err <= bound:
            failures.append(f"reconstruction error {err} exceeds eps {bound}")
        print(f"suppression: {100 * reduction:.0f}% fewer bytes, max error {err} <= {bound}")
    for failure in failures:
        print(f"E20 gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def check_gated(baselines, currents, metric, tolerance):
    """Gates the current runs against the baseline runs, paired in order: at
    every sweep point, the median over the pairs of current / baseline must
    not fall below 1 - tolerance. One pair compares two runs directly; several
    interleaved pairs keep one run slowed by a shared host from deciding the
    gate. Returns the exit code."""
    if len(baselines) != len(currents):
        print(f"error: {len(baselines)} baseline file(s) but {len(currents)} current "
              "file(s); pass them in pairs", file=sys.stderr)
        return 2
    pairs = []
    try:
        for base_path, cur_path in zip(baselines, currents):
            pairs.append((load_points(base_path, metric), load_points(cur_path, metric)))
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for (base_path, cur_path), ((baseline, _), (current, _)) in zip(zip(baselines, currents),
                                                                    pairs):
        if not baseline:
            print(f"error: no usable trials in baseline {base_path}", file=sys.stderr)
            return 2
        if not current:
            print(f"error: no usable trials in {cur_path}", file=sys.stderr)
            return 2

    failures = []
    missing = []
    compared = 0
    for key in sorted(pairs[0][0][0]):
        ratios = []
        for (base_path, _), ((baseline, baseline_metrics), (current, current_metrics)) in zip(
                zip(baselines, currents), pairs):
            if key not in baseline or key not in current:
                missing.append((base_path, key))
                continue
            base_eps, cur_eps = baseline[key], current[key]
            ratios.append(cur_eps / base_eps if base_eps > 0 else float("inf"))
            print(
                f"{dict(key)}: baseline {base_eps:.1f} {metric}, "
                f"current {cur_eps:.1f} ({ratios[-1]:.2f}x)"
            )
            print_metric_deltas(baseline_metrics.get(key, {}), current_metrics.get(key, {}),
                                metric)
        if len(ratios) < len(pairs):
            continue
        compared += 1
        ratio = statistics.median(ratios)
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            failures.append((key, ratio))
        if len(pairs) > 1:
            print(f"  median of {len(pairs)} pairs: {ratio:.2f}x {status}")
        elif status != "ok":
            print(f"  {status}")

    if missing:
        print(
            f"error: {len(missing)} baseline sweep point(s) missing from a paired "
            "run (sweep changed? refresh the baseline):",
            file=sys.stderr,
        )
        for path, key in missing:
            print(f"  {path}: {dict(key)}", file=sys.stderr)
        return 2
    if compared == 0:
        print("error: no comparable sweep points; gate would be vacuous", file=sys.stderr)
        return 2
    if failures:
        print(
            f"\n{len(failures)} point(s) regressed by more than "
            f"{tolerance:.0%} {metric} (median over {len(pairs)} pair(s)):",
            file=sys.stderr,
        )
        for key, ratio in failures:
            print(f"  {dict(key)}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\nno {metric} regression beyond tolerance")
    return 0


def print_metric_deltas(base_metrics, cur_metrics, gated_metric):
    """One indented line per non-gated metric both runs share: the perf
    trajectory CI logs show on pass as well as fail."""
    for name in sorted(set(base_metrics) & set(cur_metrics)):
        if name == gated_metric:
            continue
        base, cur = base_metrics[name], cur_metrics[name]
        ratio = f"{cur / base:.2f}x" if base != 0 else "n/a"
        print(f"    {name}: baseline {base:.3f} -> current {cur:.3f} ({ratio})")


def self_test():
    """Spawns this script against missing/garbage/good inputs and asserts the
    advertised contract: actionable one-line errors, exit 2, no traceback."""
    import tempfile

    good = {
        "trials": [
            {
                "ok": True,
                "params": [["case", "ref"]],
                "metrics": [["epochs_per_sec", 100.0]],
            }
        ]
    }

    def run(baseline_path, current_path):
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--baseline", baseline_path, "--current", current_path],
            capture_output=True, text=True,
        )

    def run_pairs(baselines, currents):
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--tolerance", "0.03",
             "--baseline", *baselines, "--current", *currents],
            capture_output=True, text=True,
        )

    def eps_file(tmp, name, eps):
        path = os.path.join(tmp, name)
        doc = {"trials": [{"ok": True, "params": [["case", "ref"]],
                           "metrics": [["epochs_per_sec", eps]]}]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def run_mode(flag, *paths, cwd=None):
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__), flag, *paths],
            capture_output=True, text=True, cwd=cwd,
        )

    def run_servebench(result_path):
        return run_mode("--servebench-result", result_path)

    def run_servebench_correct(result_path):
        return run_mode("--servebench-correct", result_path)

    def run_e17(path):
        return run_mode("--e17-gate", path)

    def run_e18(path):
        return run_mode("--e18-gate", path)

    def run_e19(path):
        return run_mode("--e19-gate", path)

    def run_e20(path):
        return run_mode("--e20-gate", path)

    def run_bench_dir(path):
        return run_mode("--bench-dir", path)

    def run_same(dir_a, dir_b):
        return run_mode("--same-results", dir_a, dir_b)

    def results_dir(tmp, name, metric=0.5, threads=1, rate=100.0, extra=False):
        path = os.path.join(tmp, name)
        os.makedirs(path)
        trial = {"index": 0, "params": {"n": "200"}, "ok": True, "wall_ms": rate / 7,
                 "metrics": {"msgs_per_epoch": metric, "epochs_per_sec": rate,
                             "wall_ms_p99": 1 / rate}}
        scenarios = ("throughput", "loss") + (("lifetime",) if extra else ())
        for scenario in scenarios:
            with open(os.path.join(path, f"BENCH_{scenario}.json"), "w") as fh:
                json.dump({"schema_version": 1, "threads": threads, "wall_ms": rate,
                           "trials": [trial]}, fh)
        return path

    def run_tracked(repo, workflow):
        return run_mode("--tracked-baselines", workflow, cwd=repo)

    def write_trials(tmp, name, trials):
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump({"trials": trials}, fh)
        return path

    def e17_output(tmp, name, speedup=3.0, point=True):
        trials = [{"params": {"queries": "4", "mix": "snapshot", "churn": "off"},
                   "metrics": {"speedup": 1.0}}]
        if point:
            trials.append({"params": dict(E17_POINT), "metrics": {"speedup": speedup}})
        return write_trials(tmp, name, trials)

    def e18_output(tmp, name, rate=5e7, points=3):
        trials = [{"params": {"subscribers": "1000", "queries": "4"},
                   "metrics": {"deliveries_per_sec": 10.0, "operators": 1}}]
        for q in (4, 16, 64)[:points]:
            trials.append({"params": {"subscribers": E18_SUBSCRIBERS, "queries": str(q)},
                           "metrics": {"deliveries_per_sec": rate, "operators": 1}})
        return write_trials(tmp, name, trials)

    def e20_output(tmp, name, speedup=8.0, windows=(64, 128), suppress=True,
                   reduction=0.7, recon_err=2.0):
        trials = []
        for w in (16,) + tuple(windows):
            for algorithm, rate in (("HIST-delta", 100.0 * speedup), ("HIST-scratch", 100.0)):
                trials.append({"algorithm": algorithm,
                               "params": {"n": "200", "w": str(w), "flash": "off"},
                               "metrics": {"epochs_per_sec": rate}})
        if suppress:
            trials.append({"algorithm": "HIST-delta+suppress",
                           "params": {"n": "200", "w": "64", "eps": "2"},
                           "metrics": {"traffic_reduction": reduction,
                                       "recon_err_max": recon_err, "recon_err_bound": 2}})
        return write_trials(tmp, name, trials)

    def e19_output(tmp, name, slo_ok=1.0, overhead_ok=1.0, point=True):
        trials = [{"params": [["retries", "0"]], "metrics": [["completeness", 0.8]]}]
        if point:
            trials.append({"params": [["retries", "4"]],
                           "metrics": [["completeness", 0.99], ["slo_completeness_ok", slo_ok],
                                       ["overhead_ok", overhead_ok],
                                       ["energy_mj_per_epoch", 2.0],
                                       ["energy_off_mj_per_epoch", 1.5],
                                       ["retries_per_epoch", 3.0]]})
        return write_trials(tmp, name, trials)

    def bench_dir(tmp, name, files=BENCH_DIR_MIN_FILES, drop=None, schema=1, failed=False):
        path = os.path.join(tmp, name)
        os.makedirs(path)
        names = list(BENCH_DIR_SCENARIOS)
        names += [f"extra{i}" for i in range(max(0, files - len(names)))]
        for i, scenario in enumerate(names[:files]):
            if scenario == drop:
                continue
            trials = [{"index": 0, "ok": True}, {"index": 1, "ok": not (failed and i == 0)}]
            with open(os.path.join(path, f"BENCH_{scenario}.json"), "w") as fh:
                json.dump({"schema_version": schema, "trial_count": 2, "trials": trials}, fh)
        return path

    def tracked_repo(tmp, name, untracked=False):
        repo = os.path.join(tmp, name)
        os.makedirs(os.path.join(repo, "base"))
        for file in ("a.json", "b.json"):
            with open(os.path.join(repo, "base", file), "w") as fh:
                fh.write("{}")
        with open(os.path.join(repo, "ci.yml"), "w") as fh:
            fh.write("run: gate --baseline base/a.json --current bench-json/a.json\n"
                     "run: gate --baseline base/b.json\n"
                     "run: gate --baseline bench-json-x/self.json\n")
        subprocess.run(["git", "init", "-q", repo], check=True, capture_output=True)
        staged = ["base/a.json"] if untracked else ["base/a.json", "base/b.json"]
        subprocess.run(["git", "add"] + staged, cwd=repo, check=True, capture_output=True)
        return repo

    def servebench_output(tmp, name, correct, failed, recall):
        path = os.path.join(tmp, name)
        result = {"correct": correct, "attempted": 10, "failed": failed,
                  "metrics": {"recall": {"value": recall, "unit": "ratio"}}}
        with open(path, "w") as fh:
            fh.write("metric table\n" + json.dumps(result) + "\n")
        return path

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        good_path = os.path.join(tmp, "good.json")
        with open(good_path, "w") as fh:
            json.dump(good, fh)
        garbage_path = os.path.join(tmp, "garbage.json")
        with open(garbage_path, "w") as fh:
            fh.write("{not json")
        missing_path = os.path.join(tmp, "does-not-exist.json")
        garbage_dir = bench_dir(tmp, "dir_garbage")
        with open(os.path.join(garbage_dir, "BENCH_throughput.json"), "w") as fh:
            fh.write("{not json")
        results_ref = results_dir(tmp, "results_ref")
        empty_dir = os.path.join(tmp, "results_empty")
        os.makedirs(empty_dir)
        results_garbage = results_dir(tmp, "results_garbage")
        with open(os.path.join(results_garbage, "BENCH_loss.json"), "w") as fh:
            fh.write("{not json")

        offs = [eps_file(tmp, f"off{i}.json", 100.0) for i in range(3)]
        one_slow = [eps_file(tmp, f"on{i}.json", eps) for i, eps in enumerate((90.0, 99.0, 101.0))]
        two_slow = [eps_file(tmp, f"slow{i}.json", eps)
                    for i, eps in enumerate((90.0, 96.0, 101.0))]
        cases = [
            ("missing baseline", run(missing_path, good_path), 2),
            ("pairs: one slow run of three", run_pairs(offs, one_slow), 0),
            ("pairs: median regressed", run_pairs(offs, two_slow), 1),
            ("pairs: unpaired files", run_pairs(offs, one_slow[:2]), 2),
            ("garbage baseline", run(garbage_path, good_path), 2),
            ("missing current", run(good_path, missing_path), 2),
            ("identical runs", run(good_path, good_path), 0),
            ("servebench missing output", run_servebench(missing_path), 2),
            ("servebench garbage output", run_servebench(garbage_path), 2),
            ("servebench low recall",
             run_servebench(servebench_output(tmp, "low.txt", True, 0, 0.82)), 1),
            ("servebench failed calls",
             run_servebench(servebench_output(tmp, "failed.txt", True, 3, 1.0)), 1),
            ("servebench incorrect",
             run_servebench(servebench_output(tmp, "wrong.txt", False, 0, 1.0)), 1),
            ("servebench clean run",
             run_servebench(servebench_output(tmp, "clean.txt", True, 0, 1)), 0),
            ("servebench-correct missing output", run_servebench_correct(missing_path), 2),
            ("servebench-correct garbage output", run_servebench_correct(garbage_path), 2),
            ("servebench-correct lossy clean run",
             run_servebench_correct(servebench_output(tmp, "churn.txt", True, 0, 0.79)), 0),
            ("servebench-correct failed calls",
             run_servebench_correct(servebench_output(tmp, "churn_failed.txt", True, 2, 0.79)),
             1),
            ("servebench-correct incorrect",
             run_servebench_correct(servebench_output(tmp, "churn_wrong.txt", False, 0, 0.79)),
             1),
            ("e17 missing output", run_e17(missing_path), 2),
            ("e17 garbage output", run_e17(garbage_path), 2),
            ("e17 clean run", run_e17(e17_output(tmp, "e17_clean.json")), 0),
            ("e17 speedup under 1.5x",
             run_e17(e17_output(tmp, "e17_slow.json", speedup=1.49)), 1),
            ("e17 sweep point missing",
             run_e17(e17_output(tmp, "e17_no_point.json", point=False)), 1),
            ("e18 missing output", run_e18(missing_path), 2),
            ("e18 garbage output", run_e18(garbage_path), 2),
            ("e18 clean run", run_e18(e18_output(tmp, "e18_clean.json")), 0),
            ("e18 rate under 1e5", run_e18(e18_output(tmp, "e18_slow.json", rate=9.9e4)), 1),
            ("e18 two U=1e6 points",
             run_e18(e18_output(tmp, "e18_two_points.json", points=2)), 1),
            ("e19 missing output", run_e19(missing_path), 2),
            ("e19 garbage output", run_e19(garbage_path), 2),
            ("e19 clean run", run_e19(e19_output(tmp, "e19_clean.json")), 0),
            ("e19 completeness under SLO",
             run_e19(e19_output(tmp, "e19_slo.json", slo_ok=0.0)), 1),
            ("e19 energy overhead over bound",
             run_e19(e19_output(tmp, "e19_overhead.json", overhead_ok=0.0)), 1),
            ("e19 reference point missing",
             run_e19(e19_output(tmp, "e19_no_point.json", point=False)), 1),
            ("bench dir missing", run_bench_dir(missing_path), 2),
            ("bench dir garbage file", run_bench_dir(garbage_dir), 2),
            ("bench dir clean", run_bench_dir(bench_dir(tmp, "dir_clean")), 0),
            ("bench dir under 20 files",
             run_bench_dir(bench_dir(tmp, "dir_few", files=BENCH_DIR_MIN_FILES - 1)), 1),
            ("bench dir scenario missing",
             run_bench_dir(bench_dir(tmp, "dir_drop", files=BENCH_DIR_MIN_FILES + 1,
                                     drop="throughput")), 1),
            ("bench dir schema_version 2",
             run_bench_dir(bench_dir(tmp, "dir_schema", schema=2)), 1),
            ("bench dir failed trial",
             run_bench_dir(bench_dir(tmp, "dir_failed", failed=True)), 1),
            ("same results missing dir", run_same(results_ref, missing_path), 2),
            ("same results not a dir", run_same(garbage_path, results_ref), 2),
            ("same results empty dir", run_same(results_ref, empty_dir), 2),
            ("same results garbage file", run_same(results_ref, results_garbage), 2),
            ("same results wall clock only",
             run_same(results_ref, results_dir(tmp, "results_clock", threads=4, rate=250.0)),
             0),
            ("same results metric differs",
             run_same(results_ref, results_dir(tmp, "results_metric", metric=0.25)), 1),
            ("same results file missing",
             run_same(results_dir(tmp, "results_extra", extra=True), results_ref), 1),
            ("tracked baselines missing workflow", run_tracked(tmp, missing_path), 2),
            ("tracked baselines garbage workflow", run_tracked(tmp, garbage_path), 2),
            ("tracked baselines clean",
             run_tracked(tracked_repo(tmp, "repo_clean"), "ci.yml"), 0),
            ("tracked baselines untracked file",
             run_tracked(tracked_repo(tmp, "repo_untracked", untracked=True), "ci.yml"), 1),
            ("e20 missing output", run_e20(missing_path), 2),
            ("e20 garbage output", run_e20(garbage_path), 2),
            ("e20 clean run", run_e20(e20_output(tmp, "e20_clean.json")), 0),
            ("e20 delta under 5x", run_e20(e20_output(tmp, "e20_slow.json", speedup=4.9)), 1),
            ("e20 one W>=64 pair",
             run_e20(e20_output(tmp, "e20_one_pair.json", windows=(64,))), 1),
            ("e20 suppression row missing",
             run_e20(e20_output(tmp, "e20_no_suppress.json", suppress=False)), 1),
            ("e20 suppression saves nothing",
             run_e20(e20_output(tmp, "e20_no_saving.json", reduction=0.0)), 1),
            ("e20 error over bound",
             run_e20(e20_output(tmp, "e20_over_bound.json", recon_err=2.5)), 1),
        ]
        for name, proc, want in cases:
            if proc.returncode != want:
                failures.append(f"{name}: exit {proc.returncode}, want {want}")
            if "Traceback" in proc.stderr:
                failures.append(f"{name}: stderr shows a Python traceback")
            if want == 2 and not proc.stderr.startswith("error:"):
                failures.append(f"{name}: stderr does not start with 'error:'")

    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print("self-test ok: error paths exit 2 with one-line errors, no traceback; "
          "paired runs gate on the median ratio; "
          "servebench gate passes only correct, failure-free, full-recall runs "
          "(--servebench-correct: correct and failure-free at any recall); "
          "E17 gate passes only a present >= 1.5x speedup point; "
          "E18 gate passes only three U=1e6 points at >= 1e5 deliveries/sec; "
          "E19 gate passes only a present reference point within SLO and overhead; "
          "bench-dir check passes only >= 20 schema-1 files with the gated "
          "scenarios and no failed trial; same-results passes only directories "
          "that differ in wall-clock values alone; tracked-baselines passes only when "
          "every --baseline path is tracked; "
          "E20 gate passes only >= 5x delta pairs with a bounded, saving suppression row")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", nargs="+",
                        default=["bench/baseline/BENCH_E16_throughput.json"],
                        help="baseline bench JSON(s), paired in order with --current")
    parser.add_argument("--current", nargs="+", default=None,
                        help="current bench JSON(s); with several pairs the gate takes "
                             "each sweep point's median ratio")
    parser.add_argument(
        "--metric",
        default="epochs_per_sec",
        help="per-trial metric to gate on (default epochs_per_sec; E17 uses coord_qps)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("KSPOT_E16_TOLERANCE", "0.25")),
        help="maximum allowed fractional drop of the gated metric (default 0.25)",
    )
    parser.add_argument(
        "--servebench-result",
        default=None,
        help="check a servebench/run.py stdout capture instead of a bench JSON",
    )
    parser.add_argument(
        "--servebench-correct",
        default=None,
        help="check a servebench/run.py stdout capture for a correct, failure-free "
             "run without the recall check (the lossy churn workload)",
    )
    parser.add_argument(
        "--e17-gate",
        default=None,
        help="check the E17 server_throughput acceptance floor of a bench JSON",
    )
    parser.add_argument(
        "--e18-gate",
        default=None,
        help="check the E18 fanout_throughput acceptance floor of a bench JSON",
    )
    parser.add_argument(
        "--e19-gate",
        default=None,
        help="check the E19 reliability_tradeoff reference point of a bench JSON",
    )
    parser.add_argument(
        "--bench-dir",
        default=None,
        help="check a kspot_bench --json-dir directory (files, scenarios, schema, trials)",
    )
    parser.add_argument(
        "--same-results",
        nargs=2,
        default=None,
        metavar=("DIR_A", "DIR_B"),
        help="check two kspot_bench --json-dir directories agree on every "
             "non-wall-clock value",
    )
    parser.add_argument(
        "--tracked-baselines",
        default=None,
        metavar="WORKFLOW",
        help="check every --baseline path in a CI workflow file is tracked by git",
    )
    parser.add_argument(
        "--e20-gate",
        default=None,
        help="check the E20 historic_throughput acceptance floor of a bench JSON",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="exercise the error paths (missing/garbage baseline) and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.servebench_result is not None:
        return check_servebench(args.servebench_result)
    if args.servebench_correct is not None:
        return check_servebench(args.servebench_correct, full_recall=False)
    if args.e17_gate is not None:
        return check_e17(args.e17_gate)
    if args.e18_gate is not None:
        return check_e18(args.e18_gate)
    if args.e19_gate is not None:
        return check_e19(args.e19_gate)
    if args.e20_gate is not None:
        return check_e20(args.e20_gate)
    if args.bench_dir is not None:
        return check_bench_dir(args.bench_dir)
    if args.same_results is not None:
        return check_same_results(*args.same_results)
    if args.tracked_baselines is not None:
        return check_tracked_baselines(args.tracked_baselines)
    if args.current is None:
        parser.error("--current is required (unless --self-test, --servebench-result, "
                     "--servebench-correct, --e17-gate, --e18-gate, --e19-gate, --e20-gate, --bench-dir, "
                     "--same-results or --tracked-baselines)")

    return check_gated(args.baseline, args.current, args.metric, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
