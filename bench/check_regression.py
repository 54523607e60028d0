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

Only the gated metric can fail the build, but every numeric metric the two
runs share is printed per sweep row (baseline -> current, ratio) on pass as
well as fail, so CI logs carry the whole perf trajectory.

With --servebench-result it instead checks the result line (the last stdout
line) of a servebench/run.py run: the run must be correct, no call may have
failed, and answer recall must be exactly 1.0. Recall is a simulation output,
not wall-clock, so this gate needs no baseline.

The baselines are machine-dependent: refresh them (run the scenario with
--quick --threads 1 and copy the JSON) whenever CI hardware changes, and
always alongside intentional perf-trade commits.

Usage:
  python3 bench/check_regression.py --current bench-json-e16/BENCH_throughput.json
  python3 bench/check_regression.py --metric coord_qps \
      --baseline bench/baseline/BENCH_E17_server_throughput.json \
      --current bench-json-e17/BENCH_server_throughput.json
  python3 servebench/run.py --workload floor --seed 1 --seconds 5 > floor.txt
  python3 bench/check_regression.py --servebench-result floor.txt
"""

import argparse
import json
import os
import sys


class BenchFileError(Exception):
    """A bench JSON file that cannot be read or parsed (one-line message)."""


def load_points(path, metric):
    """Returns ({(param tuple): gated metric value},
    {(param tuple): {name: value}}) for every ok trial."""
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


def check_servebench(path):
    """Gate on a servebench result line: correct, no failed calls, recall
    exactly 1.0. Returns the exit code."""
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
    if recall != 1.0:
        failures.append(f"recall {recall}, want 1.0")
    print(f"servebench: correct {doc.get('correct')}, failed {doc.get('failed')}, "
          f"recall {recall}")
    for failure in failures:
        print(f"servebench gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


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
    import subprocess
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

    def run_servebench(result_path):
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--servebench-result", result_path],
            capture_output=True, text=True,
        )

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

        cases = [
            ("missing baseline", run(missing_path, good_path), 2),
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
          "servebench gate passes only correct, failure-free, full-recall runs")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baseline/BENCH_E16_throughput.json")
    parser.add_argument("--current", default=None)
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
        "--self-test",
        action="store_true",
        help="exercise the error paths (missing/garbage baseline) and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.servebench_result is not None:
        return check_servebench(args.servebench_result)
    if args.current is None:
        parser.error("--current is required (unless --self-test or --servebench-result)")

    try:
        baseline, baseline_metrics = load_points(args.baseline, args.metric)
        current, current_metrics = load_points(args.current, args.metric)
    except BenchFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: no usable trials in baseline {args.baseline}", file=sys.stderr)
        return 2
    if not current:
        print(f"error: no usable trials in {args.current}", file=sys.stderr)
        return 2

    failures = []
    missing = []
    compared = 0
    for key, base_eps in sorted(baseline.items()):
        if key not in current:
            missing.append(key)
            continue
        compared += 1
        cur_eps = current[key]
        ratio = cur_eps / base_eps if base_eps > 0 else float("inf")
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSION"
            failures.append((key, base_eps, cur_eps, ratio))
        print(
            f"{dict(key)}: baseline {base_eps:.1f} {args.metric}, "
            f"current {cur_eps:.1f} ({ratio:.2f}x) {status}"
        )
        print_metric_deltas(baseline_metrics.get(key, {}), current_metrics.get(key, {}),
                            args.metric)

    if missing:
        print(
            f"error: {len(missing)} baseline sweep point(s) missing from the "
            f"current run (sweep changed? refresh {args.baseline}):",
            file=sys.stderr,
        )
        for key in missing:
            print(f"  {dict(key)}", file=sys.stderr)
        return 2
    if compared == 0:
        print("error: no comparable sweep points; gate would be vacuous", file=sys.stderr)
        return 2
    if failures:
        print(
            f"\n{len(failures)} point(s) regressed by more than "
            f"{args.tolerance:.0%} {args.metric}:",
            file=sys.stderr,
        )
        for key, base_eps, cur_eps, ratio in failures:
            print(
                f"  {dict(key)}: {base_eps:.1f} -> {cur_eps:.1f} eps ({ratio:.2f}x)",
                file=sys.stderr,
            )
        return 1
    print(f"\nno {args.metric} regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
