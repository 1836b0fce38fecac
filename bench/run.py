"""The jmrep benchmark.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (represent, group_algebra or cli_batch; see BENCHMARK.json
and workloads.py) as a closed loop with one client in this process: the next
operation starts when the previous one has finished.  Inputs follow from the
seed; jmrep is imported from src/ next to this directory and sees only the
generated inputs.  The loop runs for S seconds and at least MIN_OPS
operations.  An operation's latency is the time of its calls into jmrep
and of the checks on their results; generating its inputs is not timed,
and ops_per_s is operations over the summed operation time.

Every result is checked.  "failed" counts operations that raised, returned
a wrong result, or (cli_batch) exited with the wrong code or output;
"correct" is false only if some operation gave a wrong answer, as opposed
to crashing or mishandling malformed input.

With --trace 0 it reports the end-to-end metrics: setup_s (median of
several cold set-ups, each the first in its own process), ops_per_s,
op_ms_p50, op_ms_p90, peak_rss_mb.  With --trace 1 the operations run with
spans recorded around every public jmrep function and it reports the
per-layer metrics of spans.layer_metrics.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it are a readable summary.  A JSON record with run metadata goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("represent", "group_algebra", "cli_batch")
# Set-up is timed at least SETUP_SAMPLES times, and more (up to
# SETUP_MAX_SAMPLES) while the samples so far took under SETUP_BUDGET_S, so
# that short set-ups get enough samples for a steady median.
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 3.0
# With nearest-rank percentiles, 200 samples leave 20 above p90; on
# cli_batch the floor also keeps the two g = 4 calls a minority of the time.
MIN_OPS = 200
SETUP_TIMEOUT_S = 170


def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    rank = max(math.ceil(q / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def samples_above(n, q):
    """How many of n samples lie strictly beyond the nearest-rank q-th percentile position."""
    return n - max(math.ceil(q / 100 * n), 1)


def timed_setup(name, seed, workdir, tracer_factory=None):
    """Import jmrep and build the workload; returns (workload, tracer, seconds)."""
    start = perf_counter()
    import workloads  # imports jmrep

    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
        tracer.active = True
    wl = workloads.WORKLOADS[name](seed, workdir, tracer)
    if tracer is not None:
        tracer.active = False
    return wl, tracer, perf_counter() - start


def setup_in_child(args) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"set-up sample failed (exit {res.returncode}): {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def run_ops(wl, count=None, seconds=None, tracer=None):
    """Run operations 0, 1, ... in a closed loop; returns (latencies, failures).

    Stops after `count` operations, or once `seconds` have passed and at
    least MIN_OPS operations are done.  Input generation is not timed.
    """
    latencies, failures = [], []
    deadline = None if seconds is None else perf_counter() + seconds
    i = 0
    while (i < count) if count is not None else (i < MIN_OPS or perf_counter() < deadline):
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.current_op = i
            tracer.active = True
        start = perf_counter()
        try:
            failure = wl.run(inp)
        except Exception as exc:  # a crash is a failed operation; the loop goes on
            failure = ("error", f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if failure:
            failures.append(failure)
        i += 1
    return latencies, failures


def count_lines(paths) -> int:
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def metadata(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    pkg = ROOT / "src" / "jmrep"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": count_lines(sorted(pkg.rglob("*.py"))),
        "catalog_json_lines": count_lines(sorted(pkg.glob("catalog_data/*/*.json"))),
    }


def measure(args, workdir):
    """Returns (metrics as name -> (value, unit), attempted, failures, details)."""
    if args.trace:
        from spans import Tracer, layer_metrics

        wl, tracer, _ = timed_setup(args.workload, args.seed, workdir, Tracer)
        tracer.counters.clear()
        latencies, failures = run_ops(wl, seconds=args.seconds, tracer=tracer)
        wall = sum(latencies)
        tracer.uninstall()
        replay, _ = run_ops(wl, count=len(latencies))
        process_s = wall if args.workload == "cli_batch" else 0.0
        metrics = layer_metrics(tracer, len(latencies), wall, sum(replay), process_s)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.json.gz")
        return metrics, len(latencies), failures, {}

    wl, _, first = timed_setup(args.workload, args.seed, workdir)
    setups = [first]
    while len(setups) < SETUP_SAMPLES or (
            len(setups) < SETUP_MAX_SAMPLES and sum(setups) < SETUP_BUDGET_S):
        setups.append(setup_in_child(args))
    latencies, failures = run_ops(wl, seconds=args.seconds)
    n = len(latencies)
    details = {
        "samples": n,
        "samples_above_p90": samples_above(n, 90),
        "setup_samples_s": setups,
        "fail_ratio": (len(failures) / n, "ratio"),
    }
    return end_to_end_metrics(setups, latencies, wl.peak_rss_kb()), n, failures, details


def end_to_end_metrics(setups, latencies, peak_rss_kb) -> dict:
    ordered = sorted(latencies)
    return {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (len(ordered) / sum(ordered), "1/s"),
        "op_ms_p50": (percentile(ordered, 50) * 1e3, "ms"),
        "op_ms_p90": (percentile(ordered, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-sample", action="store_true",
                        help="only time one cold set-up and print it (used by the benchmark itself)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "jmrep" / "__init__.py").is_file():
        print(f"error: the jmrep sources are missing (expected {src / 'jmrep'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_sample:
            _, _, seconds = timed_setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        metrics, attempted, failures, details = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(args)
    causes = Counter(detail for _, detail in failures)
    correct = not any(kind == "wrong" for kind, _ in failures)
    record = {
        "meta": meta,
        "details": details,
        "failure_causes": dict(causes),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# jmrep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    if not args.trace:
        print(f"# {attempted} operations, closed loop, one client; "
              f"{details['samples_above_p90']} samples above p90; "
              f"set-ups: {', '.join(f'{s:.3f}' for s in details['setup_samples_s'])} s")
        shown = dict(metrics, fail_ratio=details["fail_ratio"])
    else:
        shown = metrics
    for name, (value, unit) in shown.items():
        print(f"#   {name:<26} {value:>14.6g} {unit}")
    for cause, n in causes.most_common():
        print(f"# failed x{n}: {cause}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
