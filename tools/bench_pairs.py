"""Alternating parent/change pairs of the jmrep benchmark, summarised as JSON.

Usage:
    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
        [--workloads represent,group_algebra,cli_batch] [--pairs 10]
        [--first-seed 1] [--trace-seed N] [--note TEXT]

DIR is a checkout (a copy of the source tree) of each commit.  The workloads
default to those of the change's BENCHMARK.json, and T is its run_seconds.
For workload number w in --workloads (counting from 0), pair k runs
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` with
S = first_seed + 1000 * w + k in both checkouts, the parent first when k is
even and the change first when k is odd (order(k)).

Bytecode is pinned per side: before the first run, each checkout's src/ and
bench/ are compiled once with compileall, beside their sources, and every run
is made with PYTHONDONTWRITEBYTECODE=1 and without PYTHONPYCACHEPREFIX.  So a
run, and each CLI child it starts, reads its own side's bytecode and compiles
nothing: start-up is timed, the compiler is not, and shorter source reads as
no gain.  A cache prefix is not used because it also redirects the lookup of
the standard library's bytecode, so every child would compile the standard
library from source.

The output records each side's size: src_lines counts the lines of the
package's .py files, package_data_lines those of its other files (bytecode
aside).  It also records each side's tier1_s, the best wall time of 3 runs of
the Tier-1 command of ROADMAP.md (`python3 -m pytest -q
--continue-on-collection-errors` with src/ on PYTHONPATH), made in the
checkout with the same environment as the benchmark runs, before the first
pair.  The sides alternate as in the pairs (parent, change, change, parent,
parent, change), so drift of the host does not fall on one side.  A side
whose Tier-1 run fails stops the tool: its time would mean nothing.

Each workload records the operations every run attempted, per side and in
pair order (attempted_runs), next to their sums.  A side that completes more
operations in the same T reads a higher peak_rss_mb, since ru_maxrss only
rises as a run goes on; compare that metric with the counts in view.

For every end-to-end metric of the change's BENCHMARK.json the output holds
each side's runs, median and quartiles (statistics.quantiles, inclusive),
the relative change of the medians, how many pairs the change won (ties count
for neither side) and a verdict:

- "gain": the change is better in at least 9 of every 10 pairs and the medians
  differ by more than the parent's interquartile range;
- "worse than bound": the change's median is worse than the parent's by more
  than the metric's bound;
- "unresolved": the parent's interquartile range exceeds the bound (relative to
  its median), so a move of that size cannot be told from drift, unless every
  run of the change is better than every run of the parent;
- "within bound" otherwise.

With --trace-seed, each workload also gets one traced pair
(`--seconds 0 --trace 1` at that seed, the same operations on both sides),
recorded with every per-layer metric.  Its counts repeat exactly; its times
are one run per side and drift with the host.  The JSON file is rewritten after every
pair, so an interrupted run leaves what it measured.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import quantiles

RUN_TIMEOUT_S = 900
TIER1_ARGS = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_RUNS = 3


def pin_bytecode(checkout: Path) -> None:
    """Compile the checkout's src/ and bench/ once, replacing any bytecode there."""
    for sub in ("src", "bench"):
        if not compileall.compile_dir(checkout / sub, quiet=1, force=True):
            raise RuntimeError(f"{checkout / sub}: compileall failed")


def run_env() -> dict:
    """The environment of every run: read the pinned bytecode, write none."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the JSON object on the last line of its stdout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    res = subprocess.run(argv, cwd=checkout, env=run_env(), capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {res.returncode}:\n"
                           f"{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def order(k: int) -> tuple:
    """The sides in the order in which pair (or Tier-1 round) k runs them."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def tier1_run(checkout: Path) -> float:
    """The wall time, in seconds, of one run of the Tier-1 command."""
    env = run_env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    start = time.perf_counter()
    res = subprocess.run([sys.executable, *TIER1_ARGS], cwd=checkout, env=env,
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if res.returncode != 0:
        raise RuntimeError(f"{checkout}: Tier-1 exited {res.returncode}:\n"
                           f"{res.stdout[-2000:]}")
    return wall


def tier1_s(checkouts: dict) -> dict:
    """Each side's best wall time of TIER1_RUNS runs of the Tier-1 command, the
    sides alternating round by round as in the pairs."""
    times = {side: [] for side in checkouts}
    for k in range(TIER1_RUNS):
        for side in order(k):
            times[side].append(tier1_run(checkouts[side]))
    return {side: min(walls) for side, walls in times.items()}


def _lines(paths) -> int:
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def src_lines(checkout: Path) -> int:
    return _lines(sorted((checkout / "src" / "jmrep").rglob("*.py")))


def package_data_lines(checkout: Path) -> int:
    """Lines of the package's non-Python files: the data it ships besides code."""
    pkg = checkout / "src" / "jmrep"
    return _lines(p for p in sorted(pkg.rglob("*")) if p.is_file() and p.suffix != ".py"
                  and "__pycache__" not in p.relative_to(pkg).parts)


def quartiles(values) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(parent_runs, change_runs, better: str, bound: float) -> dict:
    """The per-metric record: both sides' quartiles and runs, wins and verdict."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    p, c = quartiles(parent_runs), quartiles(change_runs)
    rel = (c["median"] - p["median"]) / p["median"]
    parent_iqr = p["q3"] - p["q1"]
    spread = parent_iqr / p["median"]
    if wins * 10 >= 9 * len(parent_runs) and sign * (c["median"] - p["median"]) > parent_iqr:
        verdict = "gain"
    elif -sign * rel > bound:
        verdict = "worse than bound"
    elif spread > bound and not (
            min(sign * x for x in change_runs) > max(sign * x for x in parent_runs)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": {k: round(v, 4) for k, v in p.items()},
        "change": {k: round(v, 4) for k, v in c.items()},
        "runs": {"parent": [round(x, 4) for x in parent_runs],
                 "change": [round(x, 4) for x in change_runs]},
        "change_vs_parent": round(rel, 4),
        "change_wins": wins,
        "parent_spread": round(spread, 4),
        "verdict": verdict,
    }


def workload_record(runs, metrics_spec) -> dict:
    """Summarise the pairs run so far; runs is a list of (seed, parent, change)."""
    record = {
        "pairs": len(runs),
        "seeds": [seed for seed, _, _ in runs],
        "failed": {side: sum(r[i]["failed"] for r in runs)
                   for i, side in ((1, "parent"), (2, "change"))},
        "attempted": {side: sum(r[i]["attempted"] for r in runs)
                      for i, side in ((1, "parent"), (2, "change"))},
        "attempted_runs": {side: [r[i]["attempted"] for r in runs]
                           for i, side in ((1, "parent"), (2, "change"))},
        "metrics": {},
    }
    if len(runs) < 2:
        return record
    for m in metrics_spec:
        name = m["name"]
        parent = [r[1]["metrics"][name]["value"] for r in runs]
        change = [r[2]["metrics"][name]["value"] for r in runs]
        record["metrics"][name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                   **compare(parent, change, m["better"], m["bound"])}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no bench/run.py")
    for path in checkouts.values():
        pin_bytecode(path)
    with open(checkouts["change"] / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    metrics_spec, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])

    out = {
        "change": args.note,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": "alternating parent/change pairs (parent first on even pairs), each side a "
                  "copy of its source tree; bytecode: pinned (src/ and bench/ compiled once per "
                  "side with compileall, every run with PYTHONDONTWRITEBYTECODE=1 and no "
                  "PYTHONPYCACHEPREFIX); quartiles by statistics.quantiles("
                  "method='inclusive'); change_wins counts pairs where the change is better; "
                  "parent_spread is the parent's interquartile range over its median",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
        "package_data_lines": {side: package_data_lines(path)
                               for side, path in checkouts.items()},
        "tier1_s": {side: round(wall, 3) for side, wall in tier1_s(checkouts).items()},
        "workloads": {},
    }

    def save():
        tmp = args.out.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, args.out)

    for w, workload in enumerate(workloads):
        runs = []
        for k in range(args.pairs):
            seed = args.first_seed + 1000 * w + k
            got = {}
            for side in order(k):
                got[side] = run_bench(checkouts[side], workload, seed, seconds, 0)
                ops = got[side]["metrics"]["ops_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: ops_per_s {ops:.2f}, "
                      f"attempted {got[side]['attempted']}, failed {got[side]['failed']}",
                      file=sys.stderr, flush=True)
            runs.append((seed, got["parent"], got["change"]))
            out["workloads"][workload] = workload_record(runs, metrics_spec)
            save()

    if args.trace_seed is not None:
        traced = {"command": f"python3 bench/run.py --workload W --seed {args.trace_seed} "
                             f"--seconds 0 --trace 1"}
        out["traced_pair"] = traced
        for workload in workloads:
            traced[workload] = {
                side: {name: round(m["value"], 7) for name, m in run_bench(
                    path, workload, args.trace_seed, 0, 1)["metrics"].items()}
                for side, path in checkouts.items()
            }
            save()

    for workload, record in out["workloads"].items():
        for name, m in record["metrics"].items():
            print(f"{workload:<14} {name:<12} {m['parent']['median']:>10.4g} -> "
                  f"{m['change']['median']:<10.4g} {m['change_vs_parent']:+.1%} "
                  f"wins {m['change_wins']}/{record['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
