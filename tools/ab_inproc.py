"""In-process A/B timing of one benchmark workload across checkouts.

Usage:
    python3 tools/ab_inproc.py WORKLOAD BASE OTHER...

WORKLOAD is represent, group_algebra or cli_batch; BASE and each OTHER are
checkouts (copies of the source tree).  Each checkout's src/jmrep and bench/
are loaded into this one process as separate module objects: the jmrep and
bench modules are cleared from sys.modules before and after each load, and
each side keeps its own through its workload object.  So neither package may
import one of its own modules lazily, after its load; today neither does.

Every side builds its workload at seed SEED and the inputs of OPS operations
beforehand.  Then ROUNDS rounds follow.  In each round every side runs its
OPS operations once, as one timed block, after a garbage collection; the
order of the sides is reversed from one round to the next.  An operation
that fails stops the tool, since its time would mean nothing.

For each OTHER it prints the median of the per-round ratios OTHER/BASE of
the block times, the inclusive quartiles, and the number of rounds in which
OTHER was faster.  A ratio below 1 means OTHER is faster.

Both sides share one allocator and one garbage collector, so garbage that
one side leaves is collected on the other's clock and memory effects do not
show; what the ratio reads is the time of the code itself.  Standard
library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
import tempfile
from pathlib import Path
from statistics import quantiles
from time import perf_counter

SEED = 77
OPS = 150
ROUNDS = 60
BENCH_MODULES = ("workloads", "gen", "spans")
WORKLOADS = ("represent", "group_algebra", "cli_batch")


def _forget() -> None:
    for name in list(sys.modules):
        if name == "jmrep" or name.startswith("jmrep.") or name in BENCH_MODULES:
            del sys.modules[name]


def load(checkout: Path, workload: str, workdir: Path) -> tuple:
    """(the workload of the checkout, built at SEED with its own modules, and the
    inputs of its first OPS operations)."""
    _forget()
    paths = [str(checkout / "bench"), str(checkout / "src")]
    sys.path[:0] = paths
    try:
        wl = importlib.import_module("workloads").WORKLOADS[workload](SEED, workdir, None)
    finally:
        del sys.path[:len(paths)]
        _forget()
    return wl, [wl.make_input(i) for i in range(OPS)]


def block_time(side: tuple) -> float:
    """The time of one run of the side's operations, after a garbage collection."""
    wl, inputs = side
    gc.collect()
    start = perf_counter()
    failures = [f for f in map(wl.run, inputs) if f]
    elapsed = perf_counter() - start
    if failures:
        raise RuntimeError(f"{len(failures)} operations failed, the first: {failures[0]}")
    return elapsed


def timed_rounds(sides: list) -> list:
    """Each side's block times over ROUNDS rounds: list order in even rounds,
    the reverse in odd ones."""
    times = [[] for _ in sides]
    for k in range(ROUNDS):
        order = range(len(sides)) if k % 2 == 0 else reversed(range(len(sides)))
        for s in order:
            times[s].append(block_time(sides[s]))
    return times


def summary(base: list, other: list) -> dict:
    """Median and inclusive quartiles of the per-round ratios other/base, and
    the rounds in which other was faster."""
    ratios = [o / b for b, o in zip(base, other)]
    q1, median, q3 = quantiles(ratios, n=4, method="inclusive")
    faster = sum(o < b for b, o in zip(base, other))
    return {"median": median, "q1": q1, "q3": q3, "faster": faster, "rounds": len(ratios)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("base", type=Path)
    parser.add_argument("others", nargs="+", type=Path)
    args = parser.parse_args(argv)
    checkouts = [args.base, *args.others]
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for n, checkout in enumerate(checkouts):
            workdir = Path(tmp) / str(n)
            workdir.mkdir()
            sides.append(load(checkout.resolve(), args.workload, workdir))
        times = timed_rounds(sides)
    for checkout, other in zip(args.others, times[1:]):
        s = summary(times[0], other)
        print(f"{args.workload} {checkout} over {args.base}: median {s['median']:.3f} "
              f"(IQR {s['q1']:.3f}-{s['q3']:.3f}), faster in {s['faster']} of {s['rounds']} "
              f"rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
