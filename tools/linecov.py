"""Lines of src/jmrep that the Tier-1 suite never runs.

Usage:
    python3 tools/linecov.py

Runs the Tier-1 command of ROADMAP.md (`python -m pytest -q
--continue-on-collection-errors`, with src/ on PYTHONPATH) in this process
under a sys.settrace collector, then prints each line of src/jmrep that
carries bytecode and never ran, as `file:line`, and their total.  It takes no
arguments, so each count is one of the whole Tier-1 suite.  The exit code is
pytest's.

A line is executable when one of the module's code objects maps an
instruction to it (code.co_lines), and it ran when a line event fired on it.
So comments, blank lines, function docstrings and a bracket alone on its line
do not count.  __main__.py is left out: Tier-1 reaches it only in child
processes (`python -m jmrep`), and the collector sees this process alone.

The standard library's trace module would need no collector, but its ignore
list caches a verdict per file base name.  Run with the interpreter's
directories ignored, it silently drops src/jmrep/__init__.py, because some
ignored __init__.py ran first, and it would drop any module of src/jmrep whose
base name an ignored module that ran first shares.

Cost: about 35 s against 10 s for plain Tier-1 on a 2-vCPU host with Python
3.11.  Standard library only, apart from pytest to run the suite.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jmrep"
TIER1_ARGS = ("-q", "--continue-on-collection-errors")


def executable_lines(path: Path) -> set:
    """The lines of the module that carry bytecode, in any of its code objects."""
    todo, out = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return out


def collect(run, files) -> tuple:
    """(run(), the (real path, line) pairs of the line events in files while it ran)."""
    wanted = {os.path.realpath(f) for f in files}
    seen = {}  # co_filename -> its real path, or None outside files
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((seen[frame.f_code.co_filename], frame.f_lineno))
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            real = os.path.realpath(name)
            seen[name] = real if real in wanted else None
        return local if seen[name] else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hits


def never_run(files, hits) -> list:
    """The (path, line) of each executable line of files with no line event in hits."""
    return [(path, line) for path in files
            for line in sorted(executable_lines(Path(path)))
            if (os.path.realpath(path), line) not in hits]


def main() -> int:
    import pytest

    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    os.chdir(ROOT)
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__main__.py")
    code, hits = collect(lambda: pytest.main(list(TIER1_ARGS)), files)
    missed = never_run(files, hits)
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(missed)} never-run lines in src/jmrep (__main__.py aside)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
