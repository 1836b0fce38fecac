"""The verdicts of tools/bench_pairs.py on hand-made pairs of runs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("parent, change, better, verdict", [
    # 10 of 10 wins and a median gap beyond the parent's IQR
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [120] * 10, "higher", "gain"),
    ([1.0, 1.1, 0.9, 1.0], [0.5, 0.55, 0.45, 0.5], "lower", "gain"),
    # 8 of 10 wins is short of nine tenths
    ([100] * 10, [120] * 8 + [90] * 2, "higher", "within bound"),
    ([100, 101, 99, 100], [70, 71, 69, 70], "higher", "worse than bound"),
    ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "lower", "worse than bound"),
    # the parent's IQR exceeds the 0.25 bound
    ([50, 100, 150, 100, 60, 140], [90, 95, 110, 105, 100, 95], "higher", "unresolved"),
    # ... unless every change run is better than every parent run
    ([1, 10, 1, 10], [11, 11, 11, 11], "higher", "within bound"),
])
def test_verdicts(parent, change, better, verdict):
    got = bench_pairs.compare(parent, change, better, 0.25)
    assert got["verdict"] == verdict
    assert got["runs"] == {"parent": parent, "change": change}


def test_wins_quartiles_and_spread():
    got = bench_pairs.compare([4, 2, 3, 1, 5], [1, 1, 9, 0, 1], "lower", 0.25)
    assert got["change_wins"] == 4
    assert got["parent"] == {"median": 3, "q1": 2, "q3": 4}
    assert got["parent_spread"] == pytest.approx(2 / 3, abs=1e-4)
    assert got["change_vs_parent"] == pytest.approx(-2 / 3, abs=1e-4)


def test_workload_record_sums_the_runs():
    def run(value, failed, attempted=200):
        return {"failed": failed, "attempted": attempted,
                "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}

    spec = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    runs = [(7, run(100, 0), run(130, 1)), (8, run(110, 2), run(140, 0))]
    record = bench_pairs.workload_record(runs, spec)
    assert record["seeds"] == [7, 8] and record["pairs"] == 2
    assert record["failed"] == {"parent": 2, "change": 1}
    assert record["attempted"] == {"parent": 400, "change": 400}
    assert record["metrics"]["ops_per_s"]["change_wins"] == 2


def test_workload_record_keeps_each_runs_attempted_count():
    def run(attempted):
        return {"failed": 0, "attempted": attempted,
                "metrics": {"peak_rss_mb": {"value": 20.0, "unit": "MB"}}}

    spec = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]
    runs = [(1, run(2955), run(4125)), (2, run(3010), run(4190)), (3, run(2890), run(4001))]
    record = bench_pairs.workload_record(runs, spec)
    assert record["attempted_runs"] == {"parent": [2955, 3010, 2890],
                                        "change": [4125, 4190, 4001]}
    assert record["attempted"] == {"parent": 8855, "change": 12316}
    # one run is recorded as soon as its pair completes
    assert bench_pairs.workload_record(runs[:1], spec)["attempted_runs"] == {
        "parent": [2955], "change": [4125]}


def test_line_counts_split_code_from_package_data(tmp_path):
    pkg = tmp_path / "src" / "jmrep"
    (pkg / "data" / "genus2").mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (pkg / "__init__.py").write_text("a = 1\nb = 2\n")
    (pkg / "data" / "genus2" / "entry.json").write_text("{\n}\n")
    (pkg / "data" / "table.txt").write_text("x\n")
    bench_pairs.pin_bytecode(tmp_path)  # run first in main: its bytecode is not data
    assert any(pkg.rglob("__pycache__/*.pyc"))
    assert bench_pairs.src_lines(tmp_path) == 2
    assert bench_pairs.package_data_lines(tmp_path) == 3
    (pkg / "data" / "genus2" / "entry.json").unlink()
    assert bench_pairs.package_data_lines(tmp_path) == 1


_PROBE = """\
import json, sys
sys.path.insert(0, "src")
import jmrep
print(json.dumps({"side": jmrep.SIDE, "cached": jmrep.__spec__.cached,
                  "dont_write": sys.flags.dont_write_bytecode, "prefix": sys.pycache_prefix}))
"""


def test_each_side_runs_on_its_own_pinned_bytecode(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "elsewhere"))
    for side in ("parent", "change"):
        checkout = tmp_path / side
        (checkout / "src" / "jmrep").mkdir(parents=True)
        (checkout / "src" / "jmrep" / "__init__.py").write_text(f"SIDE = {side!r}\n")
        (checkout / "bench").mkdir()
        (checkout / "bench" / "run.py").write_text(_PROBE)
        (checkout / "bench" / "helper.py").write_text("")
        bench_pairs.pin_bytecode(checkout)
        pycs = {p.name for p in checkout.rglob("__pycache__/*.pyc")}
        assert {name.split(".")[0] for name in pycs} == {"__init__", "run", "helper"}

        env = bench_pairs.run_env()
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in env
        got = bench_pairs.run_bench(checkout, "represent", 1, 0, 0)
        assert got["side"] == side
        assert got["dont_write"] == 1 and got["prefix"] is None
        # the package is read from the bytecode pinned beside its source
        cached = Path(got["cached"])
        assert cached.parent == checkout / "src" / "jmrep" / "__pycache__" and cached.is_file()
    assert not (tmp_path / "elsewhere").exists()


class _Ran:
    def __init__(self, returncode):
        self.returncode, self.stdout, self.stderr = returncode, "1 failed\n", ""


def _stub_tier1(monkeypatch, walls, returncode=0):
    """Stand-ins for subprocess.run and the clock: each run takes the next wall
    time of `walls` and exits `returncode`; returns the list of recorded calls."""
    calls, clock = [], iter(x for wall in walls for x in (0.0, wall))

    def fake_run(argv, **kwargs):
        calls.append((argv, kwargs))
        return _Ran(returncode)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs.time, "perf_counter", lambda: next(clock))
    return calls


def test_tier1_s_is_the_best_of_three_runs_of_the_tier1_command(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    # the sides alternate: parent, change, change, parent, parent, change
    calls = _stub_tier1(monkeypatch, [12.5, 9.5, 9.0, 11.0, 14.0, 10.0])
    assert bench_pairs.tier1_s(checkouts) == {"parent": 11.0, "change": 9.0}
    assert [kwargs["cwd"].name for _, kwargs in calls] == [
        "parent", "change", "change", "parent", "parent", "change"]
    for argv, kwargs in calls:
        assert argv[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
        env = kwargs["env"]
        assert env["PYTHONPATH"].split(os.pathsep) == ["src", "elsewhere"]
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"


def test_a_failing_tier1_run_stops_the_tool(tmp_path, monkeypatch):
    calls = _stub_tier1(monkeypatch, [1.0], returncode=1)
    with pytest.raises(RuntimeError, match="Tier-1 exited 1"):
        bench_pairs.tier1_s({"parent": tmp_path, "change": tmp_path})
    assert len(calls) == 1


def test_main_records_tier1_s_for_each_side(tmp_path, monkeypatch):
    walls = {"parent": 9.0, "change": 7.5}
    for side in walls:
        (tmp_path / side / "src" / "jmrep").mkdir(parents=True)
        (tmp_path / side / "bench").mkdir()
        (tmp_path / side / "bench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "represent"}],
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
                        "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "tier1_s",
                        lambda checkouts: {side: walls[p.name] for side, p in checkouts.items()})
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: {
        "failed": 0, "attempted": 10, "metrics": {"ops_per_s": {"value": 5.0}}})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--out", str(out), "--pairs", "2"]) == 0
    assert json.loads(out.read_text())["tier1_s"] == walls
