"""tools/ab_inproc.py with its loader and clock stubbed, and its loader on two
tiny stand-in checkouts: no benchmark workload runs here."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_inproc.py"
_spec = importlib.util.spec_from_file_location("ab_inproc", _PATH)
ab_inproc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inproc)


class Fake:
    """A workload whose every operation logs its side and advances the clock by its cost."""

    def __init__(self, name, cost, log, now, fail=False):
        self.name, self.cost, self.log, self.now, self.fail = name, cost, log, now, fail

    def run(self, inp):
        self.log.append(self.name)
        self.now[0] += self.cost
        return ("wrong", "stub") if self.fail else None


def stub(monkeypatch, costs, fail=()):
    log, now = [], [0.0]

    def load(checkout, workload, workdir):
        assert workload == "represent" and workdir.is_dir()
        name = checkout.name
        return Fake(name, costs[name], log, now, name in fail), [None] * 3

    monkeypatch.setattr(ab_inproc, "load", load)
    monkeypatch.setattr(ab_inproc, "perf_counter", lambda: now[0])
    monkeypatch.setattr(ab_inproc, "ROUNDS", 4)
    return log


def test_the_sides_alternate_and_the_ratio_is_other_over_base(monkeypatch, capsys):
    log = stub(monkeypatch, {"base": 1.0, "fast": 0.8, "slow": 1.25})
    assert ab_inproc.main(["represent", "base", "fast", "slow"]) == 0
    blocks = log[::3]
    assert log == [name for name in blocks for _ in range(3)]  # one block runs all its operations
    assert blocks == ["base", "fast", "slow", "slow", "fast", "base"] * 2
    assert capsys.readouterr().out.splitlines() == [
        "represent fast over base: median 0.800 (IQR 0.800-0.800), faster in 4 of 4 rounds",
        "represent slow over base: median 1.250 (IQR 1.250-1.250), faster in 0 of 4 rounds",
    ]


def test_a_failed_operation_stops_the_tool(monkeypatch):
    stub(monkeypatch, {"base": 1.0, "other": 1.0}, fail={"other"})
    with pytest.raises(RuntimeError, match=r"3 operations failed, the first: \('wrong', 'stub'\)"):
        ab_inproc.main(["represent", "base", "other"])


def test_summary_reads_the_per_round_ratios():
    got = ab_inproc.summary([1, 2, 4, 1], [0.5, 2, 2, 2])  # ratios 0.5, 1, 0.5, 2
    assert got == {"median": 0.75, "q1": 0.5, "q3": 1.25, "faster": 2, "rounds": 4}


WORKLOADS_PY = '''import gen
import jmrep as jm


class Stand:
    def __init__(self, seed, workdir, tracer):
        self.seed = seed

    def make_input(self, i):
        return jm.SIDE, gen.SIDE, self.seed, i


WORKLOADS = {"represent": Stand}
'''


@pytest.fixture
def kept_modules():
    """Put back the jmrep and bench modules of this process after the test."""
    names = ab_inproc.BENCH_MODULES
    saved = {k: m for k, m in sys.modules.items()
             if k == "jmrep" or k.startswith("jmrep.") or k in names}
    yield
    for k in [k for k in sys.modules if k == "jmrep" or k.startswith("jmrep.") or k in names]:
        del sys.modules[k]
    sys.modules.update(saved)


def test_each_checkout_is_loaded_with_its_own_modules(tmp_path, kept_modules):
    path = list(sys.path)
    loaded = {}
    for side in ("a", "b"):
        (tmp_path / side / "src" / "jmrep").mkdir(parents=True)
        (tmp_path / side / "src" / "jmrep" / "__init__.py").write_text(f"SIDE = {side!r}\n")
        (tmp_path / side / "bench").mkdir()
        (tmp_path / side / "bench" / "gen.py").write_text(f"SIDE = {side!r}\n")
        (tmp_path / side / "bench" / "workloads.py").write_text(WORKLOADS_PY)
        loaded[side] = ab_inproc.load(tmp_path / side, "represent", tmp_path)
    for side, (_, inputs) in loaded.items():
        assert inputs == [(side, side, ab_inproc.SEED, i) for i in range(ab_inproc.OPS)]
    assert sys.path == path
    assert not {"jmrep", "gen", "workloads"} & set(sys.modules)
