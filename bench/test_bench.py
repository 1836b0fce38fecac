"""Self-tests of the benchmark's own arithmetic and checks.

Run with:  python3 -m pytest bench -q
"""

import dataclasses
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import jmrep as jm  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def test_min_ops_leaves_ten_samples_above_p90():
    assert run.samples_above(run.MIN_OPS, 90) >= 10
    assert run.samples_above(100, 90) == 10
    assert run.samples_above(99, 90) == 9
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.percentile([7.0], 90) == 7.0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end_metrics([1.0, 2.0, 3.0], [0.01] * run.MIN_OPS, 20480)
    per_layer = layer_metrics(Tracer(), n_ops=1, wall_s=1.0, untraced_s=1.0)
    for declared, reported in ((spec["end_to_end"], end_to_end), (spec["per_layer"], per_layer)):
        assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in reported.items()}
    assert end_to_end["setup_s"][0] == 2.0
    assert end_to_end["peak_rss_mb"][0] == 20.0


def test_self_times_subtract_children_and_add_up_to_the_wall_time():
    tr = Tracer()
    tr.current_op = 0
    root = tr.record("rho2.tau2_from_endo", "rho2", 0.0, 10.0)
    tr.record("phi2.phi2_eval_word", "phi2", 1.0, 4.0, parent=root)
    b = tr.record("wedge.wedge3_decode", "wedge", 5.0, 9.0, parent=root)
    tr.record("wedge.wedge3_embed", "wedge", 6.0, 7.0, parent=b)
    tr.record("linalg.symplectic_check", "linalg", 10.5, 11.5)
    assert tr.self_times() == [3.0, 3.0, 3.0, 1.0, 1.0]
    m = layer_metrics(tr, n_ops=1, wall_s=12.0, untraced_s=6.0)
    assert m["rho2.self_s"][0] == 3.0
    assert m["phi2.self_s"][0] == 3.0
    assert m["wedge.self_s"][0] == 4.0
    assert m["wedge.decode_s"][0] == 4.0  # inclusive of the nested embed
    assert m["bench.self_s"][0] == 1.0  # 12 s of wall minus 11 s of top-level spans
    layers = sum(m[f"{layer}.self_s"][0] for layer in ("linalg", "wedge", "phi2", "rho2"))
    assert layers + m["bench.self_s"][0] == 12.0
    assert m["trace.overhead_ratio"][0] == 2.0


def test_absorbed_child_spans_keep_their_tree():
    child = Tracer()
    child.current_op = 3
    top = child.record("cli.main", "cli", 0.0, 2.0)
    child.record("jsonio.decode_rho2", "jsonio", 0.5, 1.0, parent=top)
    parent = Tracer()
    parent.record("linalg.make_J", "linalg", 0.0, 1.0)
    parent.absorb(json.loads(json.dumps({
        "names": child.names, "layers": child.layers, "raised": child.raised,
        "counters": dict(child.counters),
        "spans": [list(t) for t in zip(child.nid, child.parent, child.op, child.start, child.end)],
    })))
    assert list(parent.parent) == [-1, -1, 1]
    assert parent.self_times() == [1.0, 1.5, 0.5]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_generated_twists_validate(g):
    entries = gen.twist_entries(g)
    assert len(entries) == 2 * g
    for entry in entries:
        report = jm.validate_entry(entry)
        assert report.passed, (entry.name, report.failures)


def test_malformed_matrices_are_not_symplectic():
    rng = random.Random(5)
    doc = jm.encode_matrix(jm.SymplecticMatrix.identity(3))
    for _ in range(20):
        bad = json.loads(gen.malformed(rng, "not_symplectic", doc, 3))
        assert not gen._symplectic(bad["rows"])


@pytest.fixture
def workdir():
    path = run.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_a_cli_reference_mismatch_counts_as_a_failure(workdir):
    path = workdir / "genus.json"
    path.write_text('{"genus": 3}')
    good = workloads._call("catalog-list", [{"genus": 3}], {"genus": 3, "entries": [
        {"name": c.name, "claimed_handlebody": c.claimed_handlebody} for c in jm.catalog(3)]})
    bad = dataclasses.replace(good, stdout=good.stdout.replace("twist_a_1", "twist_a_9"))
    assert bad.stdout != good.stdout

    class Stub:
        def make_input(self, i):
            return (good, bad)[i]

        def run(self, call):
            argv = [sys.executable, "-m", "jmrep", call.verb, str(path)]
            env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
            res = workloads.run_child(argv, ROOT, env, workdir / "err.txt")
            return workloads.judge(call, res)

    latencies, failures = run.run_ops(Stub(), count=2)
    assert len(latencies) == 2
    assert [kind for kind, _ in failures] == ["wrong"]
    assert "differs from the in-process reference" in failures[0].detail
