"""The benchmark's workloads.

A workload's constructor is its set-up: it imports jmrep (through gen),
loads and validates what it needs, and makes one untimed warm-up call of
each operation kind at each genus.  make_input(i) builds the inputs of
operation i from the seed alone, outside the timed region; run(inp) is the
timed operation.  It calls jmrep's public functions, checks every result,
and returns None on success or a Failure.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import gen
import jmrep as jm

BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60


class Failure(NamedTuple):
    """A failed operation.  kind "wrong" is a wrong answer; "error" is a
    crash, a refused valid input, or mishandled malformed input."""

    kind: str
    detail: str


def _wrong(detail):
    return Failure("wrong", detail)


def _validated(entries):
    for entry in entries:
        report = jm.validate_entry(entry)
        if not report.passed:
            raise RuntimeError(f"set-up: entry {entry.name} fails validation: {report.failures}")
    return entries


class Represent:
    """Random products of boundary-fixing automorphisms through tau2_from_endo, at g = 3 and 4."""

    genera = (3, 4)

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.pools = {}
        for g in self.genera:
            entries = _validated(jm.catalog(g) + gen.twist_entries(g))
            specs = [e.spec for e in entries] + [e.inverse_spec for e in entries]
            handlebody = [e.spec for e in entries if e.claimed_handlebody]
            handlebody += [e.inverse_spec for e in entries if e.claimed_handlebody]
            taus = [jm.tau2_from_endo(s) for s in specs]
            self.pools[g] = (specs, handlebody, taus)
        failure = self.run(self.make_input(-1))
        if failure:
            raise RuntimeError(f"set-up: warm-up failed: {failure}")

    def make_input(self, i):
        rng = random.Random(f"represent:{self.seed}:{i}")
        out = {}
        for g in self.genera:
            specs, handlebody, _ = self.pools[g]
            out[g] = (
                gen.random_product(rng, specs),
                gen.random_product(rng, handlebody),
                gen.random_word(rng, g),
            )
        return out

    def run(self, inp):
        for g, (order, hb_order, word) in inp.items():
            specs, handlebody, taus = self.pools[g]
            e = gen.compose(specs, order)
            f = jm.tau2_from_endo(e)
            if not jm.mcg_membership(f):
                return _wrong(f"g={g}: tau2 of a product fails mcg_membership")
            prod = taus[order[0]]
            for k in order[1:]:
                prod = jm.rho2_mul(taus[k], prod)
            if prod != f:
                return _wrong(f"g={g}: tau2 of a composite differs from the rho2_mul product")
            if jm.act_on_phi2(f, jm.phi2_eval_word(word)) != jm.phi2_eval_word(jm.endo_apply(e, word)):
                return _wrong(f"g={g}: act_on_phi2 disagrees with endo_apply")
            if not jm.handlebody_membership(jm.tau2_from_endo(gen.compose(handlebody, hb_order))):
                return _wrong(f"g={g}: a product of handlebody twists fails handlebody_membership")
        return None

    def peak_rss_kb(self):
        return _self_rss_kb()


@dataclass
class _AlgebraInput:
    g: int
    R1: object
    shift1: object
    odd: object
    R2: object
    shift2: object
    Rh: object
    hb_shift: object
    hb_member: bool
    x: object


class GroupAlgebra:
    """Group law, lifts and membership tests on random symplectic R at g = 3, 4, 5."""

    genera = (3, 4, 5)

    def __init__(self, seed, workdir, tracer=None):
        self.seed = seed
        self.identity = {g: jm.Rho2Element.identity(g) for g in self.genera}
        for i in range(-len(self.genera), 0):
            failure = self.run(self.make_input(i))
            if failure:
                raise RuntimeError(f"set-up: warm-up failed: {failure}")

    def make_input(self, i):
        g = self.genera[i % len(self.genera)]
        rng = random.Random(f"group_algebra:{self.seed}:{i}")
        triples = list(itertools.combinations(range(1, 2 * g + 1), 3))
        hb_member = (i // len(self.genera)) % 2 == 0
        hb_shift = gen.integral_wedge3(rng, g, keep=lambda t: t[2] > g)
        if not hb_member:
            # An integral a^a^a term keeps the mapping-class parity but breaks
            # condition 3; the two handlebody tests agree only on such members.
            a_triple = rng.choice([t for t in triples if t[2] <= g])
            hb_shift = hb_shift + jm.Wedge3(g, {a_triple: 2 * rng.choice((-1, 1))})
        return _AlgebraInput(
            g=g,
            R1=gen.transvection_product(rng, g),
            shift1=gen.integral_wedge3(rng, g),
            odd=jm.Wedge3(g, {rng.choice(triples): 1}),
            R2=gen.transvection_product(rng, g),
            shift2=gen.integral_wedge3(rng, g),
            Rh=gen.handlebody_matrix(rng, g),
            hb_shift=hb_shift,
            hb_member=hb_member,
            x=gen.pi_point(rng, g),
        )

    def run(self, d):
        g = d.g
        lift = jm.canonical_lift(d.R1)
        if any(t != 1 for _, t in lift.r.terms()):
            return _wrong(f"g={g}: canonical_lift has a doubled coefficient outside {{0, 1}}")
        f = jm.Rho2Element(lift.r + d.shift1, d.R1)
        if not jm.mcg_membership(f):
            return _wrong(f"g={g}: a member fails mcg_membership")
        if jm.mcg_membership(jm.Rho2Element(f.r + d.odd, d.R1)):
            return _wrong(f"g={g}: a non-member passes mcg_membership")
        f2 = gen.member(d.R2, d.shift2)
        if jm.act_on_phi2(jm.rho2_mul(f, f2), d.x) != jm.act_on_phi2(f, jm.act_on_phi2(f2, d.x)):
            return _wrong(f"g={g}: act_on_phi2 is not a left action of rho2_mul")
        if jm.rho2_mul(f, jm.rho2_inv(f)) != self.identity[g]:
            return _wrong(f"g={g}: rho2_mul(f, rho2_inv(f)) is not the identity")
        h = gen.member(d.Rh, d.hb_shift)
        verdict = jm.handlebody_membership(h)
        if verdict != d.hb_member or jm.preserves_phi2_b(h) != verdict:
            return _wrong(f"g={g}: handlebody_membership / preserves_phi2_b disagree "
                          f"(expected {d.hb_member})")
        if jm.phi2_eval_word(jm.phi2_word_synthesis(d.x)) != d.x:
            return _wrong(f"g={g}: the synthesized word does not evaluate to its point")
        if not jm.phi2_pi_membership(jm.act_on_phi2(f, d.x)):
            return _wrong(f"g={g}: a member moves a point out of phi_2(pi)")
        return None

    def peak_rss_kb(self):
        return _self_rss_kb()


def _self_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------- cli_batch


@dataclass(frozen=True)
class CliCall:
    verb: str
    texts: tuple  # document texts, one file each
    code: int  # expected exit code
    stdout: str  # expected stdout ("" when the call must exit 2)
    kind: str  # "valid", "non_member" or a malformed-input kind


def _call(verb, docs, out_doc, code=0, kind="valid"):
    texts = tuple(json.dumps(d) for d in docs)
    return CliCall(verb, texts, code, jm.canonical_dumps(out_doc) + "\n", kind)


def _check_mcg(f, kind="valid"):
    E = jm.compute_E(f.R)
    odd = sorted(t for t, e in E.items() if (f.r.twice(*t) - e) % 2)
    return _call("check-mcg", [jm.encode_rho2(f)],
                 {"member": not odd, "E_odd_triples": [list(t) for t in odd]},
                 1 if odd else 0, kind)


def _check_handlebody(f, kind="valid"):
    failed = jm.handlebody_failures(f)
    return _call("check-handlebody", [jm.encode_rho2(f)],
                 {"member": not failed, "failed": list(failed)}, 1 if failed else 0, kind)


def _membership(verb, p, test, kind="valid"):
    member = test(p)
    return _call(verb, [jm.encode_phi2(p)], {"member": member}, 0 if member else 1, kind)


def _rho2(e, kind="valid"):
    try:
        out = jm.encode_rho2(jm.tau2_from_endo(e))
    except (jm.NotSymplectic, jm.NotInWedge3):
        return CliCall("rho2", (json.dumps(jm.encode_endo(e)),), 2, "", kind)
    return _call("rho2", [jm.encode_endo(e)], out)


def _validate(entry, kind="valid"):
    report = jm.validate_entry(entry)
    return _call("validate-entry", [jm.entry_to_dict(entry)],
                 {"name": entry.name, "passed": report.passed, "failures": list(report.failures)},
                 0 if report.passed else 1, kind)


def cli_calls(rng, g, entries, specs, sets=2):
    """Valid calls of all 14 verbs, non-members and non-mapping-classes, with in-process references."""
    calls = []
    for _ in range(sets):
        R = gen.transvection_product(rng, g)
        f = gen.member(R, gen.integral_wedge3(rng, g))
        f2 = gen.member(gen.transvection_product(rng, g), gen.integral_wedge3(rng, g))
        Rh = gen.handlebody_matrix(rng, g)
        h = gen.member(Rh, gen.integral_wedge3(rng, g, keep=lambda t: t[2] > g))
        e = gen.compose(specs, gen.random_product(rng, specs))
        word = gen.random_word(rng, g)
        x, x2, xb = gen.pi_point(rng, g), gen.pi_point(rng, g), gen.b_point(rng, g)
        entry = rng.choice(entries)
        broken = jm.CatalogEntry(entry.name + "_self_inverse", entry.spec, entry.spec,
                                 entry.claimed_handlebody)
        E = jm.compute_E(R)
        calls += [
            _check_mcg(f),
            _check_handlebody(h),
            _call("lift", [jm.encode_matrix(R)], jm.encode_rho2(jm.canonical_lift(R))),
            _rho2(e),
            _call("act", [jm.encode_rho2(f), jm.encode_phi2(x)],
                  jm.encode_phi2(jm.act_on_phi2(f, x))),
            _call("eval-word", [jm.encode_word(word)], jm.encode_phi2(jm.phi2_eval_word(word))),
            _membership("phi2-member", x, jm.phi2_pi_membership),
            _membership("b-member", xb, jm.phi2_b_membership),
            _call("mul", [jm.encode_rho2(f), jm.encode_rho2(f2)],
                  jm.encode_rho2(jm.rho2_mul(f, f2))),
            _call("mul", [jm.encode_phi2(x), jm.encode_phi2(x2)],
                  jm.encode_phi2(jm.phi2_mul(x, x2))),
            _call("inv", [jm.encode_rho2(f)], jm.encode_rho2(jm.rho2_inv(f))),
            _call("inv", [jm.encode_phi2(x)], jm.encode_phi2(jm.phi2_inv(x))),
            _call("compute-E", [jm.encode_matrix(R)], {"genus": g, "E": [
                {"idx": list(t), "value": v} for t, v in sorted(E.items()) if v]}),
            _validate(entry),
            _call("basis", [{"genus": g}], {"genus": g, "basis": [
                jm.encode_rho2(b) for b in jm.torelli_handlebody_basis(g)]}),
            _call("catalog-list", [{"genus": g}], {"genus": g, "entries": [
                {"name": c.name, "claimed_handlebody": c.claimed_handlebody}
                for c in jm.catalog(g)]}),
            _check_mcg(gen.non_member(rng, f), "non_member"),
            _check_handlebody(jm.Rho2Element(h.r + jm.Wedge3(g, {(1, 2, 3): 2}), Rh), "non_member"),
            _membership("phi2-member", gen.non_pi_point(rng, g), jm.phi2_pi_membership, "non_member"),
            _membership("b-member", gen.non_b_point(rng, g), jm.phi2_b_membership, "non_member"),
            _validate(broken, "non_member"),
            _rho2(gen.commutator_insertion(rng, g), "not_a_mapping_class"),
        ]
    return calls


def malformed_calls(rng, base_calls, g):
    """One malformed variant per malformation kind and verb, drawn from the seed.

    Each must exit 2.  Kinds that cannot apply to a verb's documents (no
    matrix to break, no letter to push out of range) are skipped for it.
    """
    out = []
    verbs = sorted({c.verb for c in base_calls})
    for kind in gen.MALFORMED_KINDS:
        for verb in verbs:
            candidates = [
                (c, j) for c in base_calls if c.verb == verb
                for j, text in enumerate(c.texts) if gen.malformed_targets(kind, json.loads(text))
            ]
            if not candidates:
                continue
            call, j = rng.choice(candidates)
            texts = list(call.texts)
            texts[j] = gen.malformed(rng, kind, json.loads(texts[j]), g)
            out.append(CliCall(call.verb, tuple(texts), 2, "", kind))
    return out


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


def run_child(argv, cwd, env, err_path, timeout=CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion and return its exit code, output and peak RSS.

    The child is reaped with wait4 so that its own resource usage is known.
    It is killed if it outlives the timeout; waitid(WNOWAIT) keeps a zombie
    in place until the timer can no longer fire, so kill never meets a
    recycled pid.
    """
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        lock = threading.Lock()
        state = {"done": False}

        def kill():
            with lock:
                if not state["done"]:
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["done"] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(proc.returncode, out, err.read(), usage.ru_maxrss)


def judge(call: CliCall, res: ChildResult):
    """None if the child did what the call expects, else a Failure."""
    if call.code == 2:
        if res.code == 2 and not res.stdout and b"Traceback" not in res.stderr:
            return None
        how = "traceback" if b"Traceback" in res.stderr else f"exit {res.code}"
        return Failure("error", f"{call.verb} on {call.kind} input: {how}")
    if res.code not in (0, 1):
        return Failure("error", f"{call.verb} on {call.kind} input: exit {res.code}")
    if res.code != call.code:
        return _wrong(f"{call.verb}: exit {res.code}, expected {call.code}")
    if res.stdout.decode("utf-8", "replace") != call.stdout:
        return _wrong(f"{call.verb}: stdout differs from the in-process reference")
    return None


class CliBatch:
    """One client running `python -m jmrep <verb> <files>` over pre-generated documents.

    The first two operations are the g = 4 calls (rho2 and validate-entry of a
    handlebody twist), which each build the g = 4 decode solver cold.  The g = 3
    calls follow in a seeded order and repeat until the run ends.
    """

    genus = 3

    def __init__(self, seed, workdir, tracer=None):
        self.root = BENCH.parent
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.peak_child_kb = 0
        rng = random.Random(f"cli_batch:{seed}")
        g = self.genus
        entries = _validated(jm.catalog(g) + gen.twist_entries(g))
        specs = [e.spec for e in entries] + [e.inverse_spec for e in entries]
        big = _validated(gen.twist_entries(4))
        big_specs = [e.spec for e in big] + [e.inverse_spec for e in big]
        e4 = gen.compose(big_specs, gen.random_product(rng, big_specs))
        heavy = [
            _rho2(e4),
            _validate(rng.choice([e for e in big if e.claimed_handlebody])),
        ]
        light = cli_calls(rng, g, entries, specs)
        light += malformed_calls(rng, light, g)
        rng.shuffle(light)
        self.heavy = [self._materialize(c, k) for k, c in enumerate(heavy)]
        self.light = [self._materialize(c, k + len(heavy)) for k, c in enumerate(light)]
        warm = next(c for c in self.light if c[0].verb == "catalog-list")
        failure = self._run(warm, op=None)
        if failure:
            raise RuntimeError(f"set-up: warm-up failed: {failure}")
        self.peak_child_kb = 0  # only the timed calls count

    def _materialize(self, call, k):
        paths = []
        for j, text in enumerate(call.texts):
            path = self.workdir / f"doc{k:03d}_{j}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        return call, paths

    def make_input(self, i):
        if i < len(self.heavy):
            return self.heavy[i]
        return self.light[(i - len(self.heavy)) % len(self.light)]

    def run(self, inp):
        traced = self.tracer is not None and self.tracer.active
        return self._run(inp, op=self.tracer.current_op if traced else None)

    def _run(self, inp, op):
        call, paths = inp
        if op is None:
            argv = [sys.executable, "-m", "jmrep", call.verb, *paths]
        else:
            spans_path = self.workdir / "child_spans.json"
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), str(op),
                    call.verb, *paths]
        res = run_child(argv, self.root, self.env, self.workdir / "stderr.txt")
        self.peak_child_kb = max(self.peak_child_kb, res.max_rss_kb)
        if op is not None and spans_path.exists():
            self.tracer.absorb(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
        return judge(call, res)

    def peak_rss_kb(self):
        return self.peak_child_kb


WORKLOADS = {
    "represent": Represent,
    "group_algebra": GroupAlgebra,
    "cli_batch": CliBatch,
}
