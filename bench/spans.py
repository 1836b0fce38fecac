"""Span recorder for the benchmark's traced runs.

The recorder wraps the public functions of jmrep's layer modules from
outside the package: each wrapper is rebound in every jmrep.* namespace
that holds the original, and IntMatrix.__mul__ is wrapped on the class.
A span is (name, layer, start, end, parent, operation id); spans stay in
memory until the run ends.  Counters for work done (letters pushed, E
triples, ...) are taken at the same boundaries from arguments and results.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all layers plus the benchmark's own
time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("linalg", "wedge", "words", "phi2", "rho2", "membership", "catalog", "jsonio", "cli")
SETUP_OP = -1
IMPORT_SPAN = "cli.import"
SP_ACTIONS = ("wedge.wedge2_sp_action", "wedge.wedge3_sp_action", "wedge.sp_action_on_hom")


def _count_matmul(c, args, result, top):
    if hasattr(result, "rows"):  # matrix times matrix, not matrix times vector
        c["linalg.matmuls"] += 1


def _count_endo_apply(c, args, result, top):
    images = args[0].images
    c["words.letters_pushed"] += sum(len(images[abs(s) - 1].letters) for s in args[1].letters)
    c["words.letters_kept"] += len(result.letters)


def _count_eval_word(c, args, result, top):
    c["phi2.letters_evaluated"] += len(args[0].letters)


def _count_synthesis(c, args, result, top):
    c["phi2.synth_letters"] += len(result.letters)


def _count_E(c, args, result, top):
    c["membership.E_triples"] += len(result)


def _count_verdict(c, args, result, top):
    if top:  # verdicts the benchmark asked for, not those nested in other tests
        c["membership.decided"] += 1
        c["membership.accepted"] += bool(result)


COUNT_HOOKS = {
    "linalg.IntMatrix.__mul__": _count_matmul,
    "words.endo_apply": _count_endo_apply,
    "phi2.phi2_eval_word": _count_eval_word,
    "phi2.phi2_word_synthesis": _count_synthesis,
    "membership.compute_E": _count_E,
    "membership.mcg_membership": _count_verdict,
    "membership.handlebody_membership": _count_verdict,
}


class Tracer:
    """Records spans around jmrep's public functions while `active` is set."""

    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self._ids: dict = {}
        self.nid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: list = []  # (span index, exception class name)
        self.counters: Counter = Counter()
        self.active = False
        self.current_op = SETUP_OP
        self._stack: list = []
        self._undo: list = []  # (owner, attribute, original)

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def record(self, name, layer, start, end, parent=-1) -> int:
        """Append a finished span of the current operation; returns its index."""
        self.nid.append(self.name_id(name, layer))
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(end)
        return len(self.nid) - 1

    def _wrap(self, fn, name, layer):
        nid = self.name_id(name, layer)
        hook = COUNT_HOOKS.get(name)
        tracer, stack, raised = self, self._stack, self.raised
        nids, parents, ops, starts, ends = self.nid, self.parent, self.op, self.start, self.end

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(nids)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                raised.append((idx, type(exc).__name__))
                raise
            finally:
                stack.pop()
            ends[idx] = perf_counter()
            if hook is not None:
                hook(tracer.counters, args, result, parents[idx] < 0)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every layer's public functions and IntMatrix.__mul__.

        Spans are recorded only while `active` is set; uninstall() puts the
        original functions back.
        """
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"jmrep.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "jmrep" or mod_name.startswith("jmrep."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
                        self._undo.append((mod, attr, obj))
        matrix = sys.modules["jmrep.linalg"].IntMatrix
        self._undo.append((matrix, "__mul__", matrix.__mul__))
        matrix.__mul__ = self._wrap(matrix.__mul__, "linalg.IntMatrix.__mul__", "linalg")

    def uninstall(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    # ------------------------------------------------------------ output

    def write(self, path) -> None:
        """Write names, counters and spans as one JSON object, a span per line."""
        if str(path).endswith(".gz"):
            fh = gzip.open(path, "wt", encoding="utf-8", compresslevel=1)
        else:
            fh = open(path, "w", encoding="utf-8")
        with fh:
            head = {"names": self.names, "layers": self.layers, "raised": self.raised,
                    "counters": dict(self.counters)}
            fh.write(json.dumps(head)[:-1] + ', "spans": [\n')
            rows = zip(self.nid, self.parent, self.op, self.start, self.end)
            fh.write(",\n".join(f"[{n},{p},{o},{s!r},{e!r}]" for n, p, o, s, e in rows))
            fh.write("\n]}\n")

    def absorb(self, doc: dict) -> None:
        """Append the spans and counters of another recorder (a traced child process)."""
        ids = [self.name_id(n, l) for n, l in zip(doc["names"], doc["layers"])]
        base = len(self.nid)
        for nid, parent, op, start, end in doc["spans"]:
            self.nid.append(ids[nid])
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op)
            self.start.append(start)
            self.end.append(end)
        self.raised.extend((idx + base, exc) for idx, exc in doc["raised"])
        self.counters.update(doc["counters"])

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self, keep=lambda op: op >= 0) -> dict:
        """name -> [calls, self seconds, inclusive seconds] over spans whose op passes keep.

        The key None holds the spans without a parent: [count, 0, their total duration].
        """
        own = self.self_times()
        out: dict = {None: [0, 0.0, 0.0]}
        for i, (nid, parent, op) in enumerate(zip(self.nid, self.parent, self.op)):
            if not keep(op):
                continue
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own[i]
            row[2] += dur
            if parent < 0:
                out[None][0] += 1
                out[None][2] += dur
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_ops: int, wall_s: float, untraced_s: float,
                  process_s: float = 0.0) -> dict:
    """The per-layer metrics of a traced run, as name -> (value, unit).

    Counts and times are per operation over the n_ops timed operations, so
    runs that complete different numbers of operations compare directly.
    wall_s is the summed time of the traced operations and untraced_s that
    of the same operations replayed without spans; process_s is the summed
    lifetime of CLI child processes.  catalog.validate_s is the exception:
    validation happens during set-up, so it is the set-up total.
    """
    ops = tr.summary()
    layer_of = dict(zip(tr.names, tr.layers))
    c = tr.counters
    per_op = {}

    def put(name, value, unit):
        per_op[name] = (value / n_ops, unit + "/op")

    def row(name):
        return ops.get(name, [0, 0.0, 0.0])

    def self_of(names):
        return sum(row(n)[1] for n in names)

    for layer in LAYERS:
        rows = [r for name, r in ops.items() if name is not None and layer_of[name] == layer]
        put(f"{layer}.calls", sum(r[0] for r in rows), "count")
        put(f"{layer}.self_s", sum(r[1] for r in rows), "s")
    rejects = sum(
        1 for idx, exc in tr.raised
        if exc == "NotInWedge3" and tr.names[tr.nid[idx]] == "wedge.wedge3_decode" and tr.op[idx] >= 0
    )
    put("wedge.decode_calls", row("wedge.wedge3_decode")[0], "count")
    put("wedge.decode_s", row("wedge.wedge3_decode")[2], "s")
    put("wedge.decode_rejects", rejects, "count")
    put("linalg.symplectic_checks", row("linalg.symplectic_check")[0], "count")
    put("linalg.matmuls", c["linalg.matmuls"], "count")
    put("wedge.sp_action_calls", sum(row(n)[0] for n in SP_ACTIONS), "count")
    put("wedge.sp_action_s", self_of(SP_ACTIONS), "s")
    put("words.letters_pushed", c["words.letters_pushed"], "count")
    put("words.letters_kept", c["words.letters_kept"], "count")
    put("phi2.letters_evaluated", c["phi2.letters_evaluated"], "count")
    put("phi2.synth_letters", c["phi2.synth_letters"], "count")
    put("membership.E_triples", c["membership.E_triples"], "count")
    put("membership.verdicts", c["membership.decided"], "count")
    put("jsonio.decode_s", self_of(n for n in ops if n and n.startswith("jsonio.decode_")), "s")
    put("jsonio.encode_s", self_of(n for n in ops if n and (
        n.startswith("jsonio.encode_") or n == "jsonio.canonical_dumps")), "s")
    put("cli.import_s", row(IMPORT_SPAN)[2], "s")
    put("cli.process_s", process_s, "s")
    put("bench.self_s", wall_s - ops[None][2], "s")
    put("trace.spans", sum(r[0] for n, r in ops.items() if n is not None), "count")
    setup = tr.summary(keep=lambda op: op == SETUP_OP)
    return dict(
        per_op,
        **{
            "words.keep_ratio": (_ratio(c["words.letters_kept"], c["words.letters_pushed"]), "ratio"),
            "membership.accept_ratio": (_ratio(c["membership.accepted"], c["membership.decided"]),
                                        "ratio"),
            "catalog.validate_s": (setup.get("catalog.validate_entry", [0, 0.0, 0.0])[2], "s"),
            "trace.ops": (n_ops, "count"),
            "trace.wall_s": (wall_s, "s"),
            "trace.overhead_ratio": (_ratio(wall_s, untraced_s), "ratio"),
        },
    )
