"""Span and count recorder for the traced run.

:func:`install` wraps the public functions of each ``colim`` layer at
every module attribute the package reaches them through (a function
imported with ``from .matrices import snf`` is wrapped in the importing
module too).  A wrapper opens a span, calls the original, closes the
span and updates the layer's counters.  Spans nest as the calls do,
because there is one thread: a span's self time is its duration minus
the durations of its direct children.  Spans stay in memory (up to a
cap) and :meth:`Recorder.write` saves them when the run ends.
Nothing under ``src/`` is modified; :func:`uninstall` restores every
original attribute.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import colim
import colim.cli
import colim.colimit
import colim.confluence
import colim.diagrams
import colim.formats
import colim.invariants
import colim.matrices

ROOT_SPAN = "bench.op"
SPAN_CAP = 200_000


class Recorder:
    def __init__(self):
        self.counts = defaultdict(int)  # "<layer>.<metric>" -> int
        self.self_s = defaultdict(float)  # layer -> summed self time
        self.total_s = defaultdict(float)  # layer -> summed duration
        self.maxima = defaultdict(int)  # "<layer>.max_bits" -> int
        self.names: list = []
        self._name_ids: dict = {}
        self.spans = {k: array(t) for k, t in (("id", "q"), ("parent", "q"), ("op", "q"), ("name", "i"), ("start", "d"), ("end", "d"))}
        self.dropped = 0
        self._next_id = 0
        self._op = -1
        self._stack: list = []  # frames: [id, name, start, child_time]

    # -- spans ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack = []
        self.push(ROOT_SPAN)

    def end_op(self) -> None:
        # a deadline can interrupt a wrapper between push and pop; close
        # whatever is still open so the next op starts clean
        while self._stack:
            self.pop()

    @property
    def in_op(self) -> bool:
        return bool(self._stack)

    def push(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def pop(self) -> None:
        end = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans["id"]) >= SPAN_CAP:
            self.dropped += 1
            return
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        for key, value in (("id", span_id), ("parent", parent), ("op", self._op), ("name", name_id), ("start", start), ("end", end)):
            self.spans[key].append(value)

    def write(self, path) -> None:
        """Spans as tab-separated ``id parent op name start_s end_s``;
        parent 0 marks an op's root span."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for n in range(len(s["id"])):
                out.write(f"{s['id'][n]}\t{s['parent'][n]}\t{s['op'][n]}\t{self.names[s['name'][n]]}\t{s['start'][n]:.9f}\t{s['end'][n]:.9f}\n")

    # -- counters -------------------------------------------------------

    def note_bits(self, key: str, bits: int) -> None:
        self.maxima[key] = max(self.maxima[key], bits)


def _after_snf(rec, args, result):
    bits = max((abs(x).bit_length() for m in result for row in m.entries for x in row), default=0)
    rec.note_bits("matrices.snf.max_bits", bits)


def _after_solve(rec, args, result):
    rec.counts["matrices.solve.consistent"] += bool(result.consistent)


def _after_transition(rec, args, result):
    rec.counts["diagrams.transition.steps"] += args[2] - args[1]


def _after_search(rec, args, result):
    rec.counts["confluence.search.found"] += result is not None


def _after_factor(rec, args, result):
    rec.note_bits("invariants.factor.max_bits", abs(args[0]).bit_length())


def _after_parse(rec, args, result):
    rec.counts["formats.parse.bytes"] += len(args[0].encode("utf-8"))


def _after_emit(rec, args, result):
    rec.counts["formats.emit.bytes"] += len(result.encode("utf-8"))


M, D, Q, K, I, F = colim.matrices, colim.diagrams, colim.colimit, colim.confluence, colim.invariants, colim.formats

# layer -> (function name, modules that hold it as an attribute, counter hook)
LAYERS = {
    "matrices.snf": [("snf", (M, colim), _after_snf)],
    "matrices.solve": [("solve_matrix_eq", (M, K, colim), _after_solve)],
    "matrices.rank": [("rank", (M,), None)],
    "matrices.kernel": [("kernel_basis", (M, colim), None)],
    "diagrams.transition": [("transition", (D, Q, K, colim), _after_transition)],
    "diagrams.validate": [("validate", (D, K, F, I, colim.cli, colim), None)],
    "diagrams.extend": [("extend_to", (D, Q, K), None)],
    "colimit.query": [
        (name, (Q, K), None)
        for name in ("equal_at", "eventual_equalizer", "factor_through_stage", "cone_member", "divisible", "pushforward")
    ],
    "confluence.search": [("search_confluence", (K, colim), _after_search)],
    "confluence.verify": [("verify_certificate", (K, colim), None)],
    "confluence.induced": [("induced_map", (K,), None)],
    "invariants.evidence": [("noniso_evidence", (I, colim), None)],
    "invariants.factor": [("factorint", (I,), _after_factor)],
    "formats.parse": [(name, (F, colim.cli), _after_parse) for name in ("parse_diagram", "parse_certificate", "parse_element")],
    "formats.emit": [("emit_certificate", (F, colim.cli), _after_emit), ("emit_diagram", (F,), _after_emit)],
    "cli.main": [("main", (colim.cli,), None)],
}


def _wrap(rec: Recorder, layer: str, fn, after):
    calls = layer + ".calls"

    def wrapper(*args, **kwargs):
        if not rec.in_op:  # building inputs between ops is not program work
            return fn(*args, **kwargs)
        rec.counts[calls] += 1
        rec.push(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.pop()
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def install(rec: Recorder) -> list:
    """Wrap every layer function and ``Matrix`` construction and product;
    returns the ``(owner, name, original)`` list :func:`uninstall` needs."""
    saved = []

    def replace(owner, name, new):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    for layer, entries in LAYERS.items():
        for name, owners, after in entries:
            present = [o for o in owners if name in vars(o)]
            if not present:
                print(f"tracer: no {name} to wrap for {layer}", file=sys.stderr)
                continue
            wrappers = {}  # one wrapper per original, shared by its import sites
            for owner in present:
                fn = vars(owner)[name]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = _wrap(rec, layer, fn, after)
                replace(owner, name, wrappers[id(fn)])

    Matrix = M.Matrix
    replace(Matrix, "__init__", _wrap(rec, "matrices.new", Matrix.__init__, None))
    replace(Matrix, "__mul__", _wrap(rec, "matrices.mul", Matrix.__mul__, None))

    solutions_iter = M.MatrixEqSolutions.__iter__

    def traced_iter(self):
        # lazy enumeration runs inside the caller's loop; time each step
        # as solver work without counting it as another solver call
        it = solutions_iter(self)
        while True:
            rec.push("matrices.solve")
            try:
                x = next(it)
            except StopIteration:
                return
            finally:
                rec.pop()
            rec.counts["matrices.solve.yielded"] += 1
            yield x

    replace(M.MatrixEqSolutions, "__iter__", traced_iter)

    tick = K._Counter.tick

    def traced_tick(self):
        tick(self)
        rec.counts["confluence.search.nodes"] += 1

    replace(K._Counter, "tick", traced_tick)
    return saved


def uninstall(saved: list) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, overhead_frac: float) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``."""
    c, s = rec.counts, rec.self_s
    out = {}

    def calls_self(layer):
        out[f"{layer}.calls"] = (c[f"{layer}.calls"], "count")
        out[f"{layer}.self_s"] = (s[layer], "s")

    calls_self("matrices.snf")
    out["matrices.snf.max_bits"] = (rec.maxima["matrices.snf.max_bits"], "bit")
    calls_self("matrices.solve")
    out["matrices.solve.yielded"] = (c["matrices.solve.yielded"], "count")
    out["matrices.solve.consistent_ratio"] = (_ratio(c["matrices.solve.consistent"], c["matrices.solve.calls"]), "1")
    for layer in ("matrices.new", "matrices.mul", "matrices.rank", "matrices.kernel"):
        calls_self(layer)
    calls_self("diagrams.transition")
    out["diagrams.transition.steps"] = (c["diagrams.transition.steps"], "count")
    for layer in ("diagrams.validate", "diagrams.extend", "colimit.query"):
        calls_self(layer)
    calls_self("confluence.search")
    nodes = c["confluence.search.nodes"]
    out["confluence.search.nodes"] = (nodes, "count")
    out["confluence.search.us_per_node"] = (_ratio(rec.total_s["confluence.search"] * 1e6, nodes), "us")
    out["confluence.search.found_ratio"] = (_ratio(c["confluence.search.found"], c["confluence.search.calls"]), "1")
    for layer in ("confluence.verify", "confluence.induced", "invariants.evidence", "invariants.factor"):
        calls_self(layer)
    out["invariants.factor.max_bits"] = (rec.maxima["invariants.factor.max_bits"], "bit")
    for layer in ("formats.parse", "formats.emit"):
        calls_self(layer)
        out[f"{layer}.bytes"] = (c[f"{layer}.bytes"], "B")
    calls_self("cli.main")
    out["trace.overhead_frac"] = (overhead_frac, "1")
    return out
