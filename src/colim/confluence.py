"""Confluence certificates: verification, induced maps, and bounded search.

A certificate is one back-and-forth chain between two sequences,

    A_{i_1} --f_1--> B_{k_1} --g_1--> A_{i_2} --f_2--> B_{k_2} --> ...

with strictly increasing stage indices on each side, in which every two
consecutive maps compose to a transition: ``g_n * f_n = a_{i_n, i_{n+1}}``
and ``f_{n+1} * g_n = b_{k_n, k_{n+1}}``.  Verification, induced maps,
round trips and the search each walk this chain once, position by
position; the side of a position is its parity.  A verified certificate
whose periodic block is accepted holds at every level, so it induces
mutually inverse maps between the two colimit groups and proves them
isomorphic; without one it checks levels ``1..m`` only.  The search is a
depth-first back-and-forth construction; it is sound unconditionally but
complete only relative to its budget, so a failed search is never
evidence of non-isomorphism.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .colimit import ColimitElement, equal_at
from .diagrams import SequenceDiagram, push, transition, validate
from .matrices import Matrix, _integers, iter_matrices, solve_matrix_eq

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class CertificatePeriod:
    """Declares that the certificate repeats forever: every ``period_len``
    levels the maps recur and the stage indices advance by fixed steps."""

    index_step_a: int
    index_step_b: int
    period_len: int

    def __post_init__(self):
        for name in ("index_step_a", "index_step_b", "period_len"):
            _integers(name, (getattr(self, name),))


@dataclass(frozen=True)
class ConfluenceCertificate:
    i_indices: tuple
    k_indices: tuple
    f_mats: tuple
    g_mats: tuple  # depth-1 entries, or depth with a trailing unused map
    periodic: Optional[CertificatePeriod] = None

    def __post_init__(self):
        object.__setattr__(self, "i_indices", _integers("i_indices", self.i_indices))
        object.__setattr__(self, "k_indices", _integers("k_indices", self.k_indices))
        object.__setattr__(self, "f_mats", tuple(self.f_mats))
        object.__setattr__(self, "g_mats", tuple(self.g_mats))
        # One private view of the chain A_{i_1} -> B_{k_1} -> A_{i_2} -> ...,
        # not a field: stages i_1, k_1, i_2, ... and maps f_1, g_1, f_2, ...
        # Map p leaves node p (of A for even p, of B for odd p) for node
        # p + 1; a trailing g_m leaves the last node.
        stages = tuple(itertools.chain.from_iterable(zip(self.i_indices, self.k_indices)))
        maps = itertools.chain.from_iterable(zip(self.f_mats, self.g_mats))
        object.__setattr__(self, "_chain", (stages, (*maps, *self.f_mats[len(self.g_mats):])))

    @property
    def depth(self) -> int:
        return len(self.i_indices)


@dataclass
class VerifyReport:
    accepted: bool = True
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    periodic_accepted: Optional[bool] = None

    def fail(self, message: str) -> None:
        self.accepted = False
        self.failures.append(message)


def _name(p: int) -> str:
    """Name of the map at chain position ``p``: ``f_n`` or ``g_n``."""
    return f"{'fg'[p % 2]}_{p // 2 + 1}"


def _structural_check(
    seqA: SequenceDiagram, seqB: SequenceDiagram, cert: ConfluenceCertificate, report: VerifyReport
) -> Optional[tuple]:
    """The chain's maps if the certificate is well formed, else None.
    A map without rows is read at the rank of its source stage, since
    the text formats write every ``0 x n`` matrix as ``[]``."""
    m = cert.depth
    if m < 2:
        report.fail(f"certificate depth {m} < 2")
        return None
    if len(cert.k_indices) != m or len(cert.f_mats) != m:
        report.fail("index and map counts disagree with the certificate depth")
        return None
    if len(cert.g_mats) not in (m - 1, m):
        report.fail(f"expected {m - 1} (or {m}) backward maps, got {len(cert.g_mats)}")
        return None
    for name, idx in (("i", cert.i_indices), ("k", cert.k_indices)):
        if idx[0] < 1 or any(a >= b for a, b in zip(idx, idx[1:])):
            report.fail(f"{name}-indices must be strictly increasing and positive")
            return None
    seqs, (stages, maps) = (seqA, seqB), cert._chain
    if not all(seqs[q].has_stage(s) for q, s in enumerate(stages[-2:])):
        report.fail("certificate stages exceed the diagram truncations")
        return None
    ranks = [seqs[p % 2].rank_at(s) for p, s in enumerate(stages)]
    maps = tuple(h if h.rows else Matrix.zero(0, ranks[p]) for p, h in enumerate(maps))
    ok = True
    # report order: all f_n, then all g_n
    for p in [*range(0, len(maps), 2), *range(1, len(maps), 2)]:
        h = maps[p]
        # the trailing g has no stored target stage; only its source is checkable
        rows = ranks[p + 1] if p + 1 < len(ranks) else h.rows
        if (h.rows, h.cols) != (rows, ranks[p]):
            report.fail(f"{_name(p)} has shape {h.rows}x{h.cols}, expected {rows}x{ranks[p]}")
            ok = False
        elif seqA.simplicial and not h.is_nonnegative():
            report.fail(f"{_name(p)} has a negative entry in simplicial mode")
            ok = False
    return maps if ok else None


def _periodic_fault(
    seqA: SequenceDiagram, seqB: SequenceDiagram, cert: ConfluenceCertificate
) -> Optional[str]:
    """Why the stored prefix does not determine an infinite certificate,
    or ``None`` when it does: the maps must repeat, the index steps must
    be constant multiples of the diagram periods, and all stages must lie
    beyond the diagram prefixes."""
    seqs, per = (seqA, seqB), cert.periodic
    if any(seq.period is None for seq in seqs):
        return "both diagrams need period declarations"
    if per.period_len < 1 or cert.depth < per.period_len + 1:
        return "stored prefix shorter than one period"
    steps = (per.index_step_a, per.index_step_b)
    if any(step % seq.period[1] for seq, step in zip(seqs, steps)):
        return "index steps are not multiples of the diagram periods"
    stages, maps = cert._chain
    if any(stages[q] <= seqs[q].period[0] for q in (0, 1)):
        return "certificate stages inside the diagram prefixes"
    shift = 2 * per.period_len
    if any(stages[q + shift] - stages[q] != steps[q] for q in (0, 1)):
        return "declared index steps do not match the prefix"
    ends = len(maps) - shift
    for p in [*range(0, ends, 2), *range(1, ends, 2)]:  # report order: all f_n, then all g_n
        if maps[p + shift] != maps[p]:
            return f"{_name(p + shift)} differs from {_name(p)}"
        if p % 2 == 0:  # f_n is checked with the stages i_n and k_n of its level
            for side in (0, 1):
                if stages[p + side + shift] - stages[p + side] != steps[side]:
                    return f"{'ik'[side]}-indices do not advance by the declared step"
    return None


def verify_certificate(
    seqA: SequenceDiagram, seqB: SequenceDiagram, cert: ConfluenceCertificate
) -> VerifyReport:
    """Check all certificate invariants and the two families of exact
    matrix identities; the report pinpoints the first failing equation."""
    report = VerifyReport()
    for name, seq in (("A", seqA), ("B", seqB)):
        bad = validate(seq)
        if not bad.ok:
            report.fail(f"diagram {name} is invalid: {bad.violations[0]}")
    if not report.accepted:
        return report
    if seqA.mode != seqB.mode:
        report.fail("diagrams have different modes")
        return report
    maps = _structural_check(seqA, seqB, cert, report)
    if maps is None:
        return report
    seqs, stages = (seqA, seqB), cert._chain[0]
    for p in range(len(stages) - 2):
        if maps[p + 1] * maps[p] != transition(seqs[p % 2], stages[p], stages[p + 2]):
            report.fail(
                f"equation ({p % 2 + 1}) fails at level n={p // 2 + 1}: "
                f"{_name(p + 1)}*{_name(p)} != {'ab'[p % 2]}-transition"
            )
            return report
    if cert.periodic is not None:
        fault = _periodic_fault(seqA, seqB, cert)
        report.periodic_accepted = fault is None
        report.notes.append(
            f"periodic claim rejected: {fault}" if fault else
            "periodic certificate: one period verified, infinite certificate accepted"
        )
    return report


def induced_map(
    seqA: SequenceDiagram,
    seqB: SequenceDiagram,
    cert: ConfluenceCertificate,
    direction: str,
    e: ColimitElement,
) -> ColimitElement:
    """Image of a colimit element under the isomorphism induced by a
    verified certificate.

    Forward uses the least chain node of diagram A with ``i_n >= stage``
    and its map ``f_n``; backward the least node of B with ``k_n >= stage``
    and its map ``g_n``.  Well-defined up to colimit equality.  The
    element moves to that node by :func:`~colim.diagrams.push`, one
    matrix-vector product per step, and through the map by one more.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    side = direction == BACKWARD
    stages, maps = cert._chain
    p = next((p for p in range(side, len(stages) - 1, 2) if stages[p] >= e.stage), None)
    if p is None:
        last = f"last certificate index {stages[-2]}"
        reach = "the backward range of the certificate" if side else last
        raise ValueError(f"element stage {e.stage} beyond {reach}")
    vec = push((seqA, seqB)[side], e.stage, stages[p], e.vec)
    # a map without rows, read at its source stage's rank, sends vec to ()
    return ColimitElement(stages[p + 1], maps[p].apply(vec) if maps[p].rows else ())


@dataclass
class RoundtripReport:
    failures: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def roundtrip_check(
    seqA: SequenceDiagram,
    seqB: SequenceDiagram,
    cert: ConfluenceCertificate,
    samples_a: Sequence[ColimitElement],
    samples_b: Sequence[ColimitElement],
    horizon: int,
) -> RoundtripReport:
    """Check ``backward(forward(e)) == e`` on A samples and the symmetric
    identity on B samples; verified certificates must pass on every
    in-range sample."""
    report = RoundtripReport()
    for name, seq, samples, there, back in (
        ("A", seqA, samples_a, FORWARD, BACKWARD),
        ("B", seqB, samples_b, BACKWARD, FORWARD),
    ):
        for e in samples:
            image = induced_map(seqA, seqB, cert, there, e)
            again = induced_map(seqA, seqB, cert, back, image)
            verdict = equal_at(seq, again, e, horizon)
            report.checked += 1
            if not verdict.is_yes:
                report.failures.append(f"{name} sample {e} round-trips to {again}: {verdict}")
    return report


# ---------------------------------------------------------------------
# Bounded back-and-forth search
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    depth: int
    entry_bound: int
    stage_horizon: int
    node_limit: int

    def __post_init__(self):
        for name in ("depth", "entry_bound", "stage_horizon", "node_limit"):
            value = getattr(self, name)
            _integers(f"budget field {name}", (value,))
            if value <= 0:
                raise ValueError(f"budget field {name} must be positive")
        if self.depth < 2:
            raise ValueError("certificates need depth >= 2")


def _composites(seq: SequenceDiagram, last: int):
    """A function that gives, for a start stage ``i``, the list of
    ``(j, transition(seq, i, j))`` for ``j = i + 1 .. last`` and the
    :func:`_column_contents` of the last of them (``None`` when there is
    none), built one step at a time on the first call for each ``i`` and
    kept for the next ones."""

    @functools.cache
    def from_stage(i: int) -> tuple:
        done: list = []
        for j in range(i + 1, last + 1):
            step = transition(seq, j - 1, j)
            done.append((j, step * done[-1][1] if done else step))
        return done, _column_contents(done[-1][1]) if done else None

    return from_stage


def _projections(m: Matrix):
    """The vectors ``m * y`` for the projections ``y`` of the screen, in
    its order, as iterables: each unit column ``e_c``, then ``e_a + e_b``
    and ``e_a - e_b`` for each two columns ``a < b``."""
    columns = list(zip(*m.entries)) if m.rows else [()] * m.cols
    yield from columns
    for a, b in itertools.combinations(columns, 2):
        yield map(operator.add, a, b)
        yield map(operator.sub, a, b)


def _column_contents(t: Matrix) -> tuple:
    """The content (gcd) of ``t * y`` for each projection ``y`` of
    :func:`_projections`; 0 for a zero vector."""
    return tuple(math.gcd(*v) for v in _projections(t))


def _column_gcds_refute(k: Matrix, contents: tuple) -> bool:
    """Whether ``h * k = t`` has no integer solution because of one
    projection, given ``contents = _column_contents(t)``: ``t * y`` is
    ``h * (k * y)``, so the content of ``t * y`` is a multiple of the
    content of ``k * y`` (zero when that content is zero)."""
    # the loop stops at the first refuting projection: written as ``any``
    # over ``_column_contents(k)`` it takes every gcd first, and
    # ``search``'s op_p50 rose from 0.81-0.88 ms to 0.91-0.97 ms (six
    # alternated pairs, 2 vCPU, CPython 3.11)
    for v, tg in zip(_projections(k), contents):
        g = math.gcd(*v)
        if tg % g if g else tg:
            return True
    return False


class _OutOfNodes(Exception):
    pass


class _Counter:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _OutOfNodes


class _Search:
    """The state of one :func:`search_confluence` call: its budget, the
    map count of a certificate, the composites of each side (with the
    :func:`_column_contents` of each start stage's horizon target, the
    contents of its column and pair projections), the node counter,
    ``solvers``, the solver of each ``K`` (its first
    :func:`solve_matrix_eq`, whose elimination serves every target of
    ``K``), and ``halves``, which maps each half-level met so far,
    ``(side, start stage, K cols, K entries)``, to ``(solver, live
    targets)``, or ``()`` when it is dead.  Entry tuples hash faster than
    a Matrix; a ``K`` without rows needs its width in the key.

    A live target is ``[next stage, substitution, streams]``.  Its row
    streams are built the first time the search enters it, and its
    substitution is dropped then, so a target the search never enters
    costs no stream and an entered one keeps no substitution."""

    def __init__(self, budget: SearchBudget, composites: tuple, constraint: str, nodes: _Counter):
        self.budget = budget
        self.leaf = 2 * budget.depth - 1  # the map count of a certificate
        self.composites = composites
        self.constraint = constraint
        self.nodes = nodes
        self.solvers: dict = {}
        self.halves: dict = {}

    def _live(self, side: int, start: int, k: Matrix) -> tuple:
        """A new half-level: ``()`` when it has no target, the projection
        contents refute its horizon target or the horizon system has no
        integer solution, else its solver and its live targets, found by
        substituting back from the horizon to the first inconsistent
        target."""
        targets, contents = self.composites[side](start)
        if not targets or _column_gcds_refute(k, contents):
            return ()
        solver = self.solvers.get((k.cols, k.entries))
        if solver is None:
            solver = self.solvers[k.cols, k.entries] = solve_matrix_eq(k, targets[-1][1], self.constraint, self.budget.entry_bound)
        live = []
        for nxt, target in reversed(targets):
            solved = solver.substitute(target)
            if solved is None:
                break
            live.append([nxt, solved, None])
        live.reverse()
        return (solver, live) if live else ()

    def extend(self, stages: list, maps: list) -> Optional[ConfluenceCertificate]:
        """One half-level: the next map ``h`` solves
        ``h * maps[-1] = transition(stages[-2], next)`` on the side of
        ``stages[-2]``.  ``stages`` and ``maps`` grow and shrink in place.
        Entering a live target for the first time builds its row
        streams."""
        if len(maps) == self.leaf:
            return ConfluenceCertificate(stages[0::2], stages[1::2], maps[0::2], maps[1::2])
        side, k = len(stages) % 2, maps[-1]
        key = (side, stages[-2], k.cols, k.entries)
        half = self.halves.get(key)
        if half is None:
            half = self.halves[key] = self._live(side, stages[-2], k)
        if not half:
            return None
        solver, live = half
        tick, rows = self.nodes.tick, k.rows
        for target in live:
            nxt, solved, streams = target
            if streams is None:
                streams = target[2] = solver.row_streams(solved)
                target[1] = None
            stages.append(nxt)
            for entries in itertools.product(*streams):
                tick()
                maps.append(Matrix._make(entries, rows))
                found = self.extend(stages, maps)
                if found is not None:
                    return found
                maps.pop()
            stages.pop()
        return None


def search_confluence(
    seqA: SequenceDiagram, seqB: SequenceDiagram, budget: SearchBudget
) -> Optional[ConfluenceCertificate]:
    """Depth-first search for a confluence certificate within the budget.

    Every returned certificate passes :func:`verify_certificate`.  An
    empty result means only that the budgeted space holds no certificate;
    it is never evidence of non-isomorphism.  The search recurses once per
    map, so a depth whose chain needs more nested calls than the
    interpreter's recursion limit allows raises ``ValueError``.

    Each half-level solves ``h * K = T_j`` for the next map, with
    ``T_j = transition(s, j)`` from the side's stage ``s`` to each later
    stage ``j`` up to the horizon, and the same few half-levels recur all
    over the tree.  So within one search each half-level, keyed by side,
    ``s`` and ``K``, is resolved once into its live targets and kept in
    one table; a revisit is one lookup.  Each distinct ``K`` is eliminated
    once, by one :func:`~colim.matrices.solve_matrix_eq` aimed at the
    horizon target of the first half-level that needs it, and every other
    target of ``K`` reuses that elimination; the solutions come in the
    order :func:`~colim.matrices.solve_matrix_eq` gives.  Resolving a
    half-level substitutes its targets only; the row streams of a target
    are built when the search first enters it, so a node limit or a
    certificate that stops the search first saves them.

    Pruning: the targets with an integer solution form a suffix of
    ``j``, since if ``h * K = T_j`` then
    ``(transition(j, j') * h) * K = T_{j'}`` for every ``j' > j``.  So a
    half-level tests the horizon target first and walks back only to the
    first inconsistent target; the systems it skips have no solutions
    and would visit no nodes.

    Screen: ``h * K = T`` gives ``T * y = h * (K * y)`` for every integer
    vector ``y``, so every entry of ``T * y`` is a multiple of the content
    (gcd) of ``K * y`` (zero when ``K * y`` is zero), and so is the content
    of ``T * y``.  The screen projects on each column ``y = e_c`` and on
    ``y = e_a + e_b`` and ``y = e_a - e_b`` for every two columns
    ``a < b``.  The contents of the horizon target of each side and ``s``
    are taken once per search; a new half-level compares the contents of
    ``K``'s projections with them first, the columns and then the pairs,
    and the first mismatch makes the half-level dead with no elimination.
    A refuted system has no integer solution at all, so the screen changes
    no node, order or certificate.  It costs ``O(cols**2 * rows)`` gcd
    and addition steps per new ``K``; on the benchmark's library searches
    it refutes about 95% of the inconsistent horizon systems, where the
    columns alone refute about 77%.
    """
    if seqA.mode != seqB.mode:
        raise ValueError("diagrams must share a mode")
    for seq in (seqA, seqB):
        bad = validate(seq)
        if not bad.ok:
            raise ValueError(f"invalid diagram: {bad.violations[0]}")
    ha = budget.stage_horizon if seqA.has_stage(budget.stage_horizon) else seqA.length
    hb = budget.stage_horizon if seqB.has_stage(budget.stage_horizon) else seqB.length
    nodes = _Counter(budget.node_limit)
    constraint = "nonnegative" if seqA.simplicial else "any"
    search = _Search(budget, (_composites(seqA, ha), _composites(seqB, hb)), constraint, nodes)
    try:
        for i1 in range(1, ha + 1):
            for k1 in range(1, hb + 1):
                for f1 in iter_matrices(
                    seqB.rank_at(k1), seqA.rank_at(i1), budget.entry_bound, seqA.simplicial
                ):
                    nodes.tick()
                    found = search.extend([i1, k1], [f1])
                    if found is not None:
                        return found
    except _OutOfNodes:
        return None
    except RecursionError:
        raise ValueError(
            f"depth {budget.depth} needs more nested calls than the interpreter's "
            f"recursion limit ({sys.getrecursionlimit()}) allows"
        ) from None
    return None
