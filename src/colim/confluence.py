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
import reprlib
import sys
from collections.abc import Sequence

from .colimit import ColimitElement, equal_at
from .diagrams import SequenceDiagram, push, transition, validate
from .matrices import Matrix, _box, _Frozen, _integers, _matrices, _Record, solve_matrix_eq

FORWARD = "forward"
BACKWARD = "backward"


class CertificatePeriod(_Frozen):
    """Declares that the certificate repeats forever: every ``period_len``
    levels the maps recur and the stage indices advance by fixed steps."""

    _fields = ("index_step_a", "index_step_b", "period_len")

    def __init__(self, index_step_a: int, index_step_b: int, period_len: int):
        values = index_step_a, index_step_b, period_len
        for name, value in zip(self._fields, values):
            _integers(name, (value,))
        self.__dict__.update(zip(self._fields, values))


class ConfluenceCertificate(_Frozen):
    _fields = ("i_indices", "k_indices", "f_mats", "g_mats", "periodic")

    def __init__(self, i_indices: tuple, k_indices: tuple, f_mats: tuple, g_mats: tuple, periodic: CertificatePeriod | None = None):
        fields = self.__dict__
        fields["i_indices"] = i_indices = _integers("i_indices", i_indices)
        fields["k_indices"] = k_indices = _integers("k_indices", k_indices)
        fields["f_mats"] = f_mats = _matrices("f_mats", f_mats)
        fields["g_mats"] = g_mats = _matrices("g_mats", g_mats)  # depth-1 entries, or depth with a trailing unused map
        if periodic is not None and not isinstance(periodic, CertificatePeriod):
            raise ValueError(f"periodic takes a CertificatePeriod or None, got {reprlib.repr(periodic)}")
        fields["periodic"] = periodic
        # One private view of the chain A_{i_1} -> B_{k_1} -> A_{i_2} -> ...,
        # not a field: stages i_1, k_1, i_2, ... and maps f_1, g_1, f_2, ...
        # Map p leaves node p (of A for even p, of B for odd p) for node
        # p + 1; a trailing g_m leaves the last node.
        stages = tuple(itertools.chain.from_iterable(zip(i_indices, k_indices)))
        maps = itertools.chain.from_iterable(zip(f_mats, g_mats))
        fields["_chain"] = (stages, (*maps, *f_mats[len(g_mats):]))

    @property
    def depth(self) -> int:
        return len(self.i_indices)


class VerifyReport(_Record):
    """What :func:`verify_certificate` found.  ``accepted`` is read off
    ``failures``: a certificate is accepted when nothing fails.
    ``periodic_accepted`` is ``None`` without a periodic claim, else
    whether the claim holds, and a note says why."""

    _fields = ("failures", "notes", "periodic_accepted")

    def __init__(self, failures: list | None = None, notes: list | None = None, periodic_accepted: bool | None = None):
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes
        self.periodic_accepted = periodic_accepted

    @property
    def accepted(self) -> bool:
        return not self.failures


def _name(p: int) -> str:
    """Name of the map at chain position ``p``: ``f_n`` or ``g_n``."""
    return f"{'fg'[p % 2]}_{p // 2 + 1}"


def _periodic_fault(
    seqA: SequenceDiagram, seqB: SequenceDiagram, cert: ConfluenceCertificate
) -> str | None:
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
    matrix identities in one pass, top to bottom: the two diagrams, their
    modes, the depth and counts, the index order, the truncations, the
    shape and signs of every map (all ``f_n``, then all ``g_n``) and the
    equations.  The first step that fails ends the check with its
    failures: each invalid diagram, each bad map, or the first failing
    equation.  A map without rows is read at the rank of its source
    stage, since the text formats write every ``0 x n`` matrix as ``[]``."""
    report = VerifyReport()
    fail = report.failures.append
    for name, seq in (("A", seqA), ("B", seqB)):
        bad = validate(seq)
        if not bad.ok:
            fail(f"diagram {name} is invalid: {bad.violations[0]}")
    if not report.accepted:
        return report
    if seqA.mode != seqB.mode:
        fail("diagrams have different modes")
        return report
    m = cert.depth
    if m < 2:
        fail(f"certificate depth {m} < 2")
        return report
    if len(cert.k_indices) != m or len(cert.f_mats) != m:
        fail("index and map counts disagree with the certificate depth")
        return report
    if len(cert.g_mats) not in (m - 1, m):
        fail(f"expected {m - 1} (or {m}) backward maps, got {len(cert.g_mats)}")
        return report
    for name, idx in (("i", cert.i_indices), ("k", cert.k_indices)):
        if idx[0] < 1 or any(a >= b for a, b in zip(idx, idx[1:])):
            fail(f"{name}-indices must be strictly increasing and positive")
            return report
    seqs, (stages, maps) = (seqA, seqB), cert._chain
    if not all(seqs[q].has_stage(s) for q, s in enumerate(stages[-2:])):
        fail("certificate stages exceed the diagram truncations")
        return report
    ranks = [seqs[p % 2].rank_at(s) for p, s in enumerate(stages)]
    maps = tuple(h if h.rows else Matrix.zero(0, ranks[p]) for p, h in enumerate(maps))
    # report order: all f_n, then all g_n
    for p in [*range(0, len(maps), 2), *range(1, len(maps), 2)]:
        h = maps[p]
        # the trailing g has no stored target stage; only its source is checkable
        rows = ranks[p + 1] if p + 1 < len(ranks) else h.rows
        if (h.rows, h.cols) != (rows, ranks[p]):
            fail(f"{_name(p)} has shape {h.rows}x{h.cols}, expected {rows}x{ranks[p]}")
        elif seqA.simplicial and not h.is_nonnegative():
            fail(f"{_name(p)} has a negative entry in simplicial mode")
    if not report.accepted:
        return report
    for p in range(len(stages) - 2):
        if maps[p + 1] * maps[p] != transition(seqs[p % 2], stages[p], stages[p + 2]):
            fail(
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
    and its map ``g_n``.  Well-defined up to colimit equality.  Past the
    stored chain, a certificate whose periodic block is accepted goes on
    forever: each node of its last stored period recurs every period,
    its stages advanced by the declared index steps and its map kept.
    The element moves to the node by :func:`~colim.diagrams.push`, one
    matrix-vector product per step, and through the map by one more.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown direction {direction!r}")
    side = direction == BACKWARD
    stages, maps = cert._chain
    nodes = range(side, len(stages) - 1, 2)  # the nodes of this side with a stored target
    p = next((p for p in nodes if stages[p] >= e.stage), None)
    if p is not None:
        node, target = stages[p], stages[p + 1]
    elif cert.periodic is not None and _periodic_fault(seqA, seqB, cert) is None:
        per = cert.periodic
        steps = (per.index_step_a, per.index_step_b)
        # the least number of whole periods that carries a node of the
        # last stored period to the element's stage; its least node is
        # the least node of the chain there
        t, p = min((-((stages[q] - e.stage) // steps[side]), q) for q in nodes[-per.period_len:])
        node, target = stages[p] + t * steps[side], stages[p + 1] + t * steps[not side]
    else:
        last = f"last certificate index {stages[-2]}"
        reach = "the backward range of the certificate" if side else last
        raise ValueError(f"element stage {e.stage} beyond {reach}")
    vec = push((seqA, seqB)[side], e.stage, node, e.vec)
    # a map without rows, read at its source stage's rank, sends vec to ()
    return ColimitElement(target, maps[p].apply(vec) if maps[p].rows else ())


class RoundtripReport(_Record):
    _fields = ("failures", "checked")

    def __init__(self, failures: list | None = None, checked: int = 0):
        self.failures = [] if failures is None else failures
        self.checked = checked

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


class SearchBudget(_Frozen):
    _fields = ("depth", "entry_bound", "stage_horizon", "node_limit")

    def __init__(self, depth: int, entry_bound: int, stage_horizon: int, node_limit: int):
        values = depth, entry_bound, stage_horizon, node_limit
        for name, value in zip(self._fields, values):
            _integers(f"budget field {name}", (value,))
            if value <= 0:
                raise ValueError(f"budget field {name} must be positive")
        if depth < 2:
            raise ValueError("certificates need depth >= 2")
        self.__dict__.update(zip(self._fields, values))


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


def _column_contents(t: Matrix) -> tuple:
    """The content (gcd) of ``t * y`` for each projection ``y`` of the
    screen, in its order: each unit column ``e_c``, then ``e_a + e_b``
    and ``e_a - e_b`` for each two columns ``a < b``; 0 for a zero
    vector."""
    columns = list(zip(*t.entries)) if t.rows else [()] * t.cols
    contents = [math.gcd(*v) for v in columns]
    for a, b in itertools.combinations(columns, 2):
        contents += math.gcd(*map(operator.add, a, b)), math.gcd(*map(operator.sub, a, b))
    return tuple(contents)


def _column_gcds_refute(rows: tuple, width: int, contents: tuple) -> bool:
    """Whether ``h * k = t`` has no integer solution because of one
    projection, for the ``k`` with the entry rows ``rows`` and ``width``
    columns, given ``contents = _column_contents(t)``: ``t * y`` is
    ``h * (k * y)``, so the content of ``t * y`` is a multiple of the
    content of ``k * y`` (zero when that content is zero)."""
    # the projections of :func:`_column_contents`, in its order, written
    # out; the loop stops at the first refuting one.  Through a generator the
    # 50,335 screens of 600 bench-shaped library searches took 85-87 ms,
    # here 57-58 ms (2 vCPU, CPython 3.11.7).  Written as ``any`` over
    # ``_column_contents(k)`` it takes every gcd first, and ``search``'s
    # op_p50 rose from 0.81-0.88 ms to 0.91-0.97 ms (six alternated
    # pairs, 2 vCPU, CPython 3.11)
    gcd = math.gcd
    columns = list(zip(*rows)) if rows else [()] * width
    n = 0
    for v in columns:
        g, tg = gcd(*v), contents[n]
        if tg % g if g else tg:
            return True
        n += 1
    for a, b in itertools.combinations(columns, 2):
        g, tg = gcd(*map(operator.add, a, b)), contents[n]
        if tg % g if g else tg:
            return True
        g, tg = gcd(*map(operator.sub, a, b)), contents[n + 1]
        if tg % g if g else tg:
            return True
        n += 2
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
    a Matrix; a ``K`` without rows needs its width in the key.  The loop
    of :meth:`extend` that enumerates the candidates for ``K`` looks each
    one's key up once and runs the screen on a new key there (its proof
    is in :func:`search_confluence`), so a candidate whose half-level is
    dead builds no ``Matrix`` and makes no call.

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
        """A new half-level whose side has a target from ``start`` and
        whose ``k`` passed :meth:`extend`'s screen: ``()`` when the
        horizon system has no integer solution, else its solver and its
        live targets, found by substituting back from the horizon to the
        first inconsistent target."""
        targets = self.composites[side](start)[0]
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

    def extend(self, stages: list, maps: list, candidates, cols: int) -> ConfluenceCertificate | None:
        """Walk ``candidates``, the entry tuples of the next map's
        candidates, ``cols`` columns each, from ``stages[-2]`` to
        ``stages[-1]``; each is one node.  At the leaf the first one
        completes the certificate.  Below it, a candidate ``k`` opens the
        half-level ``h * k = transition(stages[-2], next)`` on the side
        of ``stages[-2]``: a key met before is one lookup, and a new key
        is dead, with no ``Matrix`` built, when the side has no target
        from there or the screen of :func:`search_confluence` refutes its
        horizon target.  Only a live candidate joins ``maps``, as its
        solver's ``K``, and gets one recursive call per live target, whose
        row streams are built when it is first entered.  ``stages`` and
        ``maps`` grow and shrink in place."""
        tick = self.nodes.tick
        if len(maps) + 1 == self.leaf:
            for entries in candidates:
                tick()
                maps.append(Matrix._make(entries, cols))
                return ConfluenceCertificate(stages[0::2], stages[1::2], maps[0::2], maps[1::2])
            return None
        side, start, halves = len(stages) % 2, stages[-2], self.halves
        for entries in candidates:
            tick()
            key = (side, start, cols, entries)
            half = halves.get(key)
            if half is None:
                targets, contents = self.composites[side](start)
                dead = not targets or _column_gcds_refute(entries, cols, contents)
                half = halves[key] = () if dead else self._live(side, start, Matrix._make(entries, cols))
            if not half:
                continue
            solver, live = half
            maps.append(solver.k)
            for target in live:
                nxt, solved, streams = target
                if streams is None:
                    streams = target[2] = solver.row_streams(solved)
                    target[1] = None
                stages.append(nxt)
                found = self.extend(stages, maps, itertools.product(*streams), len(entries))
                if found is not None:
                    return found
                stages.pop()
            maps.pop()
        return None


def search_confluence(
    seqA: SequenceDiagram, seqB: SequenceDiagram, budget: SearchBudget
) -> ConfluenceCertificate | None:
    """Depth-first search for a confluence certificate within the budget.

    Every returned certificate passes :func:`verify_certificate`.  An
    empty result means only that the budgeted space holds no certificate;
    it is never evidence of non-isomorphism.  The search recurses once per
    map, so a depth whose chain needs more nested calls than the
    interpreter's recursion limit allows raises ``ValueError``.  So do
    diagrams of different modes, and an invalid diagram, which its
    readers refuse before any node, A before B, with
    ``invalid diagram: <first violation>``.

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
    are taken once per search.  The screen runs in the loop that
    enumerates the candidates for ``K``, once per new key, on the
    candidate's entry tuples: it compares the contents of ``K``'s
    projections with the target's, the columns and then the pairs, and
    the first mismatch makes the half-level dead before a ``Matrix`` is
    built, an elimination runs or the search recurses.  A refuted system
    has no integer solution at all, so the screen changes no node, order
    or certificate.  It costs ``O(cols**2 * rows)`` gcd and addition
    steps per new key; on the benchmark's library searches it refutes
    about 95% of the inconsistent horizon systems, where the columns
    alone refute about 77%.
    """
    if seqA.mode != seqB.mode:
        raise ValueError("diagrams must share a mode")
    ha, hb = (budget.stage_horizon if seq.has_stage(budget.stage_horizon) else seq.length for seq in (seqA, seqB))
    constraint = "nonnegative" if seqA.simplicial else "any"
    search = _Search(budget, (_composites(seqA, ha), _composites(seqB, hb)), constraint, _Counter(budget.node_limit))
    try:
        for i1 in range(1, ha + 1):
            for k1 in range(1, hb + 1):
                cols = seqA.rank_at(i1)
                box = _box(seqB.rank_at(k1), cols, budget.entry_bound, seqA.simplicial)
                found = search.extend([i1, k1], [], box, cols)
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
