"""Confluence certificates: verification, induced maps, and bounded search.

A certificate interleaves two sequences with maps ``f_n`` (A to B) and
``g_n`` (B to A) at strictly increasing stage indices, subject to the
exact matrix identities

    g_n * f_n     = transition_A(i_n, i_{n+1})
    f_{n+1} * g_n = transition_B(k_n, k_{n+1})

A verified certificate induces mutually inverse maps between the two
colimit groups, so it is a proof of isomorphism.  The search is a
depth-first back-and-forth construction; it is sound unconditionally but
complete only relative to its budget, so a failed search is never
evidence of non-isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .colimit import ColimitElement, Trilean, equal_at
from .diagrams import SequenceDiagram, transition, validate
from .matrices import Matrix, iter_matrices, solve_matrix_eq

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class CertificatePeriod:
    """Declares that the certificate repeats forever: every ``period_len``
    levels the maps recur and the stage indices advance by fixed steps."""

    index_step_a: int
    index_step_b: int
    period_len: int


@dataclass(frozen=True)
class ConfluenceCertificate:
    i_indices: tuple
    k_indices: tuple
    f_mats: tuple
    g_mats: tuple  # depth-1 entries, or depth with a trailing unused map
    periodic: Optional[CertificatePeriod] = None

    def __post_init__(self):
        object.__setattr__(self, "i_indices", tuple(int(i) for i in self.i_indices))
        object.__setattr__(self, "k_indices", tuple(int(k) for k in self.k_indices))
        object.__setattr__(self, "f_mats", tuple(self.f_mats))
        object.__setattr__(self, "g_mats", tuple(self.g_mats))

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


def _structural_check(
    seqA: SequenceDiagram, seqB: SequenceDiagram, cert: ConfluenceCertificate, report: VerifyReport
) -> bool:
    m = cert.depth
    if m < 2:
        report.fail(f"certificate depth {m} < 2")
        return False
    if len(cert.k_indices) != m or len(cert.f_mats) != m:
        report.fail("index and map counts disagree with the certificate depth")
        return False
    if len(cert.g_mats) not in (m - 1, m):
        report.fail(f"expected {m - 1} (or {m}) backward maps, got {len(cert.g_mats)}")
        return False
    for name, idx in (("i", cert.i_indices), ("k", cert.k_indices)):
        if idx[0] < 1 or any(a >= b for a, b in zip(idx, idx[1:])):
            report.fail(f"{name}-indices must be strictly increasing and positive")
            return False
    if not (seqA.has_stage(cert.i_indices[-1]) and seqB.has_stage(cert.k_indices[-1])):
        report.fail("certificate stages exceed the diagram truncations")
        return False
    ok = True
    for n in range(m):
        f = cert.f_mats[n]
        want = (seqB.rank_at(cert.k_indices[n]), seqA.rank_at(cert.i_indices[n]))
        if (f.rows, f.cols) != want:
            report.fail(
                f"f_{n + 1} has shape {f.rows}x{f.cols}, expected {want[0]}x{want[1]}"
            )
            ok = False
        elif seqA.simplicial and not f.is_nonnegative():
            report.fail(f"f_{n + 1} has a negative entry in simplicial mode")
            ok = False
    for n in range(len(cert.g_mats)):
        g = cert.g_mats[n]
        if n < m - 1:
            want = (seqA.rank_at(cert.i_indices[n + 1]), seqB.rank_at(cert.k_indices[n]))
            bad = (g.rows, g.cols) != want
        else:
            # trailing g has no stored target stage; only its source is checkable
            want = (g.rows, seqB.rank_at(cert.k_indices[n]))
            bad = g.cols != want[1]
        if bad:
            report.fail(
                f"g_{n + 1} has shape {g.rows}x{g.cols}, expected {want[0]}x{want[1]}"
            )
            ok = False
        elif seqA.simplicial and not g.is_nonnegative():
            report.fail(f"g_{n + 1} has a negative entry in simplicial mode")
            ok = False
    return ok


def _periodic_check(
    seqA: SequenceDiagram, seqB: SequenceDiagram, cert: ConfluenceCertificate, report: VerifyReport
) -> None:
    """Decide whether the stored prefix really determines an infinite
    certificate: the maps must repeat, the index steps must be constant
    multiples of the diagram periods, and all stages must lie beyond the
    diagram prefixes."""
    per = cert.periodic
    report.periodic_accepted = False
    if seqA.period is None or seqB.period is None:
        report.notes.append("periodic claim rejected: both diagrams need period declarations")
        return
    L = per.period_len
    if L < 1 or cert.depth < L + 1 or len(cert.g_mats) < L:
        report.notes.append("periodic claim rejected: stored prefix shorter than one period")
        return
    pa, la = seqA.period
    pb, lb = seqB.period
    if per.index_step_a % la or per.index_step_b % lb:
        report.notes.append(
            "periodic claim rejected: index steps are not multiples of the diagram periods"
        )
        return
    if cert.i_indices[0] <= pa or cert.k_indices[0] <= pb:
        report.notes.append("periodic claim rejected: certificate stages inside the diagram prefixes")
        return
    steps_a = [b - a for a, b in zip(cert.i_indices, cert.i_indices[1:])]
    steps_b = [b - a for a, b in zip(cert.k_indices, cert.k_indices[1:])]
    if sum(steps_a[:L]) != per.index_step_a or sum(steps_b[:L]) != per.index_step_b:
        report.notes.append("periodic claim rejected: declared index steps do not match the prefix")
        return
    for n in range(cert.depth - L):
        if cert.f_mats[n + L] != cert.f_mats[n]:
            report.notes.append(f"periodic claim rejected: f_{n + L + 1} differs from f_{n + 1}")
            return
        if cert.i_indices[n + L] - cert.i_indices[n] != per.index_step_a:
            report.notes.append("periodic claim rejected: i-indices do not advance by the declared step")
            return
        if cert.k_indices[n + L] - cert.k_indices[n] != per.index_step_b:
            report.notes.append("periodic claim rejected: k-indices do not advance by the declared step")
            return
    for n in range(len(cert.g_mats) - L):
        if cert.g_mats[n + L] != cert.g_mats[n]:
            report.notes.append(f"periodic claim rejected: g_{n + L + 1} differs from g_{n + 1}")
            return
    report.periodic_accepted = True
    report.notes.append("periodic certificate: one period verified, infinite certificate accepted")


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
    if not _structural_check(seqA, seqB, cert, report):
        return report
    for n in range(cert.depth - 1):
        lhs = cert.g_mats[n] * cert.f_mats[n]
        rhs = transition(seqA, cert.i_indices[n], cert.i_indices[n + 1])
        if lhs != rhs:
            report.fail(f"equation (1) fails at level n={n + 1}: g_{n + 1}*f_{n + 1} != a-transition")
            return report
        lhs = cert.f_mats[n + 1] * cert.g_mats[n]
        rhs = transition(seqB, cert.k_indices[n], cert.k_indices[n + 1])
        if lhs != rhs:
            report.fail(f"equation (2) fails at level n={n + 1}: f_{n + 2}*g_{n + 1} != b-transition")
            return report
    if cert.periodic is not None:
        _periodic_check(seqA, seqB, cert, report)
    return report


def truncate_certificate(cert: ConfluenceCertificate, depth: int) -> ConfluenceCertificate:
    """First ``depth >= 2`` levels of a certificate; still verifies."""
    if not (2 <= depth <= cert.depth):
        raise ValueError("depth out of range")
    return ConfluenceCertificate(
        cert.i_indices[:depth],
        cert.k_indices[:depth],
        cert.f_mats[:depth],
        cert.g_mats[: depth - 1],
    )


def induced_map(
    seqA: SequenceDiagram,
    seqB: SequenceDiagram,
    cert: ConfluenceCertificate,
    direction: str,
    e: ColimitElement,
) -> ColimitElement:
    """Image of a colimit element under the isomorphism induced by a
    verified certificate.

    Forward uses the least certificate level with ``i_n >= stage``;
    backward is symmetric through ``g_n``.  Well-defined up to colimit
    equality.
    """
    if direction == FORWARD:
        idx = cert.i_indices
        n = next((n for n, i in enumerate(idx) if i >= e.stage), None)
        if n is None:
            raise ValueError(f"element stage {e.stage} beyond last certificate index {idx[-1]}")
        vec = cert.f_mats[n].apply(transition(seqA, e.stage, idx[n]).apply(e.vec))
        return ColimitElement(cert.k_indices[n], vec)
    if direction == BACKWARD:
        idx = cert.k_indices
        n = next((n for n, k in enumerate(idx) if k >= e.stage), None)
        if n is None or n >= len(cert.g_mats) or n >= cert.depth - 1:
            raise ValueError(
                f"element stage {e.stage} beyond the backward range of the certificate"
            )
        vec = cert.g_mats[n].apply(transition(seqB, e.stage, idx[n]).apply(e.vec))
        return ColimitElement(cert.i_indices[n + 1], vec)
    raise ValueError(f"unknown direction {direction!r}")


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
    for e in samples_a:
        image = induced_map(seqA, seqB, cert, FORWARD, e)
        back = induced_map(seqA, seqB, cert, BACKWARD, image)
        verdict = equal_at(seqA, back, e, horizon)
        report.checked += 1
        if not verdict.is_yes:
            report.failures.append(f"A sample {e} round-trips to {back}: {verdict}")
    for e in samples_b:
        back = induced_map(seqA, seqB, cert, BACKWARD, e)
        image = induced_map(seqA, seqB, cert, FORWARD, back)
        verdict = equal_at(seqB, image, e, horizon)
        report.checked += 1
        if not verdict.is_yes:
            report.failures.append(f"B sample {e} round-trips to {image}: {verdict}")
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
            if getattr(self, name) <= 0:
                raise ValueError(f"budget field {name} must be positive")
        if self.depth < 2:
            raise ValueError("certificates need depth >= 2")


def _composites(seq: SequenceDiagram, last: int):
    """A function that iterates ``(j, transition(seq, i, j))`` for
    ``j = i + 1 .. last``.

    The list for each start stage ``i`` is built one step at a time, as
    far as some iteration has read it, and kept for the next one.
    """
    built: dict = {}

    def from_stage(i: int):
        done = built.setdefault(i, [])
        for n in itertools.count():
            if n == len(done):
                j = i + 1 + n
                if j > last:
                    return
                step = transition(seq, j - 1, j)
                done.append((j, step * done[-1][1] if done else step))
            yield done[n]

    return from_stage


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


def search_confluence(
    seqA: SequenceDiagram, seqB: SequenceDiagram, budget: SearchBudget
) -> Optional[ConfluenceCertificate]:
    """Depth-first search for a confluence certificate within the budget.

    Every returned certificate passes :func:`verify_certificate`.  An
    empty result means only that the budgeted space holds no certificate;
    it is never evidence of non-isomorphism.
    """
    if seqA.mode != seqB.mode:
        raise ValueError("diagrams must share a mode")
    for seq in (seqA, seqB):
        bad = validate(seq)
        if not bad.ok:
            raise ValueError(f"invalid diagram: {bad.violations[0]}")
    constraint = "nonnegative" if seqA.simplicial else "any"
    ha = budget.stage_horizon if seqA.has_stage(budget.stage_horizon) else seqA.length
    hb = budget.stage_horizon if seqB.has_stage(budget.stage_horizon) else seqB.length
    nodes = _Counter(budget.node_limit)
    composites_a, composites_b = _composites(seqA, ha), _composites(seqB, hb)

    def extend(i_idx, k_idx, f_mats, g_mats):
        n = len(f_mats)
        if n == budget.depth:
            return ConfluenceCertificate(i_idx, k_idx, f_mats, g_mats)
        for i_next, target_a in composites_a(i_idx[-1]):
            g_sols = solve_matrix_eq(f_mats[-1], target_a, constraint, budget.entry_bound)
            for g in g_sols:
                nodes.tick()
                for k_next, target_b in composites_b(k_idx[-1]):
                    f_sols = solve_matrix_eq(g, target_b, constraint, budget.entry_bound)
                    for f in f_sols:
                        nodes.tick()
                        found = extend(
                            i_idx + [i_next], k_idx + [k_next], f_mats + [f], g_mats + [g]
                        )
                        if found is not None:
                            return found
        return None

    try:
        for i1 in range(1, ha + 1):
            for k1 in range(1, hb + 1):
                for f1 in iter_matrices(
                    seqB.rank_at(k1), seqA.rank_at(i1), budget.entry_bound, seqA.simplicial
                ):
                    nodes.tick()
                    found = extend([i1], [k1], [f1], [])
                    if found is not None:
                        return found
    except _OutOfNodes:
        return None
    return None
