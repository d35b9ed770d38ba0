"""Sequences of free abelian / simplicial groups with transition maps.

A diagram stores a finite truncation: stage ranks ``r_1, ..., r_N`` and
the ``N-1`` transition matrices, where transition ``t`` maps stage ``t``
to stage ``t+1``.  An optional period declaration asserts that the
transitions repeat forever after a prefix; that declaration is the only
way to state knowledge about the infinite tail.  Stage and transition
lookups past the truncation follow the declared period, so every stage
the period covers is available without building a longer copy.

An invalid diagram has no stages: ``rank_at`` and ``_step``, through
which every walk, query, composite and induced map reads a diagram,
raise ``invalid diagram: <first violation>`` on a diagram that
:func:`validate` rejects.  No other module calls ``_step``: they move
along a diagram by :func:`transition`, :func:`push` and ``_walk``.
"""

from __future__ import annotations

import functools
import reprlib

from .matrices import Matrix, _Frozen, _integers, _matrices, _Record, is_injective

PLAIN = "plain"
SIMPLICIAL = "simplicial"


class SequenceDiagram(_Frozen):
    """A truncated sequence of stages and transition homomorphisms.

    The constructor is deliberately permissive about shape mismatches;
    :func:`validate` reports every violated invariant as data, and no
    stage of a diagram with a violation can be read.
    """

    _fields = ("mode", "ranks", "transitions", "mono_required", "period")

    def __init__(self, mode: str, ranks: tuple, transitions: tuple, mono_required: bool = False, period: tuple | None = None):
        if mode not in (PLAIN, SIMPLICIAL):
            raise ValueError(f'mode must be "plain" or "simplicial", got {reprlib.repr(mode)}')
        ranks, transitions = _integers("ranks", ranks), _matrices("transitions", transitions)
        if not ranks:
            raise ValueError("a diagram needs at least one stage")
        if any(r < 0 for r in ranks):
            raise ValueError("ranks must be >= 0")
        if type(mono_required) is not bool:
            raise ValueError(f"mono_required must be a bool, got {reprlib.repr(mono_required)}")
        if period is not None:
            prefix, length = period = _integers("period", period)
            if prefix < 0 or length < 1:
                raise ValueError("period must be (prefix >= 0, length >= 1)")
        fields = self.__dict__
        fields["mode"] = mode
        fields["ranks"] = ranks
        fields["transitions"] = transitions
        fields["mono_required"] = mono_required
        fields["period"] = period  # (prefix_length, period_length)

    @property
    def length(self) -> int:
        return len(self.ranks)

    @property
    def simplicial(self) -> bool:
        return self.mode == SIMPLICIAL

    def _step(self, i: int) -> Matrix:
        """The matrix of the step from stage ``i`` to ``i + 1``: the stored
        one, past the truncation the one the declared period repeats."""
        if self._violations:
            raise ValueError(f"invalid diagram: {self._violations[0]}")
        t = i - 1
        if t < len(self.transitions):
            return self.transitions[t]
        if self.period is None:
            raise ValueError(f"stage {i + 1} beyond truncation of length {self.length}")
        prefix, length = self.period
        return self.transitions[prefix + (t - prefix) % length]

    def rank_at(self, i: int) -> int:
        """Rank of stage ``i`` (1-based), also past the truncation when
        the declared period covers it."""
        if self._violations:
            raise ValueError(f"invalid diagram: {self._violations[0]}")
        if i < 1:
            raise ValueError(f"stage {i} below 1")
        if i <= self.length:
            return self.ranks[i - 1]
        return self._step(i - 1).rows

    def has_stage(self, i: int) -> bool:
        """Whether stage ``i`` is stored or covered by the declared period."""
        try:
            self.rank_at(i)
        except ValueError:
            return False
        return True

    @functools.cached_property
    def _violations(self) -> tuple:
        """What :func:`validate` reports, found once: the diagram is immutable."""
        return tuple(_find_violations(self))


class ValidationReport(_Record):
    _fields = ("violations",)

    def __init__(self, violations: list | None = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(seq: SequenceDiagram) -> ValidationReport:
    """Check every diagram invariant; violations are data, not faults.

    Transition indices in messages are 1-based (transition ``t`` maps
    stage ``t`` to stage ``t+1``).  The checks run once per diagram;
    every call returns a fresh report.
    """
    return ValidationReport(list(seq._violations))


def _find_violations(seq: SequenceDiagram) -> list:
    violations = []
    n = seq.length
    if len(seq.transitions) != n - 1:
        violations.append(
            f"expected {n - 1} transitions for {n} stages, got {len(seq.transitions)}"
        )
    for t, m in enumerate(seq.transitions, start=1):
        if t >= n:
            break
        if (m.rows, m.cols) != (seq.ranks[t], seq.ranks[t - 1]):
            violations.append(
                f"shape mismatch at transition {t}: got {m.rows}x{m.cols}, "
                f"expected {seq.ranks[t]}x{seq.ranks[t - 1]}"
            )
            continue
        if seq.simplicial and not m.is_nonnegative():
            violations.append(f"negative entry at transition {t}")
        if seq.mono_required and not is_injective(m):
            violations.append(f"non-injective transition {t}")
    if seq.period is not None:
        prefix, length = seq.period
        covered = prefix + length
        if covered > len(seq.transitions):
            violations.append(
                f"period declaration needs transitions up to {covered}, "
                f"only {len(seq.transitions)} stored"
            )
            return violations
        # the transition after the last one of the period is its first one
        first, last = seq.transitions[prefix], seq.transitions[covered - 1]
        if first.cols != last.rows:
            violations.append(
                f"period does not close: transition {covered} ends at rank {last.rows}, "
                f"transition {prefix + 1} starts at rank {first.cols}"
            )
        for t in range(covered, len(seq.transitions)):
            ref = prefix + (t - prefix) % length
            if seq.transitions[t] != seq.transitions[ref]:
                violations.append(
                    f"transition {t + 1} breaks the declared period "
                    f"(differs from transition {ref + 1})"
                )
    return violations


def transition(seq: SequenceDiagram, i: int, j: int) -> Matrix:
    """Composite transition from stage ``i`` to stage ``j`` (1-based);
    the ``i = j`` case is the identity and a single step is the stored
    matrix.  Stages past the truncation follow the declared period.  To
    move a vector, :func:`push` gives the same without building it."""
    if not 1 <= i <= j:
        raise ValueError(f"stages ({i}, {j}) must satisfy 1 <= i <= j")
    if i == j:
        return Matrix.identity(seq.rank_at(i))
    m = seq._step(i)
    for k in range(i + 1, j):
        m = seq._step(k) * m
    return m


def push(seq: SequenceDiagram, i: int, j: int, vec) -> tuple:
    """``transition(seq, i, j).apply(vec)``, with the same errors in the
    same order, by one matrix-vector product per stored step: every step
    is resolved before any is applied, so a stage past the truncation is
    reported before a bad vector length, and ``i = j`` builds nothing."""
    if not 1 <= i <= j:
        raise ValueError(f"stages ({i}, {j}) must satisfy 1 <= i <= j")
    if i == j:
        rank = seq.rank_at(i)
        if len(vec) != rank:
            raise ValueError(f"vector length {len(vec)}, expected {rank}")
        return tuple(vec)
    steps = [seq._step(k) for k in range(i, j)]
    for step in steps:
        vec = step.apply(vec)
    return vec


def _walk(seq: SequenceDiagram, start: int, vecs: list, horizon: int):
    """Yield ``(k, vecs pushed forward to stage k)`` for ``k = start ..
    horizon``, taking each step only when the caller asks for it."""
    for k in range(start, horizon + 1):
        yield k, vecs
        if k < horizon:
            step = seq._step(k)
            vecs = [step.apply(v) for v in vecs]
