"""Element-level queries on the colimit group of a sequence.

An element is a pair ``(stage, vector)`` up to the identification
``(i, x) ~ (j, a_ij @ x)``.  A finite truncation can confirm facts that
are witnessed at a bounded stage but cannot refute tail-dependent ones,
so queries answer in three values: ``yes(witness)``, ``no``, or
``unknown(horizon)``, which says that no stage up to the horizon is a
witness, walked or proven.  One walk, ``_first``, builds every answer:
``yes`` at the first stage whose pushed vectors pass the query's test,
``no`` once it passes a *settled* stage after which no witness can
appear, and ``unknown`` when it reaches the horizon or a *barren* stage
after which no witness first appears.  Only injective transitions (mono
mode) settle a query: ``equal_at`` and ``eventual_equalizer`` at their
start stage.  On a periodic diagram ``equal_at``, ``eventual_equalizer``
and ``divisible`` stop at the barren stage that :func:`_barren` reads off
the period declaration, so their cost does not grow with the horizon.
On a simplicial periodic diagram ``cone_member`` and
``factor_through_stage`` stop once a walked vector (for the factor, a
column) is nonpositive and nonzero at a stage ``k``: nonnegative steps
keep it so, so it turns nonnegative only by turning zero, a kernel
question that ``_barren(seq, k, 1)`` settles.  A vector that stays mixed
in sign, as under the period ``diag(2, 1)``, is walked to the horizon, at
a cost quadratic in it.

Elements move by :func:`~colim.diagrams.push`, one matrix-vector product
per stored step; the only composite matrix built is the ``a_ij`` that
``eventual_equalizer`` compares with ``p``.  Comparisons walk one vector:
``equal_at`` the difference of the two elements, ``eventual_equalizer``
the columns of ``p - a_ij``; the witness is the first stage at which it
is zero.  A query whose start stage is past the horizon walks nothing:
it pushes no element and builds no ``a_ij``.  ``factor_through_stage``
walks its own loop, since it returns the pushed columns.  On a diagram
that :func:`~colim.diagrams.validate` rejects every query raises
``invalid diagram: <first violation>``, since such a diagram has no
stages to read.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import sub

from .diagrams import SequenceDiagram, _walk, push, transition
from .matrices import Matrix, _Frozen, _integers


class ColimitElement(_Frozen):
    _fields = ("stage", "vec")

    def __init__(self, stage: int, vec: tuple):
        vec = _integers("vec", vec)
        if type(stage) is not int:  # built for every element: no call when it is
            _integers("stage", (stage,))
        if stage < 1:
            raise ValueError("stages are 1-based")
        fields = self.__dict__
        fields["stage"] = stage
        fields["vec"] = vec


class Trilean(_Frozen):
    _fields = ("kind", "stage")

    def __init__(self, kind: str, stage: int | None = None):
        fields = self.__dict__
        fields["kind"] = kind  # "yes" | "no" | "unknown"
        # witness for yes; for unknown the horizon, up to which no stage is
        # a witness, walked or proven
        fields["stage"] = stage

    @staticmethod
    def yes(witness: int) -> "Trilean":
        return Trilean("yes", witness)

    @staticmethod
    def no() -> "Trilean":
        return Trilean("no")

    @staticmethod
    def unknown(horizon: int) -> "Trilean":
        return Trilean("unknown", horizon)

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    def __str__(self) -> str:
        if self.kind == "yes":
            return f"yes({self.stage})"
        if self.kind == "unknown":
            return f"unknown({self.stage})"
        return "no"


def _check(seq: SequenceDiagram, last: int, *elements: ColimitElement) -> None:
    """Reject a ``last`` stage that is neither stored nor covered by the
    declared period, and element vectors of the wrong length."""
    seq.rank_at(last)
    for e in elements:
        rank = seq.rank_at(e.stage)
        if len(e.vec) != rank:
            raise ValueError(
                f"vector length {len(e.vec)} does not match rank {rank} at stage {e.stage}"
            )


def pushforward(seq: SequenceDiagram, e: ColimitElement, j: int) -> ColimitElement:
    """Representative of ``e`` at the later stage ``j``."""
    _check(seq, j, e)
    return ColimitElement(j, push(seq, e.stage, j, e.vec))


def _barren(seq: SequenceDiagram, start: int, links: int) -> int:
    """A stage after which no witness first appears, for a walk from
    ``start`` on a periodic diagram whose test asks that the pushed
    vectors lie in the kernel of the composite over the integers
    (``links = 1``) or modulo ``m`` (``links = m.bit_length() - 1``).

    Every step from ``s = max(start, prefix + 1)`` on repeats the period,
    so the composite ``P`` of one period from ``s`` is square of size
    ``r = rank_at(s)``, and the kernel of the composite from ``s`` to
    ``s + n`` lies in that of ``P^k`` for ``k = ceil(n / length)``.  The
    kernels of ``P^k`` rise until two neighbours agree and then stay put;
    over the rationals the chain has at most ``r`` steps, and modulo ``m``
    at most ``r * Omega(m) <= r * floor(log2 m)``, the composition length
    of ``(Z/m)^r`` (``Omega`` counts prime factors with multiplicity).  So
    a vector killed at any stage is killed by stage ``s + r * links *
    length``; the stages before ``s`` are walked.  Plain arithmetic on the
    declaration: no matrix is built."""
    prefix, length = seq.period
    s = max(start, prefix + 1)
    return s + seq.rank_at(s) * links * length


def _first(
    seq: SequenceDiagram, start: int, vecs: list, horizon: int, holds: Callable[[list], bool | None],
    settled: int | None = None, links: int | None = None,
) -> Trilean:
    """``yes(k)`` at the first ``k in [start, horizon]`` where ``holds`` is
    true of ``vecs`` pushed forward to stage ``k``; ``no`` once the walk
    passes the stage ``settled`` without a witness, a stage after which
    the caller has proved that none appears; ``unknown(horizon)``
    otherwise, also for an empty walk.  A caller whose test is a kernel
    test passes its ``links`` (see :func:`_barren`), and on a periodic
    diagram the walk stops at ``min(horizon, _barren(...))``: past that
    stage no witness first appears, so ``unknown(horizon)`` still says
    that no stage up to the horizon is one.  A caller without ``links``
    may have ``holds`` answer ``None`` at a stage ``k``: the vectors fail
    the test there and from then on pass it only at a stage where they
    are zero.  From ``k`` on the walk is a kernel walk, so on a periodic
    diagram it stops at ``min(horizon, _barren(seq, k, 1))``.  Every
    answer of the queries below is built here."""
    if links is None or seq.period is None:
        last = horizon
    else:
        last = min(horizon, _barren(seq, start, links))
    for k, pushed in _walk(seq, start, vecs, last):
        found = holds(pushed)
        if found:
            return Trilean.yes(k)
        if k == settled:
            return Trilean.no()
        if found is None and links is None and seq.period is not None:
            return _first(seq, k, pushed, horizon, holds, settled, links=1)
    return Trilean.unknown(horizon)


def equal_at(
    seq: SequenceDiagram, e1: ColimitElement, e2: ColimitElement, horizon: int
) -> Trilean:
    """Least stage within the horizon at which the two elements agree,
    i.e. at which the pushforward of their difference is zero.

    In mono mode disagreement at ``max(stage1, stage2)`` is definitive,
    since injective transitions cannot merge distinct vectors later.
    """
    _check(seq, horizon, e1, e2)
    start = max(e1.stage, e2.stage)
    diffs = []
    if start <= horizon:  # past the horizon the walk is empty: nothing is pushed
        x1, x2 = [push(seq, e.stage, start, e.vec) for e in (e1, e2)]
        diffs.append(tuple(map(sub, x1, x2)))
    settled = start if seq.mono_required else None
    return _first(seq, start, diffs, horizon, lambda pushed: not any(pushed[0]), settled, links=1)


def eventual_equalizer(
    seq: SequenceDiagram, i: int, j: int, p: Matrix, horizon: int
) -> Trilean:
    """Least ``i0 in [j, horizon]`` with ``a_{j,i0} * p == a_{i,i0}``.

    In mono mode ``p != a_ij`` is definitively ``no``: postcomposing with
    an injective map preserves the inequality forever.
    """
    if not (1 <= i <= j):
        raise ValueError("need 1 <= i <= j")
    _check(seq, max(horizon, j))
    want = (seq.rank_at(j), seq.rank_at(i))
    if (p.rows, p.cols) != want:
        raise ValueError(f"p has shape {p.rows}x{p.cols}, expected {want[0]}x{want[1]}")
    cols = []
    if j <= horizon:  # past the horizon the walk is empty: a_ij is not built
        a_ij = transition(seq, i, j)
        # a_{i,i0} = a_{j,i0} * a_ij, so the columns of a_{j,i0} * (p - a_ij)
        cols = [tuple(map(sub, p.col(c), a_ij.col(c))) for c in range(p.cols)]
    settled = j if seq.mono_required else None
    return _first(seq, j, cols, horizon, lambda pushed: not any(map(any, pushed)), settled, links=1)


def factor_through_stage(
    seq: SequenceDiagram, images: Sequence[ColimitElement], horizon: int
) -> tuple | None:
    """Factor the map determined by basis images through a finite stage.

    Returns the least ``(i0, g)`` such that column ``k`` of ``g`` is a
    stage-``i0`` representative of ``images[k]``; in simplicial mode the
    stage is advanced until all representatives are entrywise
    nonnegative.  ``None`` when the horizon is exhausted.

    Nonnegative steps keep a nonpositive column nonpositive, so on a
    simplicial periodic diagram a column that is nonpositive and nonzero
    at stage ``k`` turns nonnegative only by turning zero, which it does
    by ``_barren(seq, k, 1)`` or never: the walk answers ``None`` at that
    deadline if the column is still nonzero there.  A column stays
    nonnegative once it is, so one that turns zero before its deadline
    drops out, and the walk goes on.  A column that stays mixed in sign,
    as under the period ``diag(2, 1)``, is walked to the horizon.
    """
    if not images:
        raise ValueError("need at least one image")
    _check(seq, horizon, *images)
    start = max(e.stage for e in images)
    if start > horizon:  # an empty walk: nothing is pushed
        return None
    cols = [push(seq, e.stage, start, e.vec) for e in images]
    # the columns not yet nonnegative; nonnegative steps keep a nonnegative one so
    pending = range(len(cols)) if seq.simplicial else ()
    deadlines = {}  # column -> the stage by which that nonpositive column is zero, if ever
    for i0, pushed in _walk(seq, start, cols, horizon):
        negative = []
        for c in pending:
            col = pushed[c]
            if col and min(col) < 0:
                negative.append(c)
                if c not in deadlines:
                    if seq.period is not None and max(col) <= 0:
                        deadlines[c] = _barren(seq, i0, 1)
                elif deadlines[c] == i0:
                    return None
        if not negative:
            return i0, Matrix.from_columns(pushed, rows=seq.rank_at(i0))
        pending = negative
    return None


def cone_member(seq: SequenceDiagram, e: ColimitElement, horizon: int) -> Trilean:
    """Whether the element lies in the colimit positive cone, i.e. some
    pushforward within the horizon is entrywise nonnegative.

    Nonnegative steps keep a nonpositive vector nonpositive, so once the
    pushed vector is nonpositive and nonzero it reaches the cone only by
    reaching 0: on a periodic diagram the walk from such a stage ``k``
    stops at ``_barren(seq, k, 1)``.  A vector that stays mixed in sign,
    as under the period ``diag(2, 1)``, is walked to the horizon."""
    if not seq.simplicial:
        raise ValueError("cone membership is only defined in simplicial mode")
    _check(seq, horizon, e)
    return _first(seq, e.stage, [e.vec], horizon, _nonnegative)


def _nonnegative(pushed: list) -> bool | None:
    """Whether the one pushed vector is entrywise nonnegative; ``None``
    when it is nonpositive and nonzero, since nonnegative steps keep it
    so and it is nonnegative only where it is zero."""
    vec = pushed[0]
    if not vec or min(vec) >= 0:  # min's default= costs more than the test
        return True
    if max(vec) > 0:
        return False
    return None


def divisible(
    seq: SequenceDiagram, e: ColimitElement, m: int, horizon: int
) -> Trilean:
    """Whether the element is divisible by ``m`` in the colimit, witnessed
    by a pushforward that is 0 mod ``m`` componentwise."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    _check(seq, horizon, e)
    return _first(
        seq, e.stage, [e.vec], horizon, lambda pushed: not any([v % m for v in pushed[0]]),
        links=m.bit_length() - 1,
    )
