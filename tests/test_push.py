"""Elements move by ``diagrams.push``, one matrix-vector product per
stored step, and the colimit comparisons walk one difference vector.

Everything here is checked against ``transition(...).apply(...)``: push
itself on every stage pair, the queries and the induced maps against a
reference that moves elements through composite matrices only, and a
guard that the element-moving queries build no matrix at all."""

import random

import pytest

from colim import colimit
from colim.colimit import (
    ColimitElement,
    Trilean,
    cone_member,
    divisible,
    equal_at,
    eventual_equalizer,
    factor_through_stage,
    pushforward,
)
from colim.confluence import (
    BACKWARD,
    FORWARD,
    ConfluenceCertificate,
    induced_map,
    roundtrip_check,
)
from colim.diagrams import SequenceDiagram, push, transition, validate
from colim.matrices import Matrix, kernel_basis

from conftest import random_matrix, some_diagram

LAST = 40


def outcome(fn):
    """``("ok", value)``, or the type and text of what ``fn`` raised."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def vector(rng, n):
    return tuple(rng.randint(-3, 3) for _ in range(n))


def element(rng, seq, last):
    stage = rng.randint(1, last)
    return ColimitElement(stage, vector(rng, seq.rank_at(stage)))


# -- a reference that moves elements through composite matrices -------------


def moved(seq, e, j):
    return transition(seq, e.stage, j).apply(e.vec)


def ref_equal_at(seq, e1, e2, horizon):
    start = max(e1.stage, e2.stage)
    if horizon < start:
        return Trilean.unknown(horizon)
    if seq.mono_required:
        return Trilean.yes(start) if moved(seq, e1, start) == moved(seq, e2, start) else Trilean.no()
    for k in range(start, horizon + 1):
        if moved(seq, e1, k) == moved(seq, e2, k):
            return Trilean.yes(k)
    return Trilean.unknown(horizon)


def ref_eventual_equalizer(seq, i, j, p, horizon):
    if seq.mono_required:
        return Trilean.yes(j) if p == transition(seq, i, j) else Trilean.no()
    for i0 in range(j, horizon + 1):
        if transition(seq, j, i0) * p == transition(seq, i, i0):
            return Trilean.yes(i0)
    return Trilean.unknown(horizon)


def ref_factor(seq, images, horizon):
    for i0 in range(max(e.stage for e in images), horizon + 1):
        cols = [moved(seq, e, i0) for e in images]
        if not (seq.simplicial and any(x < 0 for c in cols for x in c)):
            return i0, Matrix.from_columns(cols, rows=seq.rank_at(i0))
    return None


def ref_first(seq, e, horizon, test):
    for k in range(e.stage, horizon + 1):
        if test(moved(seq, e, k)):
            return Trilean.yes(k)
    return Trilean.unknown(horizon)


def ref_induced(seqA, seqB, cert, direction, e):
    """Forward: ``f_n`` after ``a_{stage, i_n}`` for the least ``i_n >=
    stage``; backward: ``g_n`` after ``b_{stage, k_n}`` for the least
    ``k_n >= stage`` that has a ``g_n`` and an ``i_{n+1}``."""
    if direction == FORWARD:
        seq, here, there, maps = seqA, cert.i_indices, cert.k_indices, cert.f_mats
    else:
        seq, here, there, maps = seqB, cert.k_indices[: cert.depth - 1], cert.i_indices[1:], cert.g_mats
    n = next(n for n, s in enumerate(here) if s >= e.stage)
    x = transition(seq, e.stage, here[n]).apply(e.vec)
    return ColimitElement(there[n], maps[n].apply(x) if maps[n].rows else ())


def ref_roundtrip(seqA, seqB, cert, samples_a, samples_b, horizon):
    failures, checked = [], 0
    for name, seq, samples, there, back in (
        ("A", seqA, samples_a, FORWARD, BACKWARD),
        ("B", seqB, samples_b, BACKWARD, FORWARD),
    ):
        for e in samples:
            again = ref_induced(seqA, seqB, cert, back, ref_induced(seqA, seqB, cert, there, e))
            verdict = ref_equal_at(seq, again, e, horizon)
            checked += 1
            if not verdict.is_yes:
                failures.append(f"{name} sample {e} round-trips to {again}: {verdict}")
    return failures, checked


def some_pair(rng, depth, mode):
    """``(A, B, certificate)`` from random interleaving maps between
    stages of rank 0..3, valid by construction."""
    nonneg = mode == "simplicial"
    ranks_a = [rng.randint(0, 3) for _ in range(depth)]
    ranks_b = [rng.randint(0, 3) for _ in range(depth)]
    f = [random_matrix(rng, ranks_b[n], ranks_a[n], 2, nonneg) for n in range(depth)]
    g = [random_matrix(rng, ranks_a[n + 1], ranks_b[n], 2, nonneg) for n in range(depth - 1)]
    seqA = SequenceDiagram(mode, ranks_a, [g[n] * f[n] for n in range(depth - 1)])
    seqB = SequenceDiagram(mode, ranks_b, [f[n + 1] * g[n] for n in range(depth - 1)])
    cert = ConfluenceCertificate(range(1, depth + 1), range(1, depth + 1), f, g)
    return seqA, seqB, cert


# -- (a) push is transition(...).apply(...) ----------------------------------


class TestPushIsTransitionApply:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_stage_pair(self, seed):
        rng = random.Random(f"push:{seed}")
        for mode in ("plain", "simplicial"):
            for periodic in (False, True):
                seq = some_diagram(rng, mode, periodic, mono=rng.random() < 0.3)
                for i in range(1, LAST + 1):
                    vec = vector(rng, seq.rank_at(i) if seq.has_stage(i) else rng.randint(0, 3))
                    for j in range(i, LAST + 1):
                        got = outcome(lambda: push(seq, i, j, vec))
                        assert got == outcome(lambda: transition(seq, i, j).apply(vec)), (seq, i, j, vec)

    def test_rank_zero_stages_push_empty_vectors(self):
        seq = SequenceDiagram("plain", [2, 0, 1], [Matrix.zero(0, 2), Matrix.zero(1, 0)])
        assert push(seq, 1, 2, (5, 7)) == ()
        assert push(seq, 1, 3, (5, 7)) == (0,)
        assert push(seq, 2, 2, ()) == ()

    @pytest.mark.parametrize(
        "seq, i, j, vec",
        [
            # bad stages
            (some_diagram(random.Random(1), periodic=True), 0, 3, ()),
            (some_diagram(random.Random(1), periodic=True), 5, 2, ()),
            (some_diagram(random.Random(1), periodic=True), -1, -1, ()),
            # bad lengths, with and without a step to take
            (SequenceDiagram("plain", [1, 2, 2], [Matrix([[1], [2]]), Matrix([[1, 1], [0, 1]])]), 1, 3, (1, 2)),
            (SequenceDiagram("plain", [1, 2, 2], [Matrix([[1], [2]]), Matrix([[1, 1], [0, 1]])]), 2, 2, (1,)),
            # a stage past the truncation and a bad length: the truncation is reported
            (SequenceDiagram("plain", [1, 2, 2], [Matrix([[1], [2]]), Matrix([[1, 1], [0, 1]])]), 1, 5, (1, 2)),
            (SequenceDiagram("plain", [1, 2, 2], [Matrix([[1], [2]]), Matrix([[1, 1], [0, 1]])]), 4, 4, (1, 2, 3)),
            # a period not covered by the stored transitions
            (SequenceDiagram("plain", [1, 1], [Matrix([[2]])], False, (0, 3)), 1, 4, (1,)),
            # steps that do not compose, with a good and a bad length
            (SequenceDiagram("plain", [2, 2, 2], [Matrix([[1, 0], [0, 1]]), Matrix([[1, 0, 0]] * 3)]), 1, 3, (1, 2)),
            (SequenceDiagram("plain", [2, 2, 2], [Matrix([[1, 0], [0, 1]]), Matrix([[1, 0, 0]] * 3)]), 1, 3, (1,)),
        ],
    )
    def test_same_error_in_the_same_order(self, seq, i, j, vec):
        expected = outcome(lambda: transition(seq, i, j).apply(vec))
        assert expected[0] is ValueError
        assert outcome(lambda: push(seq, i, j, vec)) == expected


# -- (b) the queries and the induced maps against the reference -------------


class TestAgainstCompositeReference:
    def test_queries(self):
        rng = random.Random("queries")
        cases = 0
        for _ in range(60):
            mode = rng.choice(("plain", "simplicial"))
            seq = some_diagram(rng, mode, periodic=True, mono=rng.random() < 0.4)
            horizon = rng.randint(1, 12)
            last = max(horizon, 4)
            e1, e2 = element(rng, seq, last), element(rng, seq, last)
            if rng.random() < 0.5 and e1.stage <= e2.stage:  # often equal by construction
                e2 = ColimitElement(e2.stage, moved(seq, e1, e2.stage))
            assert equal_at(seq, e1, e2, horizon) == ref_equal_at(seq, e1, e2, horizon)

            i = rng.randint(1, 4)
            j = i + rng.randint(0, 3)
            p = transition(seq, i, j)
            if rng.random() < 0.5 and p.rows and p.cols:  # often unequal by one entry
                rows = [list(row) for row in p.entries]
                rows[rng.randrange(p.rows)][rng.randrange(p.cols)] += 1
                p = Matrix(rows)
            want = ref_eventual_equalizer(seq, i, j, p, max(horizon, j))
            assert eventual_equalizer(seq, i, j, p, max(horizon, j)) == want

            images = [element(rng, seq, last) for _ in range(rng.randint(1, 3))]
            assert factor_through_stage(seq, images, horizon) == ref_factor(seq, images, horizon)

            e = element(rng, seq, last)
            m = rng.choice((1, 2, 3, 4, 6))
            want = ref_first(seq, e, horizon, lambda x: all(v % m == 0 for v in x))
            assert divisible(seq, e, m, horizon) == want
            if seq.simplicial:
                want = ref_first(seq, e, horizon, lambda x: all(v >= 0 for v in x))
                assert cone_member(seq, e, horizon) == want
            j = e.stage + rng.randint(0, 6)
            assert pushforward(seq, e, j) == ColimitElement(j, moved(seq, e, j))
            cases += 7
        assert cases >= 300

    def test_cone_on_a_rank_zero_stage(self):
        seq = SequenceDiagram("simplicial", [0, 1, 1], [Matrix.zero(1, 0), Matrix([[2]])], False, (1, 1))
        for horizon in (1, 3, 8):
            e = ColimitElement(1, ())
            assert cone_member(seq, e, horizon) == ref_first(seq, e, horizon, lambda x: all(v >= 0 for v in x))
            assert cone_member(seq, e, horizon) == Trilean.yes(1)
            assert divisible(seq, e, 5, horizon) == Trilean.yes(1)

    def test_induced_maps_and_round_trips(self):
        rng = random.Random("induced")
        cases = 0
        for _ in range(60):
            depth = rng.randint(2, 5)
            seqA, seqB, cert = some_pair(rng, depth, rng.choice(("plain", "simplicial")))
            for direction, seq, last in ((FORWARD, seqA, depth), (BACKWARD, seqB, depth - 1)):
                for _ in range(3):
                    e = element(rng, seq, last)
                    assert induced_map(seqA, seqB, cert, direction, e) == ref_induced(seqA, seqB, cert, direction, e)
                    cases += 1
            samples_a = [element(rng, seqA, depth - 1) for _ in range(2)]
            samples_b = [element(rng, seqB, depth - 1) for _ in range(2)]
            horizon = rng.randint(1, depth)
            report = roundtrip_check(seqA, seqB, cert, samples_a, samples_b, horizon)
            assert (report.failures, report.checked) == ref_roundtrip(seqA, seqB, cert, samples_a, samples_b, horizon)
            cases += 1
        assert cases >= 300


class TestMonoNoIsSound:
    """A ``no`` claims that the two sides never agree.  ``ref_equal_at``
    and ``ref_eventual_equalizer`` answer mono diagrams by the same rule
    as the queries, so here every ``no`` is checked through composites
    at each stage from the start to 20 stages past it, or to the
    truncation."""

    REACH = 20

    def test_no_answers_disagree_at_every_later_stage(self):
        rng = random.Random("mono no")
        nos = [0, 0]
        for _ in range(300):
            mode = rng.choice(("plain", "simplicial"))
            seq = some_diagram(rng, mode, periodic=rng.random() < 0.5, mono=True)
            last = 8 if seq.period else seq.length
            e1, e2 = element(rng, seq, last), element(rng, seq, last)
            if rng.random() < 0.3 and e1.stage <= e2.stage:
                e2 = ColimitElement(e2.stage, moved(seq, e1, e2.stage))
            start = max(e1.stage, e2.stage)
            horizon = rng.randint(start, last)  # below the start the answer is unknown
            if equal_at(seq, e1, e2, horizon) == Trilean.no():
                nos[0] += 1
                for k in filter(seq.has_stage, range(start, start + self.REACH + 1)):
                    assert moved(seq, e1, k) != moved(seq, e2, k), (seq, e1, e2, k)

            i = rng.randint(1, last)
            j = rng.randint(i, last)
            p = transition(seq, i, j)
            if rng.random() < 0.7:
                rows = [list(row) for row in p.entries]
                rows[rng.randrange(p.rows)][rng.randrange(p.cols)] += rng.choice((-1, 1))
                p = Matrix(rows)
            if eventual_equalizer(seq, i, j, p, rng.randint(j, last)) == Trilean.no():
                nos[1] += 1
                for i0 in filter(seq.has_stage, range(j, j + self.REACH + 1)):
                    assert transition(seq, j, i0) * p != transition(seq, i, i0), (seq, i, j, p, i0)
        assert min(nos) >= 150, nos


# -- (c) the element-moving queries build no matrix -------------------------


class TestNoMatrixBuilt:
    def test_queries_and_induced_maps_multiply_no_matrices(self, monkeypatch):
        rng = random.Random("guard")
        plain = [some_diagram(rng, "plain", periodic=True, mono=mono) for mono in (False, True) for _ in range(5)]
        simplicial = [some_diagram(rng, "simplicial", periodic=True) for _ in range(5)]
        pairs = [some_pair(rng, rng.randint(2, 5), "plain") for _ in range(10)]

        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(Matrix, "__mul__", refuse)
        monkeypatch.setattr(Matrix, "identity", refuse)
        for seq in plain + simplicial:
            for _ in range(10):
                e1, e2 = element(rng, seq, 6), element(rng, seq, 6)
                equal_at(seq, e1, e2, rng.randint(1, 12))
                equal_at(seq, e1, e1, rng.randint(1, 12))
                divisible(seq, e1, rng.randint(1, 6), rng.randint(1, 12))
                if seq.simplicial:
                    cone_member(seq, e1, rng.randint(1, 12))
        for seqA, seqB, cert in pairs:
            for e in (element(rng, seqA, cert.depth), ColimitElement(1, vector(rng, seqA.rank_at(1)))):
                induced_map(seqA, seqB, cert, FORWARD, e)
            induced_map(seqA, seqB, cert, BACKWARD, element(rng, seqB, cert.depth - 1))


class TestRanksThatDisagreeWithShapes:
    """A diagram whose transition shapes disagree with its ranks, which
    ``validate`` rejects, has no stages: no vector is moved in it, so no
    answer is made up from vectors of two lengths at one stage."""

    SEQ = SequenceDiagram("plain", [1, 2, 2], [Matrix([[1]]), Matrix([[1, 0], [0, 1]])])

    def test_equal_at_refuses(self):
        assert not validate(self.SEQ).ok
        with pytest.raises(ValueError, match="^invalid diagram: shape mismatch at transition 1: got 1x1, expected 2x1$"):
            equal_at(self.SEQ, ColimitElement(1, (1,)), ColimitElement(2, (1, 0)), 3)

    def test_eventual_equalizer_refuses(self):
        with pytest.raises(ValueError, match="^invalid diagram: shape mismatch at transition 1: got 1x1, expected 2x1$"):
            eventual_equalizer(self.SEQ, 1, 2, Matrix([[1], [0]]), 3)


# -- (d) walks that stop at a proven stage answer as walks to the horizon ----


def dying(rng, seq, stage):
    """A vector at ``stage`` that a composite up to 15 stages on kills, so
    that a witness often lands late; the zero vector when none does."""
    kernel = kernel_basis(transition(seq, stage, stage + rng.randint(1, 15)))
    coeffs = vector(rng, kernel.cols)
    return tuple(sum(c * x for c, x in zip(coeffs, row)) for row in kernel.entries)


class TestBarrenStage:
    """On a periodic diagram ``equal_at``, ``eventual_equalizer`` and
    ``divisible`` stop at the stage ``_barren`` reads off the period
    declaration, past which no witness first appears; the references walk
    every stage to the horizon, so they agree on every answer, witness
    stage and horizon."""

    def test_queries_agree_with_walks_to_the_horizon(self):
        rng = random.Random("barren")
        seen = dict.fromkeys(("rank 0", "simplicial", "mono", "stopped early", "yes past truncation"), 0)
        for _ in range(300):
            mode = rng.choice(("plain", "simplicial"))
            seq = some_diagram(rng, mode, periodic=True, mono=rng.random() < 0.2)
            seen["rank 0"] += 0 in seq.ranks
            seen["simplicial"] += seq.simplicial
            seen["mono"] += seq.mono_required
            horizon = rng.randint(1, 120)
            answers = []

            e1 = element(rng, seq, 6)
            if rng.random() < 0.3:
                e2 = element(rng, seq, 6)
            else:
                e2 = ColimitElement(e1.stage, tuple(map(sum, zip(e1.vec, dying(rng, seq, e1.stage)))))
            answers.append(equal_at(seq, e1, e2, horizon))
            assert answers[-1] == ref_equal_at(seq, e1, e2, horizon), (seq, e1, e2, horizon)
            barrens = [colimit._barren(seq, max(e1.stage, e2.stage), 1)]

            i = rng.randint(1, 4)
            j = i + rng.randint(0, 3)
            a_ij = transition(seq, i, j)
            cols = [tuple(map(sum, zip(a_ij.col(c), dying(rng, seq, j)))) for c in range(a_ij.cols)]
            p = Matrix.from_columns(cols, rows=a_ij.rows)
            h = max(horizon, j)
            answers.append(eventual_equalizer(seq, i, j, p, h))
            assert answers[-1] == ref_eventual_equalizer(seq, i, j, p, h), (seq, i, j, p, h)
            barrens.append(colimit._barren(seq, j, 1))

            m = rng.randint(1, 12)
            e = element(rng, seq, 6)
            if rng.random() < 0.5:
                e = ColimitElement(e.stage, tuple(x + m * y for x, y in zip(dying(rng, seq, e.stage), e.vec)))
            answers.append(divisible(seq, e, m, horizon))
            assert answers[-1] == ref_first(seq, e, horizon, lambda x: all(v % m == 0 for v in x)), (seq, e, m, horizon)
            barrens.append(colimit._barren(seq, e.stage, m.bit_length() - 1))

            for answer, barren in zip(answers, barrens):
                seen["stopped early"] += answer.kind == "unknown" and answer.stage > barren
                seen["yes past truncation"] += answer.is_yes and answer.stage > seq.length
        assert min(seen.values()) >= 30, seen
