import pytest

from colim import diagrams
from colim.colimit import (
    ColimitElement,
    Trilean,
    cone_member,
    divisible,
    equal_at,
    eventual_equalizer,
    factor_through_stage,
)
from colim.diagrams import SequenceDiagram, transition, validate
from colim.matrices import Matrix, is_injective, kernel_basis

from conftest import random_diagram, random_matrix, rank1


class TestValidate:
    def test_clean_diagram(self):
        assert validate(rank1([2, 3])).ok

    def test_negative_entry_in_simplicial(self):
        seq = SequenceDiagram("simplicial", [1, 1], [Matrix([[-1]])])
        assert "negative entry at transition 1" in validate(seq).violations

    def test_non_injective_transition(self):
        seq = SequenceDiagram("plain", [1, 1], [Matrix([[0]])], mono_required=True)
        assert "non-injective transition 1" in validate(seq).violations

    def test_shape_mismatch(self):
        seq = SequenceDiagram("plain", [1, 2], [Matrix([[1]])])
        assert any("shape mismatch at transition 1" in v for v in validate(seq).violations)

    def test_transition_count(self):
        seq = SequenceDiagram("plain", [1, 1, 1], [Matrix([[2]])])
        assert not validate(seq).ok

    def test_period_consistency(self):
        seq = rank1([2, 3], period=(0, 1))
        assert any("breaks the declared period" in v for v in validate(seq).violations)
        assert validate(rank1([2, 2], period=(0, 1))).ok

    def test_period_must_close_on_ranks(self):
        # stage prefix + length + 1 repeats stage prefix + 1, so their ranks agree
        for ranks, shapes, period in [
            ([1, 2], [(2, 1)], (0, 1)),
            ([2, 1, 3], [(1, 2), (3, 1)], (0, 2)),
            ([1, 2, 3], [(2, 1), (3, 2)], (1, 1)),
        ]:
            seq = SequenceDiagram("plain", ranks, [Matrix.zero(*s) for s in shapes], False, period)
            report = validate(seq)
            assert [v for v in report.violations if v.startswith("period does not close")] == [
                f"period does not close: transition {sum(period)} ends at rank {ranks[-1]}, "
                f"transition {period[0] + 1} starts at rank {ranks[period[0]]}"
            ]
        closing = SequenceDiagram("plain", [1, 2, 2], [Matrix([[1], [1]]), Matrix.identity(2)], False, (1, 1))
        assert validate(closing).ok

    def test_checks_run_once_per_diagram(self, monkeypatch):
        calls = []
        monkeypatch.setattr(diagrams, "is_injective", lambda m: calls.append(m) or True)
        seq = rank1([2, 3, 5])
        first = validate(seq)
        first.violations.append("changed by the caller")
        assert validate(seq).ok and validate(seq) is not first
        assert len(calls) == 3
        validate(rank1([2, 3, 5]))
        assert len(calls) == 6

    def test_rank_zero_stage_allowed(self):
        seq = SequenceDiagram("plain", [0, 1], [Matrix([[]], cols=0)], mono_required=True)
        assert validate(seq).ok


class TestTransition:
    def test_identity_at_equal_stages(self):
        seq = rank1([2, 3])
        assert transition(seq, 2, 2) == Matrix.identity(1)

    def test_scalar_product(self):
        assert transition(rank1([2, 3]), 1, 3) == Matrix([[6]])

    def test_two_by_two_product(self):
        seq = SequenceDiagram(
            "plain", [2, 2, 2], [Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])]
        )
        assert transition(seq, 1, 3) == Matrix([[1, 1], [1, 2]])

    def test_out_of_range(self):
        seq = rank1([2])
        with pytest.raises(ValueError):
            transition(seq, 1, 3)
        with pytest.raises(ValueError):
            transition(seq, 0, 1)

    def test_cocycle_law(self, rng):
        for _ in range(30):
            seq = random_diagram(rng, stages=5)
            for i in range(1, 6):
                for k in range(i, 6):
                    for j in range(k, 6):
                        assert transition(seq, i, j) == transition(seq, k, j) * transition(seq, i, k)

    def test_simplicial_composites_nonnegative(self, rng):
        for _ in range(20):
            seq = random_diagram(rng, stages=4, mode="simplicial")
            for i in range(1, 5):
                for j in range(i, 5):
                    assert transition(seq, i, j).is_nonnegative()

    def test_mono_composites_injective(self, rng):
        for _ in range(20):
            seq = random_diagram(rng, stages=4, mono=True)
            for i in range(1, 5):
                for j in range(i, 5):
                    assert is_injective(transition(seq, i, j))


def random_periodic(rng, mode="plain"):
    """Random valid periodic diagram: prefix 0-1, period 1-2, ranks 1-3,
    storing the covered transitions and sometimes one more period."""
    nonneg = mode == "simplicial"
    prefix, length = rng.randint(0, 1), rng.randint(1, 2)
    ranks = [rng.randint(1, 3) for _ in range(prefix + length)]
    ranks.append(ranks[prefix])  # the period closes up on stage prefix + 1
    transitions = [
        random_matrix(rng, ranks[t + 1], ranks[t], 2, nonneg) for t in range(prefix + length)
    ]
    if rng.random() < 0.5:
        transitions += transitions[prefix:]
        ranks += ranks[prefix + 1 :]
    return SequenceDiagram(mode, ranks, transitions, False, (prefix, length))


def cycled_steps(seq, count):
    """The first ``count`` one-step maps, cycling the stored period block."""
    prefix, length = seq.period
    block = list(seq.transitions[prefix : prefix + length])
    steps = list(seq.transitions[:prefix])
    while len(steps) < count:
        steps += block
    return steps[:count]


def equalizer_from_identity(seq, i, j, p, horizon):
    for i0 in range(j, horizon + 1):
        if transition(seq, j, i0) * p == transition(seq, i, i0):
            return Trilean.yes(i0)
    return Trilean.unknown(horizon)


def factor_from_identity(seq, images, horizon):
    for i0 in range(max(e.stage for e in images), horizon + 1):
        cols = [transition(seq, e.stage, i0).apply(e.vec) for e in images]
        if seq.simplicial and any(x < 0 for c in cols for x in c):
            continue
        return i0, Matrix.from_columns(cols, rows=seq.rank_at(i0))
    return None


class TestPeriodicTail:
    H = 12

    def test_transition_matches_cycled_steps(self, rng):
        for _ in range(30):
            seq = random_periodic(rng)
            assert validate(seq).ok
            steps = cycled_steps(seq, self.H - 1)
            assert [seq.rank_at(i) for i in range(2, self.H + 1)] == [m.rows for m in steps]
            for i in range(1, self.H + 1):
                want = Matrix.identity(seq.rank_at(i))
                for j in range(i, self.H + 1):
                    assert transition(seq, i, j) == want
                    if j < self.H:
                        want = steps[j - 1] * want

    def test_periodic_stages_past_truncation(self):
        seq = rank1([2], period=(0, 1))
        assert seq.has_stage(6) and seq.rank_at(6) == 1
        assert transition(seq, 2, 6) == Matrix([[16]])
        assert seq.period == (0, 1) and seq.length == 2

    def test_single_step_is_the_stored_matrix(self, rng):
        for _ in range(10):
            seq = random_periodic(rng)
            for i in range(1, self.H):
                step = transition(seq, i, i + 1)
                assert any(step is m for m in seq.transitions)

    def test_cocycle_law_past_truncation(self, rng):
        for _ in range(15):
            seq = random_periodic(rng)
            for i in range(1, self.H + 1):
                for k in range(i, self.H + 1):
                    for j in range(k, self.H + 1, 3):
                        assert transition(seq, i, j) == transition(seq, k, j) * transition(seq, i, k)

    def test_uncovered_period_raises_everywhere(self):
        seq = SequenceDiagram("simplicial", [1, 1], [Matrix([[2]])], False, (1, 1))
        assert not seq.has_stage(3)
        assert not seq.has_stage(2)  # an invalid diagram has no stages
        e = ColimitElement(1, [1])
        for call in (
            lambda: transition(seq, 1, 3),
            lambda: seq.rank_at(3),
            lambda: equal_at(seq, e, e, 3),
            lambda: eventual_equalizer(seq, 1, 1, Matrix([[1]]), 3),
            lambda: factor_through_stage(seq, [e], 3),
            lambda: cone_member(seq, e, 3),
            lambda: divisible(seq, e, 2, 3),
        ):
            with pytest.raises(ValueError, match=r"^invalid diagram: period declaration needs transitions up to 2, only 1 stored$"):
                call()

    def test_non_periodic_stops_at_truncation(self):
        seq = rank1([2, 3])
        assert seq.has_stage(3) and not seq.has_stage(4) and not seq.has_stage(0)
        with pytest.raises(ValueError):
            seq.rank_at(4)
        with pytest.raises(ValueError):
            equal_at(seq, ColimitElement(1, [1]), ColimitElement(1, [1]), 4)

    def test_eventual_equalizer_matches_recomputation(self, rng):
        outcomes = set()
        for _ in range(40):
            seq = random_periodic(rng)
            i = rng.randint(1, 4)
            j = rng.randint(i, 6)
            horizon = rng.randint(j + 1, 40)
            p = transition(seq, i, j)
            kernel = kernel_basis(transition(seq, j, j + rng.randint(1, 3)))
            if kernel.cols and rng.random() < 0.5:
                # differs from a_ij by a map a later composite kills
                v = kernel.col(0)
                w = [rng.randint(-2, 2) for _ in range(p.cols)]
                p = Matrix([[p[r, c] + v[r] * w[c] for c in range(p.cols)] for r in range(p.rows)])
            elif rng.random() < 0.5:
                p = random_matrix(rng, p.rows, p.cols, 1)
            got = eventual_equalizer(seq, i, j, p, horizon)
            assert got == equalizer_from_identity(seq, i, j, p, horizon)
            outcomes.add((got.kind, got.stage == j))
        assert outcomes == {("yes", True), ("yes", False), ("unknown", False)}

    def test_factor_through_stage_matches_recomputation(self, rng):
        outcomes = set()
        for _ in range(30):
            seq = random_periodic(rng, mode="simplicial")
            horizon = rng.randint(1, 40)
            images = [
                ColimitElement(s, [rng.randint(-3, 2) for _ in range(seq.rank_at(s))])
                for s in (rng.randint(1, 5), rng.randint(1, 5))
            ]
            got = factor_through_stage(seq, images, horizon)
            assert got == factor_from_identity(seq, images, horizon)
            outcomes.add(got is None)
        assert outcomes == {True, False}
