import ast
import itertools
from pathlib import Path

import pytest

import colim.colimit
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
from colim.diagrams import SequenceDiagram, transition
from colim.matrices import Matrix

from conftest import random_diagram, rank1

FIB = SequenceDiagram("simplicial", [2, 2], [Matrix([[1, 1], [1, 0]])], False, (0, 1))
X2 = rank1([2, 2], period=(0, 1))


class TestEqualAt:
    def test_doubling_identification(self):
        assert equal_at(X2, ColimitElement(1, [1]), ColimitElement(2, [2]), 3) == Trilean.yes(2)

    def test_mono_distinct_at_same_stage(self):
        assert equal_at(X2, ColimitElement(1, [1]), ColimitElement(1, [2]), 3) == Trilean.no()

    def test_zero_map_identifies(self):
        seq = SequenceDiagram("plain", [1, 1], [Matrix([[0]])])
        assert equal_at(seq, ColimitElement(1, [1]), ColimitElement(1, [0]), 2) == Trilean.yes(2)

    def test_unknown_without_injectivity(self):
        seq = rank1([2, 2], mono=False)
        got = equal_at(seq, ColimitElement(1, [1]), ColimitElement(1, [0]), 3)
        assert got == Trilean.unknown(3)

    def test_pushforward_coherence(self, rng):
        for _ in range(25):
            seq = random_diagram(rng, stages=4)
            i = rng.randint(1, 4)
            j = rng.randint(i, 4)
            x = [rng.randint(-3, 3) for _ in range(seq.ranks[i - 1])]
            e = ColimitElement(i, x)
            assert equal_at(seq, e, pushforward(seq, e, j), j).is_yes

    def test_symmetry(self, rng):
        for _ in range(25):
            seq = random_diagram(rng, stages=4)
            e1 = ColimitElement(1, [rng.randint(-2, 2) for _ in range(seq.ranks[0])])
            e2 = ColimitElement(2, [rng.randint(-2, 2) for _ in range(seq.ranks[1])])
            assert equal_at(seq, e1, e2, 4) == equal_at(seq, e2, e1, 4)

    def test_pushforward_past_stored_stages(self):
        # X2 stores stages 1..3; the period (0, 1) supplies the rest
        assert pushforward(X2, ColimitElement(1, (1,)), 5) == ColimitElement(5, (16,))
        assert pushforward(FIB, ColimitElement(2, (1, 0)), 4) == ColimitElement(4, (2, 1))

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            equal_at(X2, ColimitElement(1, [1, 2]), ColimitElement(1, [1]), 2)


class TestEventualEqualizer:
    def test_transition_itself(self):
        assert eventual_equalizer(X2, 1, 2, transition(X2, 1, 2), 5) == Trilean.yes(2)

    def test_zero_transitions_equalize(self):
        seq = SequenceDiagram("plain", [1, 1, 1], [Matrix([[0]]), Matrix([[0]])])
        assert eventual_equalizer(seq, 1, 1, Matrix([[3]]), 3) == Trilean.yes(2)

    def test_mono_definitive_no(self):
        assert eventual_equalizer(X2, 1, 1, Matrix([[5]]), 10) == Trilean.no()

    def test_horizon_below_the_later_stage_is_unknown(self):
        # the least i0 is sought in [j, horizon], which is empty here
        assert eventual_equalizer(X2, 1, 5, Matrix([[16]]), 3) == Trilean.unknown(3)
        assert eventual_equalizer(X2, 1, 5, Matrix([[15]]), 4) == Trilean.unknown(4)
        seq = SequenceDiagram("plain", [1, 1, 1], [Matrix([[0]]), Matrix([[0]])])
        assert eventual_equalizer(seq, 1, 2, Matrix([[0]]), 1) == Trilean.unknown(1)
        assert eventual_equalizer(X2, 1, 5, Matrix([[16]]), 5) == Trilean.yes(5)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            eventual_equalizer(X2, 1, 2, Matrix([[1, 2]]), 5)

    def test_yes_witness_rechecks(self, rng):
        for _ in range(25):
            seq = random_diagram(rng, stages=5, mono=True)
            i = rng.randint(1, 3)
            j = rng.randint(i, 4)
            got = eventual_equalizer(seq, i, j, transition(seq, i, j), 5)
            assert got == Trilean.yes(j)
            assert transition(seq, j, got.stage) * transition(seq, i, j) == transition(seq, i, got.stage)


class TestFactorThroughStage:
    def test_already_at_common_stage(self):
        seq = rank1([2, 2, 2], period=(0, 1))
        got = factor_through_stage(seq, [ColimitElement(3, [5])], 4)
        assert got == (3, Matrix([[5]]))

    def test_pushes_to_common_stage(self):
        got = factor_through_stage(X2, [ColimitElement(2, [1]), ColimitElement(3, [4])], 5)
        assert got == (3, Matrix([[2, 4]]))

    def test_simplicial_waits_for_nonnegative(self):
        got = factor_through_stage(FIB, [ColimitElement(1, [1, -1])], 5)
        assert got == (2, Matrix([[0], [1]]))

    def test_exhausted_returns_none(self):
        x2s = SequenceDiagram("simplicial", [1, 1], [Matrix([[2]])], False, (0, 1))
        assert factor_through_stage(x2s, [ColimitElement(1, [-1])], 6) is None

    def test_result_reproduces_images(self, rng):
        for _ in range(25):
            seq = random_diagram(rng, stages=4)
            images = [
                ColimitElement(s, [rng.randint(-3, 3) for _ in range(seq.ranks[s - 1])])
                for s in (rng.randint(1, 4), rng.randint(1, 4))
            ]
            i0, g = factor_through_stage(seq, images, 4)
            for k, e in enumerate(images):
                assert equal_at(seq, ColimitElement(i0, g.col(k)), e, 4).is_yes


class TestStartPastTheHorizon:
    """A query whose start stage is past the horizon walks nothing: it
    neither pushes its elements to the start stage nor builds ``a_ij``.
    Its only steps resolve the ranks of stage 12 and of the far stage,
    which x2 covers by its period; a walk from stage 1 to 10**7 would
    take ten million."""

    FAR = 10**7

    @pytest.mark.parametrize("query, answer", [
        (lambda far: equal_at(X2, ColimitElement(far, [1]), ColimitElement(1, [1]), 12), Trilean.unknown(12)),
        (lambda far: eventual_equalizer(X2, 1, far, Matrix([[1]]), 12), Trilean.unknown(12)),
        (lambda far: factor_through_stage(X2, [ColimitElement(far, [1]), ColimitElement(1, [1])], 12), None),
    ], ids=["equal_at", "eventual_equalizer", "factor_through_stage"])
    def test_no_step_is_taken(self, monkeypatch, query, answer):
        calls = []
        step = SequenceDiagram._step
        monkeypatch.setattr(SequenceDiagram, "_step", lambda seq, i: calls.append(i) or step(seq, i))
        assert query(self.FAR) == answer
        assert set(calls) <= {11, self.FAR - 1}


class TestConeAndDivisible:
    def test_cone_examples(self):
        x2s = SequenceDiagram("simplicial", [1, 1], [Matrix([[2]])], False, (0, 1))
        assert cone_member(x2s, ColimitElement(1, [1]), 5) == Trilean.yes(1)
        assert cone_member(x2s, ColimitElement(1, [-1]), 5) == Trilean.unknown(5)
        assert cone_member(FIB, ColimitElement(1, [1, -1]), 5) == Trilean.yes(2)

    def test_cone_requires_simplicial(self):
        with pytest.raises(ValueError):
            cone_member(X2, ColimitElement(1, [1]), 3)

    def test_divisible_examples(self):
        assert divisible(X2, ColimitElement(1, [7]), 1, 5) == Trilean.yes(1)
        assert divisible(X2, ColimitElement(1, [1]), 2, 5) == Trilean.yes(2)
        x3 = rank1([3, 3], period=(0, 1))
        assert divisible(x3, ColimitElement(1, [1]), 2, 10) == Trilean.unknown(10)

    def test_divisible_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            divisible(X2, ColimitElement(1, [1]), 0, 5)

    @pytest.mark.parametrize("call, message", [
        (lambda: ColimitElement(0, (1,)), "stages are 1-based"),
        (lambda: eventual_equalizer(X2, 2, 1, Matrix([[1]]), 5), "need 1 <= i <= j"),
        (lambda: factor_through_stage(X2, [], 5), "need at least one image"),
    ], ids=["stage_0", "equalizer_i_after_j", "no_images"])
    def test_bad_query_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    def test_divisibility_witness_quotient(self):
        got = divisible(X2, ColimitElement(1, [3]), 4, 6)
        assert got == Trilean.yes(3)  # 3 * 2^2 = 12 = 4 * 3


class TestEveryAnswerIsBuiltInFirst:
    """``colimit._first`` builds every ``Trilean`` a query returns, and it
    and ``factor_through_stage`` are the only callers of the walk, so
    when a query may answer ``yes``, ``no`` or ``unknown`` is decided in
    one function."""

    PATH = Path(colim.colimit.__file__)
    WALKERS = {"_first", "factor_through_stage"}

    @staticmethod
    def calls(path):
        """``(function, callee)`` of each call of ``Trilean``, its
        ``yes`` / ``no`` / ``unknown`` and ``_walk`` in ``path``."""
        found = []

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id in ("Trilean", "_walk"):
                    found.append((where, f.id))
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "Trilean":
                    found.append((where, f"Trilean.{f.attr}"))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(), str(path)), None)
        return found

    def test_answers_are_built_in_first_only(self):
        bad = [
            (f, callee)
            for f, callee in self.calls(self.PATH)
            if (callee.startswith("Trilean.") and f != "_first")
            or (callee == "Trilean" and f not in ("yes", "no", "unknown"))
        ]
        assert bad == []

    def test_only_first_and_factor_walk(self):
        bad = [(f, callee) for f, callee in self.calls(self.PATH) if callee == "_walk" and f not in self.WALKERS]
        assert bad == []

    def test_the_guard_sees_every_call(self):
        found = set(self.calls(self.PATH))
        assert {("_first", f"Trilean.{kind}") for kind in ("yes", "no", "unknown")} <= found
        assert {(f, "_walk") for f in self.WALKERS} <= found
        assert {(kind, "Trilean") for kind in ("yes", "no", "unknown")} <= found


def shift(r):
    """The nilpotent ``r x r`` shift ``e_1 -> 0``, ``e_i -> e_{i-1}``:
    ``e_r`` dies after exactly ``r`` applications."""
    return Matrix([[int(c == i + 1) for c in range(r)] for i in range(r)], cols=r)


def two(r):
    """The companion matrix of ``x^r - 2``, ``e_i -> e_{i+1}`` and
    ``e_r -> 2 e_1``: ``e_1`` is 0 mod ``2^k`` after exactly ``r k``
    applications, and no sooner."""
    return Matrix([[2 * (c == r - 1) if i == 0 else int(c == i - 1) for c in range(r)] for i in range(r)], cols=r)


def inclusion(rows, cols):
    """``e_i -> e_i``, padding with zero rows or dropping coordinates."""
    return Matrix([[int(c == i) for c in range(cols)] for i in range(rows)], cols=cols)


def unit(r, i):
    return tuple(int(c == i) for c in range(r))


def periodic(ranks, transitions, prefix=0):
    return SequenceDiagram("plain", ranks, transitions, False, (prefix, len(transitions) - prefix))


class TestWitnessOnTheBarrenStage:
    """Cases whose first witness lands exactly on the stage that
    ``_barren`` reads off the period declaration, so a walk that stopped
    one stage sooner would miss it: each answers ``yes`` there at every
    horizon from it on, and ``unknown`` below it."""

    @staticmethod
    def check(query, witness, barren):
        assert barren == witness
        for horizon in (witness, witness + 1, 10**6):
            assert query(horizon) == Trilean.yes(witness)
        assert query(witness - 1) == Trilean.unknown(witness - 1)

    @staticmethod
    def nilpotent(r):
        """``name: (diagram, stage where the last unit vector dies)``, from
        stage 1; one period composes to the shift on a stage of rank ``r``."""
        n = shift(r)
        rise_and_fall = [inclusion(r + 1, r), n * inclusion(r, r + 1)]
        return {
            "L=1": (periodic([r, r], [n]), 1 + r),
            "L=2": (periodic([r, r, r], [Matrix.identity(r), n]), 1 + 2 * r),
            "rank rises and falls": (periodic([r, r + 1, r], rise_and_fall), 1 + 2 * r),
            "after a prefix": (
                periodic([1, r, r + 1, r], [Matrix.from_columns([unit(r, r - 1)], rows=r)] + rise_and_fall, 1),
                2 + 2 * r,
            ),
        }

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_equal_on_nilpotent_periods(self, r):
        for seq, dies in self.nilpotent(r).values():
            rank = seq.rank_at(1)
            e, zero = ColimitElement(1, unit(rank, rank - 1)), ColimitElement(1, (0,) * rank)
            self.check(lambda h: equal_at(seq, e, zero, h), dies, colim.colimit._barren(seq, 1, 1))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_eventual_equalizer_on_nilpotent_periods(self, r):
        for seq, dies in self.nilpotent(r).values():
            rank = seq.rank_at(1)
            # p - a_11 has the last unit vector as its first column
            p = Matrix([[int(row == c) + int((row, c) == (rank - 1, 0)) for c in range(rank)] for row in range(rank)])
            self.check(lambda h: eventual_equalizer(seq, 1, 1, p, h), dies, colim.colimit._barren(seq, 1, 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_divisible_by_powers_of_two(self, r, k):
        e = ColimitElement(1, unit(r, 0))
        for seq, witness in (
            (periodic([r, r], [two(r)]), 1 + r * k),
            (periodic([r, r, r], [Matrix.identity(r), two(r)]), 1 + 2 * r * k),
        ):
            barren = colim.colimit._barren(seq, 1, k)
            self.check(lambda h: divisible(seq, e, 2**k, h), witness, barren)

    def test_divisible_on_a_jordan_block(self):
        jordan = periodic([2, 2], [Matrix([[2, 1], [0, 2]])])
        e = ColimitElement(1, (0, 1))  # (1, 2) after one step, (4, 4) after two
        self.check(lambda h: divisible(jordan, e, 2, h), 3, colim.colimit._barren(jordan, 1, 1))
        for k in range(2, 7):  # the chain stops before its length bound here
            assert divisible(jordan, e, 2**k, 10**6) == Trilean.yes(2 + k - (k % 2 == 0))


def simplicial_period(rows):
    return SequenceDiagram("simplicial", [len(rows)] * 2, [Matrix(rows)], False, (0, 1))


class TestNonpositiveWalksStopAtTheBarrenStage:
    """Nonnegative steps keep a nonpositive vector nonpositive, so on a
    simplicial periodic diagram ``cone_member`` and ``factor_through_stage``
    stop at ``_barren(seq, k, 1)`` once a walked vector is nonpositive and
    nonzero at stage ``k``; a vector that stays mixed in sign is walked
    to the horizon."""

    DIAG21 = simplicial_period([[2, 0], [0, 1]])

    def test_factor_column_that_reaches_zero_drops_out(self):
        # the second column is zero from stage 2 on, before its deadline at
        # stage 4; the first turns nonnegative at stage 6
        seq = simplicial_period([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
        images = [ColimitElement(1, (-5, 1, 0)), ColimitElement(1, (0, 0, -1))]
        assert colim.colimit._barren(seq, 1, 1) == 4
        got = factor_through_stage(seq, images, 10)
        assert got == (6, Matrix.from_columns([(0, 1, 0), (0, 0, 0)], rows=3))

    def test_cone_witness_on_the_barren_stage(self):
        seq = simplicial_period([[0, 1], [0, 0]])
        e = ColimitElement(1, (-1, -1))  # (-1, 0) after one step, 0 after two
        assert colim.colimit._barren(seq, 1, 1) == 3
        for horizon in (3, 4, 10**6):
            assert cone_member(seq, e, horizon) == Trilean.yes(3)
        assert cone_member(seq, e, 2) == Trilean.unknown(2)

    def test_fib_probe_cost_does_not_grow_with_the_horizon(self, count_steps):
        # (-1, 1) -> (0, -1) at stage 2, which never dies: the walk stops at
        # _barren(FIB, 2, 1) = 4, and one more step resolves the horizon's rank
        e = ColimitElement(1, (-1, 1))
        for horizon in (10, 10**6):
            assert count_steps(lambda: cone_member(FIB, e, horizon)) == (Trilean.unknown(horizon), 4)

    def test_barren_stage_is_the_least_over_the_period(self, count_steps):
        # Z^3 -> Z -> Z^3: stage 1's bound is 1 + 3 * 2 = 7, stage 2's is
        # 2 + 1 * 2 = 4; (-1, 0, 0) is (-1) at stage 2 and never dies, so the
        # walk stops at stage 4, and one more step resolves the horizon's rank
        seq = SequenceDiagram("simplicial", [3, 1, 3], [Matrix([[1, 1, 1]]), Matrix([[1], [1], [1]])], False, (0, 2))
        assert [colim.colimit._barren(seq, k, 1) for k in range(1, 6)] == [4, 4, 6, 6, 8]
        assert colim.colimit._barren(seq, 1, 3) == 8  # 2 + 1 * 3 * 2, not 1 + 3 * 3 * 2
        e = ColimitElement(1, (-1, 0, 0))
        answer, steps = count_steps(lambda: cone_member(seq, e, 10**6))
        assert answer == Trilean.unknown(10**6) and steps <= 4

    def test_barren_stage_is_the_least_bound_of_its_definition(self, rng):
        for _ in range(300):
            prefix, length = rng.randint(0, 3), rng.randint(1, 4)
            ranks = [rng.randint(0, 3) for _ in range(prefix + length)]
            ranks.append(ranks[prefix])
            steps = [Matrix.zero(ranks[t + 1], ranks[t]) for t in range(len(ranks) - 1)]
            seq = SequenceDiagram("plain", ranks, steps, False, (prefix, length))
            for start, links in itertools.product(range(1, 10), range(4)):
                s = max(start, prefix + 1)
                least = min(t + seq.rank_at(t) * links * length for t in range(s, s + length))
                assert colim.colimit._barren(seq, start, links) == least

    def test_mixed_sign_walk_goes_to_the_horizon(self, count_steps):
        e = ColimitElement(1, (-1, 1))
        assert count_steps(lambda: cone_member(self.DIAG21, e, 50)) == (Trilean.unknown(50), 50)
        # beside it, (0, -1) sinks at stage 1 and is still nonzero at its deadline 3
        images = [e, ColimitElement(1, (0, -1))]
        assert count_steps(lambda: factor_through_stage(self.DIAG21, images, 50)) == (None, 3)
        assert count_steps(lambda: factor_through_stage(self.DIAG21, images[:1], 50)) == (None, 50)
