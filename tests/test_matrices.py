import itertools
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colim import matrices
from colim.diagrams import SequenceDiagram, validate
from colim.matrices import (
    Matrix,
    _box,
    _echelon,
    _reduce,
    _substitute,
    is_injective,
    kernel_basis,
    rank,
    snf,
    solve_matrix_eq,
)

from conftest import random_matrix


def row(m, i):
    """Row ``i`` of ``m`` as a tuple."""
    return m.entries[i]


def max_abs(m):
    """Largest absolute value of an entry of ``m``, 0 when it has none."""
    return max((abs(x) for r in m.entries for x in r), default=0)


def bareiss_rank(m):
    """Rank over the rationals by fraction-free Gaussian elimination.

    Independent oracle: shares no code with the Smith normal form path.
    """
    a = [list(r) for r in m.entries]
    rows, cols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def bareiss_det(m):
    """Determinant by fraction-free (Bareiss) elimination.

    Independent oracle: shares no code with the library's echelon kernel.
    """
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), -1)
            if piv < 0:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def seeded_square(rng, n, deficient):
    """n x n matrix with entries in [-9, 9]; rank-deficient ones have
    base rows in [-4, 4] and their other rows are sums or differences of
    two base rows."""
    if not deficient:
        return Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], cols=n)
    return dependent_rows(rng, n, n, n - rng.randint(1, 2), 4)


def dependent_rows(rng, rows, cols, rank_, bound):
    """``rows x cols`` matrix of rank at most ``rank_``: ``rank_`` base
    rows with entries in ``[-bound, bound]``, the others sums or
    differences of two of them, shuffled."""
    base = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank_)]
    out = base + [
        [x + sign * y for x, y in zip(rng.choice(base), rng.choice(base))]
        for sign in (rng.choice((1, -1)) for _ in range(rows - rank_))
    ]
    rng.shuffle(out)
    return Matrix(out, cols=cols)


SIZES = [(n, deficient) for n in range(4, 17) for deficient in (False, True)]
MAX_BITS = 1024


small_matrix = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c), min_size=r, max_size=r
        ).map(Matrix)
    )
)


def assert_snf_contract(m, s, u, v):
    assert u * m * v == s
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    diag = [s[i, i] for i in range(min(s.rows, s.cols))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0) <= (b == 0)
        if a:
            assert b % a == 0
    off = [s[i, j] for i in range(s.rows) for j in range(s.cols) if i != j]
    assert all(x == 0 for x in off)


class TestSnf:
    def test_identity(self):
        m = Matrix.identity(2)
        s, u, v = snf(m)
        assert s == m and u == m and v == m

    def test_diag_2_3(self):
        s, u, v = snf(Matrix([[2, 0], [0, 3]]))
        assert [s[0, 0], s[1, 1]] == [1, 6]

    def test_singular(self):
        m = Matrix([[4, 6], [6, 9]])
        s, u, v = snf(m)
        assert [s[0, 0], s[1, 1]] == [1, 0]
        assert u * m * v == s

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_reconstruction(self, m):
        s, u, v = snf(m)
        assert_snf_contract(m, s, u, v)

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_rank_matches_fraction_free_oracle(self, m):
        assert rank(m) == bareiss_rank(m)

    def test_zero_dimensions(self):
        m = Matrix([], cols=3)
        s, u, v = snf(m)
        assert u * m * v == s
        assert rank(m) == 0

    @pytest.mark.parametrize("n, deficient", SIZES)
    def test_large_contract_and_bit_bound(self, n, deficient):
        rng = random.Random(f"snf:{n}:{deficient}")
        for _ in range(3):
            m = seeded_square(rng, n, deficient)
            s, u, v = snf(m)
            assert_snf_contract(m, s, u, v)
            assert sum(1 for i in range(n) if s[i, i]) == bareiss_rank(m)
            assert max(abs(x).bit_length() for t in (s, u, v) for row in t.entries for x in row) <= MAX_BITS

    @pytest.mark.parametrize("n, deficient", SIZES)
    def test_large_rank_matches_fraction_free_oracle(self, n, deficient):
        rng = random.Random(f"rank:{n}:{deficient}")
        for _ in range(3):
            m = seeded_square(rng, n, deficient)
            assert rank(m) == bareiss_rank(m)

    @pytest.mark.parametrize(
        "diagonal, cols, want",
        [
            # 4 does not divide 3, but the first failing pair is (0, 2)
            (
                [2, 4, 3],
                3,
                (
                    [[1, 0, 0], [0, 2, 0], [0, 0, 12]],
                    [[1, 0, 1], [-3, 1, -2], [6, -3, 4]],
                    [[-1, -3, -6], [0, -1, -3], [1, 2, 4]],
                ),
            ),
            # the chain fails at (1, 2), the first failing pair is (0, 3)
            (
                [2, 6, 4, 3],
                4,
                (
                    [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 12]],
                    [[1, 0, 0, 1], [0, 1, 1, 0], [-3, -4, -3, -2], [0, 4, 3, 0]],
                    [[-1, 0, -3, -6], [0, -1, 0, 2], [0, 2, 0, -3], [1, 0, 2, 4]],
                ),
            ),
            # wide, with a zero column: the first failing pair is (0, 2)
            (
                [4, 8, 6],
                4,
                (
                    [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 24, 0]],
                    [[1, 0, 1], [-3, 1, -2], [6, -3, 4]],
                    [[-1, -3, -6, 0], [0, -1, -3, 0], [1, 2, 4, 0], [0, 0, 0, 1]],
                ),
            ),
        ],
    )
    def test_fold_pair_is_the_first_failing_pair(self, diagonal, cols, want):
        """On a diagonal whose first failing pair ``(i, j)``, in
        lexicographic order, is not two neighbours, ``snf`` folds that
        pair and gives exactly these transforms."""
        m = Matrix([[d if i == j else 0 for j in range(cols)] for i, d in enumerate(diagonal)], cols=cols)
        s, u, v = snf(m)
        assert_snf_contract(m, s, u, v)
        assert (s.to_lists(), u.to_lists(), v.to_lists()) == want


class TestKernel:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis(Matrix.identity(2)).cols == 0
        assert is_injective(Matrix.identity(2))

    def test_zero_map(self):
        kb = kernel_basis(Matrix([[0]]))
        assert kb.cols == 1 and kb.col(0) in ((1,), (-1,))

    def test_sum_map(self):
        kb = kernel_basis(Matrix([[1, 1]]))
        assert kb.cols == 1
        x, y = kb.col(0)
        assert x + y == 0 and x != 0

    def test_corank_two_basis_spans_the_whole_kernel(self):
        # back substituting the free columns of [2 1 1] gives (-1, 2, 0)
        # and (-1, 0, 2), which span a sublattice of index 2 that misses
        # (0, 1, -1); the basis spans the saturated kernel
        kb = kernel_basis(Matrix([[2, 1, 1]]))
        assert [kb.col(j) for j in range(kb.cols)] == [(1, 0, -2), (0, 1, -1)]
        s, _, _ = snf(Matrix.from_columns([(-1, 2, 0), (-1, 0, 2)]))
        assert (s[0, 0], s[1, 1]) == (1, 2)

    @settings(max_examples=100, deadline=None)
    @given(small_matrix)
    def test_columns_annihilate(self, m):
        kb = kernel_basis(m)
        for j in range(kb.cols):
            assert m.apply(kb.col(j)) == (0,) * m.rows
        assert m.cols - rank(m) == kb.cols

    @pytest.mark.parametrize("n, deficient", SIZES)
    def test_large_columns_annihilate(self, n, deficient):
        rng = random.Random(f"kernel:{n}:{deficient}")
        for _ in range(3):
            m = seeded_square(rng, n, deficient)
            kb = kernel_basis(m)
            assert kb.rows == n and kb.cols == n - bareiss_rank(m)
            for j in range(kb.cols):
                assert m.apply(kb.col(j)) == (0,) * n

    def test_validate_flags_exactly_the_singular_transitions(self):
        rng = random.Random("validate:8")
        transitions = [seeded_square(rng, 8, t % 4 == 1) for t in range(12)]
        singular = {t for t, m in enumerate(transitions, start=1) if bareiss_det(m) == 0}
        assert singular
        report = validate(SequenceDiagram("plain", [8] * 13, transitions, True, None))
        assert report.violations == [f"non-injective transition {t}" for t in sorted(singular)]


def kernel_oracle_inputs():
    """Seeded squares for n = 1..16, full-rank and deficient, then tall,
    wide, zero-row and zero-column shapes of both kinds."""
    rng = random.Random("kernel-oracle")
    out = []
    for n in range(1, 17):
        out.append(seeded_square(rng, n, False))
        # seeded_square drops the rank by one or two, which needs n > 2
        out.append(seeded_square(rng, n, True) if n > 2 else Matrix.zero(n, n))
    for rows, cols in [(5, 2), (6, 3), (9, 4), (2, 5), (3, 6), (4, 9)]:
        out.append(random_matrix(rng, rows, cols, 9))
        out.append(dependent_rows(rng, rows, cols, min(rows, cols) - 1, 4))
    out += [Matrix.zero(0, cols) for cols in range(4)]
    out += [Matrix.zero(rows, 0) for rows in range(1, 4)]
    return out


def maximal_minors_gcd(k):
    """gcd of the ``k.cols x k.cols`` minors of ``k`` (1 for no columns)."""
    g = 0
    for chosen in itertools.combinations(k.entries, k.cols):
        g = gcd(g, bareiss_det(Matrix(chosen, cols=k.cols)))
        if g == 1:
            break
    return g


class TestKernelAgainstOracles:
    """``kernel_basis`` against checks that share no code with
    :func:`_reduce`: the columns annihilate ``m``, there are as many as
    the fraction-free nullity, their maximal minors are coprime, so they
    span the whole kernel lattice, and their transpose is in reduced
    Hermite form, which pins the basis exactly."""

    @pytest.mark.parametrize("m", kernel_oracle_inputs(), ids=lambda m: f"{m.rows}x{m.cols}")
    def test_kernel_is_the_reduced_hermite_basis(self, m):
        k = kernel_basis(m)
        assert (k.rows, k.cols) == (m.cols, m.cols - bareiss_rank(m))
        assert m * k == Matrix.zero(m.rows, k.cols)
        assert maximal_minors_gcd(k) == 1
        rows = k.transpose().to_lists()
        assert_reduced_hermite(rows, [next(c for c, x in enumerate(r) if x) for r in rows])


def assert_rank_agrees(m):
    want = bareiss_rank(m)
    assert rank(m) == want
    assert is_injective(m) == (want == m.cols)


wide_matrix = st.integers(1, 7).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-(2**40), 2**40), min_size=c, max_size=c), min_size=r, max_size=r
        ).map(Matrix)
    )
)


class TestRankOverRationals:
    """``rank`` and ``is_injective`` eliminate over the rationals on
    primitive rows; the fraction-free Bareiss oracle shares no code with
    them."""

    @pytest.mark.parametrize("rows", range(1, 17))
    def test_tall_and_wide_shapes(self, rows):
        rng = random.Random(f"shapes:{rows}")
        for cols in range(1, 17):
            assert_rank_agrees(random_matrix(rng, rows, cols, 9))
            assert_rank_agrees(dependent_rows(rng, rows, cols, rng.randint(1, min(rows, cols)), 4))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_entries_up_to_2_70(self, n):
        rng = random.Random(f"big:{n}")
        for rows, cols in ((n, n), (n + 2, n), (n, n + 2)):
            assert_rank_agrees(random_matrix(rng, rows, cols, 2**70))
            assert_rank_agrees(dependent_rows(rng, rows, cols, max(1, min(rows, cols) - 1), 2**70))

    def test_interleaved_zero_and_repeated_rows(self):
        rng = random.Random("repeats")
        for n in range(1, 9):
            base = random_matrix(rng, n, n, 9).to_lists()
            rows = []
            for r in base:
                rows += [r, [0] * n, r, [-3 * x for x in r]]
            rng.shuffle(rows)
            m = Matrix(rows, cols=n)
            assert_rank_agrees(m)
            assert_rank_agrees(m.transpose())

    @pytest.mark.parametrize("n", range(6))
    def test_zero_dimensions(self, n):
        assert rank(Matrix.zero(0, n)) == rank(Matrix.zero(n, 0)) == 0
        assert is_injective(Matrix.zero(0, n)) == (n == 0)
        assert is_injective(Matrix.zero(n, 0))

    @settings(max_examples=150, deadline=None)
    @given(wide_matrix)
    def test_wide_entries_match_fraction_free_oracle(self, m):
        assert_rank_agrees(m)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_kept_rows_are_divided_by_their_content(self, monkeypatch, n):
        """A first row of content ``2**1000`` is kept as ``(1, ..., 1)``:
        no later clearing step takes a gcd with a 1,000-bit operand."""
        rng = random.Random(f"content:{n}")
        rows = [[2**1000] * n] + random_matrix(rng, n - 1, n, 9).to_lists()
        widest = []

        def recording_gcd(*args):
            if len(args) == 2:  # a clearing step's gcd(p, b)
                widest.append(max(abs(x).bit_length() for x in args))
            return gcd(*args)

        monkeypatch.setattr(matrices, "gcd", recording_gcd)
        assert_rank_agrees(Matrix(rows))
        assert 0 < max(widest) < 1000

    @pytest.mark.parametrize("want", [32, 24])
    def test_32x32_with_64_bit_entries(self, monkeypatch, want):
        """Every number the elimination takes a gcd of, so every row
        before its content division, stays within the bound that
        ``rank`` states: the product of the Hadamard bounds of the
        ``r``-minors for ``r`` up to 32."""
        rng = random.Random(f"hadamard:{want}")
        m = dependent_rows(rng, 32, 32, want, 2**64)
        widest = []

        def recording_gcd(*args):
            widest.append(max(abs(x).bit_length() for x in args))
            return gcd(*args)

        monkeypatch.setattr(matrices, "gcd", recording_gcd)
        assert bareiss_rank(m) == want
        assert_rank_agrees(m)
        norm_bits = max(sum(x * x for x in r) for r in m.entries).bit_length() / 2
        assert max(widest) <= 1 + sum(r * norm_bits for r in range(1, 33))


def refuse_echelon(a):
    raise AssertionError("the Hermite kernel was reached")


class TestRankBuildsNoLattice:
    """Rank questions never reach the Hermite kernel, and neither do
    kernels of corank 0 and 1; lattice questions, kernels of corank 2
    among them, still do."""

    def test_rank_answers_without_echelon(self, monkeypatch):
        monkeypatch.setattr(matrices, "_echelon", refuse_echelon)
        rng = random.Random("guard:8")
        transitions = [seeded_square(rng, 8, t % 2 == 1) for t in range(6)]
        singular = [t for t, m in enumerate(transitions, start=1) if bareiss_rank(m) < 8]
        assert singular
        for m in transitions:
            assert_rank_agrees(m)
        report = validate(SequenceDiagram("plain", [8] * 7, transitions, True, None))
        assert report.violations == [f"non-injective transition {t}" for t in singular]
        m = transitions[0]
        assert is_injective(m)
        assert kernel_basis(m) == Matrix.zero(8, 0)
        for lattice_question in (snf, lambda k: solve_matrix_eq(k, k)):
            with pytest.raises(AssertionError, match="^the Hermite kernel was reached$"):
                lattice_question(m)
        line, plane = dependent_rows(rng, 8, 8, 7, 4), dependent_rows(rng, 8, 8, 6, 4)
        assert (bareiss_rank(line), bareiss_rank(plane)) == (7, 6)
        k = kernel_basis(line)
        assert k.cols == 1 and line * k == Matrix.zero(8, 1)
        with pytest.raises(AssertionError, match="^the Hermite kernel was reached$"):
            kernel_basis(plane)


def corank_one_inputs():
    """Seeded maps whose kernel has rank one: squares for n = 2..16 of
    rank n - 1, tall maps, wide maps with one row fewer than columns,
    each with entries up to 9 and up to 2**40, and the 0x1 map."""
    rng = random.Random("corank-one")
    out = [Matrix.zero(0, 1)]

    def add(cols, make):
        while bareiss_rank(m := make()) != cols - 1:
            pass
        out.append(m)

    for bound in (9, 2**40):
        for n in range(2, 17):
            for _ in range(8):
                add(n, lambda: dependent_rows(rng, n, n, n - 1, bound))
        for cols in range(2, 11):
            for rows in range(cols + 1, cols + 5):
                for _ in range(2):
                    add(cols, lambda: dependent_rows(rng, rows, cols, cols - 1, bound))
        for cols in range(2, 17):
            for _ in range(4):
                add(cols, lambda: random_matrix(rng, cols - 1, cols, bound))
    return out


class TestCorankOneKernel:
    """A kernel of rank one comes from back substitution through the rows
    that ``rank`` keeps, without the Hermite kernel, and is the basis that
    ``_reduce`` finds for the same map."""

    def test_back_substitution_is_the_reduced_hermite_basis(self, monkeypatch):
        inputs = corank_one_inputs()
        assert len(inputs) >= 500
        operands = []

        def recording_gcd(*args):
            operands.extend(args)
            return gcd(*args)

        for m in inputs:
            want = _reduce(m.transpose())[2]
            operands.clear()
            with monkeypatch.context() as patched:
                patched.setattr(matrices, "_echelon", refuse_echelon)
                patched.setattr(matrices, "gcd", recording_gcd)
                k = kernel_basis(m)
            assert k.transpose().entries == tuple(want)
            # the stated bound: the result within Hadamard's bound for
            # n - 1 rows, every intermediate within n - 1 factors of n
            # times that bound
            n = m.cols
            hadamard2 = max((sum(x * x for x in r) for r in m.entries), default=0) ** (n - 1)
            assert all(x * x <= hadamard2 for x in k.col(0))
            assert all(x * x <= (n * n * hadamard2) ** (n - 1) for x in operands)


def tall_map(rng, rows, cols, injective):
    """``rows x cols`` map with entries in [-9, 9], for ``cols >= 2``:
    an injective one has full column rank, any other has a column that
    is a sum or a difference of two others (or twice another, or zero)."""
    while True:
        m = random_matrix(rng, rows, cols, 9)
        if not injective:
            columns = [m.col(j) for j in range(cols)]
            j = rng.randrange(cols)
            others = columns[:j] + columns[j + 1 :]
            a, b, sign = rng.choice(others), rng.choice(others), rng.choice((1, -1))
            columns[j] = tuple(x + sign * y for x, y in zip(a, b))
            m = Matrix.from_columns(columns, rows=rows)
        if (bareiss_rank(m) == cols) == injective:
            return m


class TestValidateNonSquareMono:
    """``validate`` flags exactly the non-injective transitions of mono
    diagrams whose ranks change from stage to stage."""

    RANKS = [2, 3, 5, 8, 16]

    @pytest.mark.parametrize("kinds", range(16))
    def test_growing_ranks(self, kinds):
        """Bit ``t - 1`` of ``kinds`` says whether transition ``t`` is
        injective, so the sixteen cases mix the two kinds every way."""
        rng = random.Random(f"nonsquare:{kinds}")
        transitions = [
            tall_map(rng, r1, r0, bool(kinds >> t & 1))
            for t, (r0, r1) in enumerate(zip(self.RANKS, self.RANKS[1:]))
        ]
        want = [
            f"non-injective transition {t}"
            for t, m in enumerate(transitions, start=1)
            if bareiss_rank(m) < m.cols
        ]
        assert len(want) == 4 - bin(kinds).count("1")
        report = validate(SequenceDiagram("plain", self.RANKS, transitions, True, None))
        assert report.violations == want

    def test_shrinking_ranks_are_never_injective(self):
        rng = random.Random("shrinking")
        ranks = self.RANKS[::-1]
        transitions = [random_matrix(rng, r1, r0, 9) for r0, r1 in zip(ranks, ranks[1:])]
        report = validate(SequenceDiagram("plain", ranks, transitions, True, None))
        assert report.violations == [f"non-injective transition {t}" for t in range(1, 5)]


def brute_solutions(k, t, bound, nonneg):
    vals = range(0, bound + 1) if nonneg else range(-bound, bound + 1)
    out = set()
    rows, cols = t.rows, k.rows
    for flat in itertools.product(vals, repeat=rows * cols):
        x = Matrix([list(flat[i * cols : (i + 1) * cols]) for i in range(rows)], cols=cols)
        if x * k == t:
            out.add(x)
    return out


def rank_deficient_systems(rng, count):
    """``count`` systems ``(k, t, bound)`` with a rank-deficient ``k`` of
    3 or 4 rows and up to 3 columns, a 1-row ``t`` and a bound in 0..3,
    whose solution lattices have dimension 2 or 3.  Half the targets are
    ``x0 * k`` for an ``x0`` within the bound, so that the enumeration
    is not empty."""
    out = []
    while len(out) < count:
        n, w = rng.randint(3, 4), rng.randint(1, 3)
        inner = rng.randint(1, 2)
        k = random_matrix(rng, n, inner, 3) * random_matrix(rng, inner, w, 3)
        if not 2 <= n - rank(k) <= 3:
            continue
        bound = rng.randint(0, 3)
        t = random_matrix(rng, 1, n, bound) * k if len(out) % 2 else random_matrix(rng, 1, w, 4)
        out.append((k, t, bound))
    return out


def pivot_columns(k):
    """Leading column of each row of the left-kernel basis of ``k``."""
    basis = kernel_basis(k.transpose()).transpose()
    return [next(c for c, x in enumerate(row) if x) for row in basis.entries]


class TestSplitSolver:
    """``kernel_basis`` and ``solve_matrix_eq`` share one reduction of
    ``[k | I]`` and one forward substitution; both must still read what a
    direct ``_echelon`` of ``[k | I]`` gives.  A zero kernel is a rank
    question that builds no lattice, so ``kernel_basis`` of an injective
    map reduces nothing and must still read as the empty basis."""

    def test_agrees_with_echelon(self, rng):
        inconsistent = 0
        for _ in range(60):
            k = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 3), 3)
            a = [row + e for row, e in zip(k.to_lists(), Matrix.identity(k.rows).to_lists())]
            pivots = _echelon(a)
            r = sum(1 for c in pivots if c < k.cols)
            assert kernel_basis(k.transpose()).transpose().to_lists() == [row[k.cols:] for row in a[r:]]
            hermite = [row[: k.cols] for row in a[:r]]
            for _ in range(3):
                c = [rng.randint(-4, 4) for _ in range(k.cols)]
                # c lies in the row lattice of k iff appending it keeps the Hermite form
                b = k.to_lists() + [c]
                _echelon(b)
                sols = solve_matrix_eq(k, Matrix([c]), "any", 4)
                assert sols.consistent == ([row for row in b if any(row)] == hermite)
                assert all(x * k == Matrix([c]) for x in sols)
                inconsistent += not sols.consistent
        assert 20 <= inconsistent <= 160

    def test_residual_substitution_on_edge_shapes(self, rng):
        # K without rows, without columns or of deficient rank, and T
        # without rows, against the direct echelon and brute force
        shapes = [(0, w) for w in range(4)] + [(n, 0) for n in range(1, 4)]
        shapes += [(n, w) for n in range(1, 4) for w in range(1, 4)]
        inconsistent = consistent = 0
        for n, w in shapes * 6:
            if n and w and rng.random() < 0.5:
                k = random_matrix(rng, n, 1, 3) * random_matrix(rng, 1, w, 3)
            else:
                k = random_matrix(rng, n, w, 3)
            a = [row + e for row, e in zip(k.to_lists(), Matrix.identity(n).to_lists())]
            pivots = _echelon(a)
            r = sum(1 for c in pivots if c < w)
            hermite = [row[:w] for row in a[:r]]
            for t_rows in range(3):
                if rng.random() < 0.5:
                    t = random_matrix(rng, t_rows, n, 1) * k if n else Matrix.zero(t_rows, w)
                else:
                    t = random_matrix(rng, t_rows, w, 2)
                # each row of t lies in the row lattice of k iff appending
                # it keeps the Hermite form
                fits = []
                for c in t.to_lists():
                    b = k.to_lists() + [c]
                    _echelon(b)
                    fits.append([row for row in b if any(row)] == hermite)
                solved = _substitute(_reduce(k), t.entries)
                assert (solved is not None) == all(fits)
                if solved is None:
                    inconsistent += 1
                    continue
                consistent += 1
                z0s, basis, basis_pivots = solved
                assert Matrix(z0s, cols=n) * k == t
                assert basis == [tuple(row[w:]) for row in a[r:]]
                assert basis_pivots == [c - w for c in pivots[r:]]
                if t_rows * n <= 6:
                    assert set(solve_matrix_eq(k, t, "any", 1)) == brute_solutions(k, t, 1, False)
        assert inconsistent >= 30 and consistent >= 100

    def test_library_results_are_well_formed(self, rng):
        # results built without the constructor's checks pass them
        for _ in range(40):
            rows, inner, cols = (rng.randint(0, 3) for _ in range(3))
            a, b = random_matrix(rng, rows, inner, 3), random_matrix(rng, inner, cols, 3)
            made = [a * b, a.transpose(), *snf(a), Matrix.identity(rows), Matrix.zero(rows, cols)]
            made += [Matrix._make(e, cols) for e in _box(rows, cols, 1, False)] if rows * cols <= 2 else []
            made += itertools.islice(solve_matrix_eq(b, a * b, "any", 3), 20)
            for m in made:
                assert type(m.entries) is tuple and all(type(r) is tuple for r in m.entries)
                assert Matrix(m.entries, cols=m.cols) == m


class TestAdjugatePath:
    """A square ``k`` of size 1 to 3 with a nonzero determinant has a zero
    left kernel, so :func:`solve_matrix_eq` reads the one solution of each
    target off its cofactor matrix and builds no Hermite lattice.  Every
    answer must be what ``_reduce`` and ``_substitute`` give when called
    directly, and every other ``k`` must still take the Hermite path."""

    @staticmethod
    def square(rng, n, singular):
        if not singular:
            return random_matrix(rng, n, n, 4)
        if n == 1:
            return Matrix([[0]])
        return random_matrix(rng, n, n - 1, 3) * random_matrix(rng, n - 1, n, 3)

    @pytest.fixture
    def reduced(self, monkeypatch):
        """The ``k`` of every call to ``matrices._reduce``, in order; the
        module's own ``_reduce`` name stays the original."""
        calls = []
        monkeypatch.setattr(matrices, "_reduce", lambda k: calls.append(k) or _reduce(k))
        return calls

    def test_matches_the_hermite_path(self, rng, reduced):
        tally = Counter()
        for n in range(2400):
            size = 1 + n % 3
            k = self.square(rng, size, n % 4 == 0)
            invertible = bareiss_det(k) != 0
            bound, constraint = rng.randint(0, 4), ("any", "nonnegative")[n // 3 % 2]
            targets = [random_matrix(rng, rng.randint(0, 2), size, 3) * k for _ in range(2)]
            targets += [random_matrix(rng, rng.randint(1, 2), size, 4) for _ in range(2)]
            reduced.clear()
            sols = solve_matrix_eq(k, targets[n % 4], constraint, bound)
            assert (not reduced) == invertible
            want = _substitute(_reduce(k), targets[n % 4].entries)
            assert sols.consistent == (want is not None)
            for t in targets:
                solved = sols.substitute(t)
                assert solved == _substitute(_reduce(k), t.entries)
                tally[invertible, solved is not None] += 1
            iterated = [] if want is None else itertools.product(*matrices._row_streams(want, bound, constraint == "nonnegative"))
            expected = [Matrix(rows, cols=size) for rows in itertools.islice(iterated, 100)]
            assert list(itertools.islice(sols, 100)) == expected
            if invertible:
                assert not reduced  # no substitution eliminated k either
                tally["yielded"] += len(expected)
        assert min(tally[True, True], tally[True, False], tally[False, True], tally[False, False]) >= 1000
        assert tally["yielded"] >= 300

    def test_other_shapes_take_the_hermite_path(self, rng, reduced):
        others = [Matrix.zero(0, 0), Matrix([[0]]), Matrix([[1, 2], [2, 4]]), Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])]
        others += [Matrix.identity(4), random_matrix(rng, 4, 4, 3), Matrix([[1, 2]]), Matrix([[1], [2]])]
        others += [random_matrix(rng, 2, 3, 3), random_matrix(rng, 3, 2, 3)]
        for k in others:
            assert matrices._adjugate(k) is None
            reduced.clear()
            solve_matrix_eq(k, Matrix.zero(1, k.cols))
            assert reduced == [k]
        for k in (Matrix([[-3]]), Matrix([[2, 1], [1, 1]]), Matrix([[2, 0, 1], [0, 1, 0], [1, 0, 0]])):
            det, cofactors = matrices._adjugate(k)
            assert det == bareiss_det(k)
            # the cofactor rows are the columns of the adjugate: k * adj(k) = det * I
            assert k * Matrix(cofactors).transpose() == Matrix([[det * (i == j) for j in range(k.cols)] for i in range(k.rows)])
            reduced.clear()
            solve_matrix_eq(k, Matrix.zero(1, k.cols))
            assert not reduced


def assert_reduced_hermite(a, pivots):
    """``a`` after ``_echelon``: positive pivots in increasing columns,
    entries above each pivot in ``[0, pivot)``, zero rows last."""
    assert all(x < y for x, y in zip(pivots, pivots[1:]))
    for i, row in enumerate(a):
        lead = next((c for c, x in enumerate(row) if x), None)
        if i >= len(pivots):
            assert lead is None
            continue
        c = pivots[i]
        assert lead == c and row[c] > 0
        assert all(0 <= above[c] < row[c] for above in a[:i])


def echelon_with_transform(m, n):
    """``_echelon`` of ``[m | I]``: ``(h, u, pivots)`` with ``h`` and
    ``u`` the left and right blocks of the result."""
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    pivots = _echelon(a)
    assert_reduced_hermite(a, pivots)
    width = len(a[0]) - n if a else 0
    return [r[:width] for r in a], [r[width:] for r in a], pivots


class TestEchelonIsTheUniqueHermiteForm:
    """Every caller reads ``_echelon``'s output as the unique reduced
    Hermite normal form, so a rewrite of the loop must give it bit for
    bit: these pin its shape and, through the transform, its lattice."""

    def test_k_with_identity(self, rng):
        # the solver's [K | I] for every K shape from 0x0 to 3x3
        for rows, cols in itertools.product(range(4), repeat=2):
            for n in range(25):
                if rows and cols and n % 3 == 0:  # rank 1
                    k = random_matrix(rng, rows, 1, 3) * random_matrix(rng, 1, cols, 3)
                else:
                    k = random_matrix(rng, rows, cols, 3)
                h, u, pivots = echelon_with_transform(k.to_lists(), rows)
                assert len(pivots) == rows  # [K | I] has full row rank
                assert Matrix(u, cols=rows) * k == Matrix(h, cols=cols)
                assert abs(bareiss_det(Matrix(u, cols=rows))) == 1
                assert sum(1 for c in pivots if c < cols) == bareiss_rank(k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_square_and_wide(self, n):
        rng = random.Random(f"echelon:{n}")
        for wide, deficient in itertools.product((False, True), repeat=2):
            cols = 2 * n if wide else n
            for _ in range(4):
                if deficient:  # rank n - 1 or n - 2
                    inner = n - rng.randint(1, 2)
                    m = (random_matrix(rng, n, inner, 3) * random_matrix(rng, inner, cols, 3)).to_lists()
                else:
                    m = random_matrix(rng, n, cols, 9).to_lists()
                a = [list(r) for r in m]
                pivots = _echelon(a)
                assert_reduced_hermite(a, pivots)
                assert len(pivots) == bareiss_rank(Matrix(m))
                # the same rows with the transform appended: its left block
                # is the same form, reached by a unimodular u
                h, u, _ = echelon_with_transform(m, n)
                assert h == a
                assert Matrix(u, cols=n) * Matrix(m) == Matrix(h, cols=len(m[0]))
                assert abs(bareiss_det(Matrix(u, cols=n))) == 1


class TestExactRowStreams:
    """A basis row fixes every column from its pivot to the next pivot,
    so the walk's ranges are exact: a row stream is the box filter of
    the coset, in coset order, and every leaf the walk reaches is in it."""

    @staticmethod
    def system(rng, dim):
        """``k`` with a left kernel of dimension ``dim``, 1-4 rows."""
        while True:
            n = rng.randint(max(dim, 1), 4)
            inner = n - dim
            w = rng.randint(max(inner, 1), 4)
            k = random_matrix(rng, n, inner, 3) * random_matrix(rng, inner, w, 3)
            if n - rank(k) == dim:
                return k

    @staticmethod
    def coset_coordinates(y, z0, basis, pivots):
        """The ``p`` with ``y = z0 + sum p_j * basis[j]``, read off the
        pivot columns of the echelon basis."""
        rest, p = [a - b for a, b in zip(y, z0)], []
        for row, c in zip(basis, pivots):
            q, r = divmod(rest[c], row[c])
            assert r == 0
            p.append(q)
            rest = [a - q * b for a, b in zip(rest, row)]
        assert not any(rest)
        return tuple(p)

    def test_streams_are_the_box_filter_of_the_coset(self, rng, monkeypatch):
        walk, leaves = matrices._walk, []

        def counted(rows, lo, hi, j, z, out):
            leaves.append(j == len(rows))
            walk(rows, lo, hi, j, z, out)

        monkeypatch.setattr(matrices, "_walk", counted)
        yielded = nonempty = 0
        for dim in range(4):
            for _ in range(12):
                k = self.system(rng, dim)
                # every vector of the widest box, grouped by its image
                images: dict = {}
                for y in itertools.product(range(-4, 5), repeat=k.rows):
                    images.setdefault(Matrix([y]) * k, []).append(y)
                x = random_matrix(rng, 2, k.rows, 2)
                t = Matrix([x.entries[0], random_matrix(rng, 1, k.rows, 4).entries[0]]) * k
                solved = _substitute(_reduce(k), t.entries)
                z0s, basis, pivots = solved
                assert len(basis) == dim
                for bound, nonneg in itertools.product(range(5), (False, True)):
                    lo = 0 if nonneg else -bound
                    leaves.clear()
                    streams = matrices._row_streams(solved, bound, nonneg)
                    for z0, stream, c in zip(z0s, streams, t.entries):
                        box = [y for y in images.get(Matrix([c]), []) if all(lo <= v <= bound for v in y)]
                        order = sorted(box, key=lambda y: self.coset_coordinates(y, z0, basis, pivots))
                        assert list(stream) == order
                        nonempty += bool(stream)
                    assert sum(leaves) == sum(map(len, streams))
                    yielded += sum(leaves)
        assert nonempty >= 200 and yielded >= 1000


class TestSolveMatrixEq:
    def test_forced(self):
        sols = solve_matrix_eq(Matrix([[2]]), Matrix([[4]]), "nonnegative", 10)
        assert [x.to_lists() for x in sols] == [[[2]]]

    def test_sum_to_two(self):
        sols = solve_matrix_eq(Matrix([[1], [1]]), Matrix([[2]]), "nonnegative", 2)
        assert sorted(row(x, 0) for x in sols) == [(0, 2), (1, 1), (2, 0)]

    def test_parity_inconsistent(self):
        sols = solve_matrix_eq(Matrix([[2]]), Matrix([[3]]), "any", 100)
        assert not sols.consistent
        assert list(sols) == []

    def test_bound_exhausted_is_still_consistent(self):
        sols = solve_matrix_eq(Matrix([[1]]), Matrix([[5]]), "any", 2)
        assert sols.consistent
        assert list(sols) == []

    def test_solutions_satisfy_equation(self, rng):
        for _ in range(60):
            kr, kc = rng.randint(1, 2), rng.randint(1, 2)
            k = Matrix([[rng.randint(-3, 3) for _ in range(kc)] for _ in range(kr)], cols=kc)
            t = Matrix([[rng.randint(-3, 3) for _ in range(k.cols)]
                        for _ in range(rng.randint(1, 2))], cols=k.cols)
            for x in solve_matrix_eq(k, t, "any", 3):
                assert x * k == t
                assert max_abs(x) <= 3

    def test_matches_brute_force(self, rng):
        # up to 2x2 unknowns, then 1x3 ones, whose solutions for a row
        # of t form a lattice of dimension 3 - rank(k), up to 3
        # and rank-deficient 3- and 4-row ones with bounds 0..3
        systems = []
        for k_rows, t_rows in [((1, 2), (1, 2))] * 60 + [((3, 3), (1, 1))] * 40:
            kr, kc = rng.randint(*k_rows), rng.randint(1, 2)
            k = Matrix([[rng.randint(-3, 3) for _ in range(kc)] for _ in range(kr)], cols=kc)
            t = Matrix([[rng.randint(-3, 3) for _ in range(k.cols)]
                        for _ in range(rng.randint(*t_rows))], cols=k.cols)
            systems.append((k, t, 3))
        for k, t, bound in systems + rank_deficient_systems(rng, 30):
            for constraint, nonneg in (("any", False), ("nonnegative", True)):
                got = list(solve_matrix_eq(k, t, constraint, bound))
                assert len(set(got)) == len(got)
                assert set(got) == brute_solutions(k, t, bound, nonneg)

    def test_order_is_lexicographic_at_pivot_columns(self, rng):
        # the walk is triangular with positive pivots, so its order of
        # lattice coordinates is the order of the entries at the pivots
        nonempty = 0
        for k, t, bound in rank_deficient_systems(rng, 40):
            pivots = pivot_columns(k)
            assert 2 <= len(pivots) <= 3
            for constraint, nonneg in (("any", False), ("nonnegative", True)):
                got = list(solve_matrix_eq(k, t, constraint, bound))
                keys = [tuple(row(x, 0)[c] for c in pivots) for x in got]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                assert set(got) == brute_solutions(k, t, bound, nonneg)
                nonempty += bool(got)
        assert nonempty >= 40

    def test_deterministic_order(self):
        k = Matrix([[1], [1]])
        t = Matrix([[2], [0]])
        first = [x.to_lists() for x in solve_matrix_eq(k, t, "any", 2)]
        second = [x.to_lists() for x in solve_matrix_eq(k, t, "any", 2)]
        assert first == second

    @pytest.mark.parametrize("constraint, bound, message", [
        ("positive", 1, "unknown constraint 'positive'"),
        ("any", -1, "entry_bound must be >= 0"),
    ])
    def test_bad_constraint_or_bound_rejected(self, constraint, bound, message):
        with pytest.raises(ValueError) as exc:
            solve_matrix_eq(Matrix([[1]]), Matrix([[1]]), constraint, bound)
        assert str(exc.value) == message

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_matrix_eq(Matrix([[1, 2]]), Matrix([[1]]), "any", 1)
        with pytest.raises(ValueError):
            solve_matrix_eq(Matrix([[1, 2]]), Matrix([[1, 2]]), "any", 1).substitute(Matrix([[1]]))

    def test_streams_of_another_target_match_its_own_solver(self, rng, monkeypatch):
        # one elimination of k serves every target as wide as k
        inconsistent = 0
        for k, t, bound in rank_deficient_systems(rng, 30):
            for constraint in ("any", "nonnegative"):
                sols = solve_matrix_eq(k, t, constraint, bound)
                others = [random_matrix(rng, rng.randint(0, 2), k.cols, 3) for _ in range(3)]
                others.append(random_matrix(rng, 2, k.rows, 2) * k)
                expected = [solve_matrix_eq(k, u, constraint, bound) for u in others]
                monkeypatch.setattr(matrices, "_reduce", None)  # no second elimination
                for u, want in zip(others, expected):
                    solved = sols.substitute(u)
                    assert (solved is not None) == want.consistent
                    got = [] if solved is None else [Matrix(rows, cols=k.rows) for rows in itertools.product(*sols.row_streams(solved))]
                    assert got == list(want)
                    inconsistent += solved is None
                monkeypatch.undo()
        assert inconsistent >= 20


def test_iter_matrices_small_magnitude_first():
    assert [e[0][0] for e in _box(1, 1, 2, False)] == [0, 1, -1, 2, -2]
    assert [e[0] for e in _box(1, 2, 1, True)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def flat_product_order(rows, cols, entry_bound, nonnegative):
    """The entries of each candidate map in the search's order as first
    written: one flat product over all positions, sliced into rows, with
    the values 0, 1, -1, 2, -2, ... (0, 1, 2, ... when nonnegative)."""
    signs = (1,) if nonnegative else (1, -1)
    vals = [0] + [s * x for x in range(1, entry_bound + 1) for s in signs]
    for flat in itertools.product(vals, repeat=rows * cols):
        yield tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))


@pytest.mark.parametrize("nonnegative", [False, True])
@pytest.mark.parametrize("entry_bound", [1, 2, 3])
def test_iter_matrices_keeps_the_flat_product_order(entry_bound, nonnegative):
    # the longest enumerations (7**9 matrices at 3x3, bound 3) are compared
    # on a prefix that runs through every value at the last five positions
    limit = 20_000
    for rows, cols in itertools.product(range(4), repeat=2):
        got = _box(rows, cols, entry_bound, nonnegative)
        old = flat_product_order(rows, cols, entry_bound, nonnegative)
        pairs = list(itertools.islice(itertools.zip_longest(got, old), limit))
        assert all(entries == want for entries, want in pairs)
        count = (entry_bound + 1 if nonnegative else 2 * entry_bound + 1) ** (rows * cols)
        assert len(pairs) == min(count, limit)


def test_matrix_rejects_non_integers():
    with pytest.raises(ValueError):
        Matrix([[1.5]])
    with pytest.raises(ValueError):
        Matrix([[True]])


def test_product_with_zero_inner_dimension():
    assert Matrix.zero(3, 0) * Matrix.zero(0, 2) == Matrix.zero(3, 2)
    assert Matrix.zero(0, 2) * Matrix.zero(2, 4) == Matrix.zero(0, 4)
    assert Matrix.zero(2, 0) * Matrix.zero(0, 0) == Matrix.zero(2, 0)


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError, match="^row 1 has length 1, expected 2$"):
        Matrix([[1, 2], [3]])


def test_product_refuses_a_shape_mismatch_and_a_scalar():
    with pytest.raises(ValueError, match=r"^shape mismatch: \(1x2\) \* \(1x2\)$"):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(TypeError):
        Matrix([[1]]) * 3


def triple_loop_product(a, b):
    """``a * b`` as lists, entry by entry: the textbook triple loop."""
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a.entries[i][k] * b.entries[k][j]
    return out


BIG = 2**70


class TestProductMatchesTripleLoop:
    """``*`` and ``apply`` on every shape from 0x0x0 to 4x4x4, entries up to
    +-2**70, so zero rows, zero columns and a zero inner dimension all occur."""

    @pytest.mark.parametrize("r, k, c", list(itertools.product(range(5), repeat=3)))
    def test_product(self, r, k, c):
        rng = random.Random(f"mul {r} {k} {c}")
        for bound in (1, 9, BIG):
            a, b = random_matrix(rng, r, k, bound), random_matrix(rng, k, c, bound)
            got = a * b
            assert (got.rows, got.cols) == (r, c)
            assert got.to_lists() == triple_loop_product(a, b)
            assert all(type(x) is int for row in got.entries for x in row)

    @pytest.mark.parametrize("r, k", list(itertools.product(range(5), repeat=2)))
    def test_apply(self, r, k):
        rng = random.Random(f"apply {r} {k}")
        for bound in (1, 9, BIG):
            a = random_matrix(rng, r, k, bound)
            vec = [rng.randint(-bound, bound) for _ in range(k)]
            want = tuple(row[0] for row in triple_loop_product(a, Matrix([[x] for x in vec], cols=1)))
            assert a.apply(vec) == a.apply(tuple(vec)) == want


class TestFromColumns:
    @pytest.mark.parametrize("columns, message", [
        ([[1], [2, 3]], "column 1 has length 2, expected 1"),
        ([[1, 2], [3]], "column 1 has length 1, expected 2"),
        ([[1, 2], [3, 4], []], "column 2 has length 0, expected 2"),
        ([], "need explicit row count for a zero-column matrix"),
    ])
    def test_ragged_columns_are_refused(self, columns, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Matrix.from_columns(columns)

    def test_declared_row_count(self):
        assert Matrix.from_columns([], rows=2) == Matrix.zero(2, 0)
        with pytest.raises(ValueError, match="declared row count"):
            Matrix.from_columns([[1, 2]], rows=3)


class TestConstructorQuotesBriefly:
    @pytest.mark.parametrize("entry, quoted", [
        ("9" * 5000, "'999999999999...9999999999999'"),
        ("x", "'x'"),
        (1.5, "1.5"),
        (True, "True"),
    ])
    def test_non_integer_entry(self, entry, quoted):
        with pytest.raises(ValueError) as exc:
            Matrix([[1, 2], [3, entry]])
        assert str(exc.value) == f"non-integer entry {quoted} in row 1"
        assert len(str(exc.value)) < 80
