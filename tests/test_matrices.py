import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colim import matrices
from colim.diagrams import SequenceDiagram, validate
from colim.matrices import (
    Matrix,
    _echelon,
    _reduce,
    _substitute,
    is_injective,
    iter_matrices,
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
    base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - rng.randint(1, 2))]
    rows = base + [
        [x + sign * y for x, y in zip(rng.choice(base), rng.choice(base))]
        for sign in (rng.choice((1, -1)) for _ in range(n - len(base)))
    ]
    rng.shuffle(rows)
    return Matrix(rows, cols=n)


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
    direct ``_echelon`` of ``[k | I]`` gives."""

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
            made += iter_matrices(rows, cols, 1) if rows * cols <= 2 else []
            made += itertools.islice(solve_matrix_eq(b, a * b, "any", 3), 20)
            for m in made:
                assert type(m.entries) is tuple and all(type(r) is tuple for r in m.entries)
                assert Matrix(m.entries, cols=m.cols) == m


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
    seq = list(iter_matrices(1, 1, 2))
    assert [m[0, 0] for m in seq] == [0, 1, -1, 2, -2]
    seq = list(iter_matrices(1, 2, 1, nonnegative=True))
    assert [row(m, 0) for m in seq] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_matrix_rejects_non_integers():
    with pytest.raises(ValueError):
        Matrix([[1.5]])
    with pytest.raises(ValueError):
        Matrix([[True]])


def test_product_with_zero_inner_dimension():
    assert Matrix.zero(3, 0) * Matrix.zero(0, 2) == Matrix.zero(3, 2)
    assert Matrix.zero(0, 2) * Matrix.zero(2, 4) == Matrix.zero(0, 4)
    assert Matrix.zero(2, 0) * Matrix.zero(0, 0) == Matrix.zero(2, 0)


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
    ])
    def test_ragged_columns_are_refused(self, columns, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Matrix.from_columns(columns)

    def test_declared_row_count(self):
        assert Matrix.from_columns([], rows=2) == Matrix.zero(2, 0)
        with pytest.raises(ValueError, match="declared row count"):
            Matrix.from_columns([[1, 2]], rows=3)
