"""Exact integer linear algebra on arbitrary-precision matrices.

Everything here runs over Python's native bignums, so all results are
exact.  One row-echelon routine does every integer elimination: rank,
kernel basis, Smith normal form with unimodular transforms and the
bounded enumerator for the integer solutions of ``X * K = T``
all call it, and it keeps every entry polynomial in the input size.
"""

from __future__ import annotations

import bisect
import itertools
from operator import mul
from typing import Iterator, Sequence


class Matrix:
    """Immutable integer matrix.

    A homomorphism ``Z^c -> Z^r`` is the ``r x c`` matrix ``M`` acting on
    column vectors by ``x -> M @ x``; composition ``g after f`` is the
    product ``G * F``.  Zero-row and zero-column matrices are legal.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[int]], cols: int | None = None):
        rows = len(entries)
        if rows == 0:
            cols = 0 if cols is None else cols
        elif cols is None:
            cols = len(entries[0])
        data = []
        for r, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError(f"row {r} has length {len(row)}, expected {cols}")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"non-integer entry {x!r} in row {r}")
            data.append(tuple(row))
        self.rows = rows
        self.cols = cols
        self.entries = tuple(data)

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, entries: tuple, cols: int) -> "Matrix":
        """A matrix from a tuple of ``cols``-long tuples of ints that the
        library built or checked itself, without the constructor's checks."""
        m = object.__new__(cls)
        m.rows, m.cols, m.entries = len(entries), cols, entries
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._make(tuple(map(tuple, _identity_rows(n))), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._make(((0,) * cols,) * rows, cols)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int | None = None) -> "Matrix":
        if not columns:
            if rows is None:
                raise ValueError("need explicit row count for a zero-column matrix")
            return Matrix([[] for _ in range(rows)], cols=0)
        n = len(columns[0])
        if rows is not None and rows != n:
            raise ValueError("column length disagrees with declared row count")
        for j, col in enumerate(columns):
            if len(col) != n:
                raise ValueError(f"column {j} has length {len(col)}, expected {n}")
        return Matrix([[col[i] for col in columns] for i in range(n)], cols=len(columns))

    # -- basic queries ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.entries]!r}, cols={self.cols})"

    def __getitem__(self, key: tuple) -> int:
        i, j = key
        return self.entries[i][j]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def to_lists(self) -> list:
        return [list(r) for r in self.entries]

    def transpose(self) -> "Matrix":
        if not self.rows:  # zip(*()) yields no columns at all
            return Matrix.zero(self.cols, 0)
        return Matrix._make(tuple(zip(*self.entries)), self.rows)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: ({self.rows}x{self.cols}) * ({other.rows}x{other.cols})"
            )
        if not other.rows:  # zip(*()) yields no columns at all
            return Matrix.zero(self.rows, other.cols)
        ocols = tuple(zip(*other.entries))
        products = [tuple([sum(map(mul, row, ocol)) for ocol in ocols]) for row in self.entries]
        return Matrix._make(tuple(products), other.cols)

    def apply(self, vec: Sequence[int]) -> tuple:
        """Apply to a column vector, returning ``M @ vec`` as a tuple."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)}, expected {self.cols}")
        return tuple([sum(map(mul, row, vec)) for row in self.entries])


# ---------------------------------------------------------------------
# The elimination kernel
# ---------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b = g``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _echelon(a: list) -> list:
    """Bring the list of integer rows ``a`` to Hermite normal form in place.

    Rows are taken in one at a time, after Kannan & Bachem (SIAM J.
    Comput. 1979).  The incoming row is cleared at the column of its
    leading entry by the pivot row there, through a 2x2 row step of
    determinant 1: a plain subtraction when the pivot divides the entry,
    an extended-gcd step otherwise, which lowers the pivot to the gcd.
    A row whose leading entry meets no pivot becomes a new pivot row.
    Then every entry above a pivot is reduced into ``[0, pivot)``, so the
    rows taken in so far are always in Hermite normal form, and no entry
    grows beyond a polynomial in the input size.  The nonzero rows end
    first, sorted by pivot column, with positive pivots.

    The loop keeps the pivot columns and the pivot rows in two parallel
    lists, finds a leading entry by index and reduces the rows above a
    pivot in place by index.  The nonzero rows end as the unique reduced
    Hermite normal form of the row lattice, so the result does not depend
    on how the loop is written.

    Callers that need the transform append the identity to ``a``: the
    appended columns undergo the same row steps, so they end as a
    unimodular ``u`` with ``u * a_before = a_after``, reduced in the
    same way.

    Returns the pivot column of each nonzero row, in order.
    """
    cols: list = []  # pivot columns, increasing
    rows: list = []  # the pivot row of each of them
    zeros = []
    for v in a:
        width = len(v)
        j = c = 0
        changed = len(a)  # index of the first pivot row this row changed or became
        while True:
            while c < width and not v[c]:
                c += 1
            if c == width:
                zeros.append(v)
                break
            while j < len(cols) and cols[j] < c:
                j += 1
            if j == len(cols) or cols[j] > c:
                if v[c] < 0:
                    v = [-s for s in v]
                cols.insert(j, c)
                rows.insert(j, v)
                if j < changed:
                    changed = j
                break
            h = rows[j]
            p, b = h[c], v[c]
            if b % p:
                g, x, y = _xgcd(p, b)
                rows[j] = [x * s + y * t for s, t in zip(h, v)]
                p, b = p // g, b // g
                v = [p * t - b * s for s, t in zip(h, v)]
                if j < changed:
                    changed = j
            else:
                q = b // p
                v = [t - q * s for s, t in zip(h, v)]
        # rows above a changed pivot row are reduced modulo it and every
        # later pivot, in column order, so no reduction undoes another
        for j in range(changed, len(rows)):
            c = cols[j]
            h = rows[j]
            p = h[c]
            for i in range(j):
                above = rows[i]
                q = above[c] // p
                if q:
                    rows[i] = [t - q * s for s, t in zip(h, above)]
    rows += zeros
    a[:] = rows
    return cols


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: returns ``(s, u, v)`` with ``u*m*v = s``,
    ``s`` diagonal with ``d1 | d2 | ...``, ``di >= 0``, and ``u``, ``v``
    unimodular.

    The echelon form is taken of the matrix and of its transpose in turn
    until the result is diagonal.  Where a diagonal entry does not
    divide a later one, the later row is folded into the earlier and the
    alternation goes on.  ``s`` is unique; ``u`` and ``v`` are
    reproducible, and all entries stay polynomial in the input size.
    """
    rows, cols = m.rows, m.cols
    if not rows or not cols:
        return m, Matrix.identity(rows), Matrix.identity(cols)
    # one block [[x, u], [v, 0]] with u*m*v = x; its transpose is the
    # block of v^T * m^T * u^T = x^T, so one transpose flips the problem
    block = [xr + ur for xr, ur in zip(m.to_lists(), _identity_rows(rows))]
    block += [vr + [0] * rows for vr in _identity_rows(cols)]
    flipped = False
    while True:
        top = block[:rows]
        pivots = _echelon(top)
        block[:rows] = top
        diag = [top[i][c] for i, c in enumerate(pivots) if c < cols]
        if all(c == i and not any(top[i][i + 1 : cols]) for i, c in enumerate(pivots[: len(diag)])):
            bad = next(((i, j) for i in range(len(diag)) for j in range(i + 1, len(diag))
                        if diag[j] % diag[i]), None)
            if bad is None:
                break
            i, j = bad
            block[i] = [p + q for p, q in zip(block[i], block[j])]
        block = list(zip(*block))
        rows, cols = cols, rows
        flipped = not flipped
    if flipped:
        block = list(zip(*block))
        rows, cols = cols, rows
    return (
        Matrix._make(tuple(tuple(r[:cols]) for r in block[:rows]), cols),
        Matrix._make(tuple(tuple(r[cols:]) for r in block[:rows]), rows),
        Matrix._make(tuple(tuple(r[:cols]) for r in block[rows:]), cols),
    )


def rank(m: Matrix) -> int:
    return len(_echelon(m.to_lists()))


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of ``{x : m @ x = 0}`` as matrix columns.

    Zero columns exactly when ``m`` is injective.  The columns are the
    left-kernel basis of ``m^T`` that :func:`_reduce` finds.
    """
    basis = _reduce(m.transpose())[2]
    return Matrix.from_columns(basis, rows=m.cols)


def is_injective(m: Matrix) -> bool:
    return rank(m) == m.cols


# ---------------------------------------------------------------------
# Bounded integer solutions of X * K = T
# ---------------------------------------------------------------------


def matrix_values(entry_bound: int, nonnegative: bool) -> list:
    """Candidate entry values, smallest magnitude first (0, 1, -1, 2, ...)."""
    if nonnegative:
        return list(range(entry_bound + 1))
    vals = [0]
    for x in range(1, entry_bound + 1):
        vals.extend((x, -x))
    return vals


def iter_matrices(rows: int, cols: int, entry_bound: int, nonnegative: bool = False) -> Iterator[Matrix]:
    """All ``rows x cols`` matrices with entries within the bound, in
    deterministic position-lexicographic order with small magnitudes first."""
    vals = matrix_values(entry_bound, nonnegative)
    n = rows * cols
    if n == 0:
        yield Matrix.zero(rows, cols)
        return
    for flat in itertools.product(vals, repeat=n):
        yield Matrix._make(tuple(flat[i * cols : (i + 1) * cols] for i in range(rows)), cols)


def _reduce(k: Matrix) -> tuple:
    """The part of solving ``y @ k = c`` that every target shares:
    ``(width, hermite, basis, pivots)``, from one echelon of ``[k | I]``.

    ``width`` is the column count of ``k``; ``hermite`` pairs each of the
    first ``rank(k)`` rows of the echelon, ``[h_j | u_j]``, with its
    pivot column; ``basis`` holds the ``u`` part of the other rows, a
    basis of the left kernel of ``k`` in echelon form, and ``pivots`` its
    pivot columns.  The rank is where the pivots pass ``width``.  Every
    :func:`_substitute` call on the result shares ``basis`` and
    ``pivots``."""
    width, n = k.cols, k.rows
    tail = [0] * n
    a = []
    for i, row in enumerate(k.entries):
        a.append([*row, *tail])
        a[i][width + i] = 1
    pivots = _echelon(a)
    r = bisect.bisect_left(pivots, width)
    return (
        width,
        list(zip(pivots[:r], a[:r])),
        [tuple(row[width:]) for row in a[r:]],
        [c - width for c in pivots[r:]],
    )


def _substitute(reduced: tuple, targets: Sequence[Sequence[int]]):
    """Integer solutions of ``y @ k = c`` for each row vector ``c`` in
    ``targets``, given ``_reduce(k)``: ``None`` if some ``c`` has none,
    else ``(z0s, basis, pivots)`` with the solutions for the ``i``-th
    target given by ``{z0s[i] + sum p_j * basis[j]}``.

    With ``u * k = h`` in echelon form, ``y = w * u`` where ``w * h = c``.
    One residual pass finds ``w``: starting from ``[c | 0]``, each pivot
    row ``[h_j | u_j]`` is subtracted ``w_j`` times, the quotient at its
    pivot column.  A remainder there, or anything left in the columns of
    ``k``, means ``c`` is no integer combination of the rows of ``h``;
    otherwise the residual is ``[0 | -w * u]``.  The entries of ``w``
    past the rank are free, and those rows of ``u`` span the left kernel
    of ``k``; ``basis`` and ``pivots`` are the ones :func:`_reduce`
    computed once for ``k``, in echelon form with positive pivots.
    """
    width, hermite, basis, pivots = reduced
    z0s = []
    tail = [0] * (len(hermite) + len(basis))
    for c in targets:
        v = [*c, *tail]
        for col, row in hermite:
            q, rem = divmod(v[col], row[col])
            if rem:
                return None
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        if any(v[:width]):
            return None
        z0s.append(tuple([-x for x in v[width:]]))
    return z0s, basis, pivots


def _row_streams(solved: tuple, entry_bound: int, nonnegative: bool) -> list:
    """The row streams of a substitution ``(z0s, basis, pivots)`` from
    :func:`_substitute`: for each ``z0``, the tuple of the vectors
    ``z0 + sum p_j * basis[j]`` with every entry in the box, in
    lexicographic order of ``(p_0, p_1, ...)``.

    The basis is in echelon form with positive pivots, so once
    ``p_0 .. p_j`` are fixed, every column from pivot ``j`` up to the
    next pivot is final: the later rows are zero there.  The range of
    ``p_j`` is therefore the intersection of the box constraints on all
    of those columns, and the columns left of the first pivot are fixed
    by ``z0`` alone and checked once.  So :func:`_walk` reaches only
    vectors inside the box, and every leaf it reaches is yielded.
    """
    z0s, basis, pivots = solved
    lo = 0 if nonnegative else -entry_bound
    ends = [*pivots[1:], len(basis[0])] if basis else []
    rows = [
        (row, c, [(col, row[col]) for col in range(c + 1, end)])
        for row, c, end in zip(basis, pivots, ends)
    ]
    head = pivots[0] if pivots else None
    streams = []
    for z0 in z0s:
        out: list = []
        if all(lo <= x <= entry_bound for x in z0[:head]):
            _walk(rows, lo, entry_bound, 0, z0, out)
        streams.append(tuple(out))
    return streams


def _walk(rows: list, lo: int, hi: int, j: int, z, out: list) -> None:
    """Append to ``out`` every vector in the box that ``z`` reaches
    through basis rows ``j, j + 1, ...``; each entry of ``rows`` is
    ``(row, pivot, [(column, entry), ...])`` over the columns after the
    pivot and before the next one."""
    if j == len(rows):
        out.append(tuple(z))
        return
    row, c, rest = rows[j]
    s, d = z[c], row[c]
    first, last = -((s - lo) // d), (hi - s) // d
    for col, b in rest:
        s = z[col]
        if b > 0:
            low, high = -((s - lo) // b), (hi - s) // b
        elif b:
            low, high = -((hi - s) // -b), (s - lo) // -b
        elif lo <= s <= hi:
            continue
        else:
            return
        if low > first:
            first = low
        if high < last:
            last = high
    for p in range(first, last + 1):
        _walk(rows, lo, hi, j + 1, [x + p * b for x, b in zip(z, row)], out)


class MatrixEqSolutions:
    """Deterministic enumeration of every integer matrix ``X`` with
    ``X * k = t`` and entries in ``[-entry_bound, entry_bound]`` (or
    ``[0, entry_bound]`` under the nonnegative constraint).

    The solutions of one row of ``t`` are ``z0 + sum p_j * basis[j]``
    over the Hermite basis of the left kernel of ``k``; they come in
    lexicographic order of ``(p_0, p_1, ...)``, which is the
    lexicographic order of their entries at the basis pivot columns.
    Matrices come in lexicographic order of their rows' positions in
    those streams, first row outermost.  Each row's stream is
    materialised in full when iteration starts.

    ``k`` is eliminated once, by :func:`_reduce`, and ``t`` substituted
    once.  That one elimination serves every target as wide as ``k``,
    in two steps that keep nothing: :meth:`substitute` solves a target
    up to its lattice of solutions, and :meth:`row_streams` walks that
    lattice through the box.  Iteration walks the substitution of ``t``.

    ``consistent`` is False when the system has no integer solution at
    all, which is distinguishable from an enumeration that is merely
    empty at the given bound.
    """

    def __init__(self, k: Matrix, t: Matrix, constraint: str = "any", entry_bound: int = 0):
        if constraint not in ("any", "nonnegative"):
            raise ValueError(f"unknown constraint {constraint!r}")
        if entry_bound < 0:
            raise ValueError("entry_bound must be >= 0")
        if k.cols != t.cols:
            raise ValueError(
                f"shape mismatch: X*k has {k.cols} columns, t has {t.cols}"
            )
        self.k = k
        self.t = t
        self.entry_bound = entry_bound
        self.nonnegative = constraint == "nonnegative"
        self._reduced = _reduce(k)
        self._solved = _substitute(self._reduced, t.entries)
        self.consistent = self._solved is not None

    def substitute(self, t: Matrix):
        """The solution lattice of ``X * k = t`` for a ``t`` as wide as
        ``k``, from the one elimination of ``k``: ``None`` when the
        system has no integer solution, else a value that only
        :meth:`row_streams` reads."""
        if t.cols != self.k.cols:
            raise ValueError(f"shape mismatch: X*k has {self.k.cols} columns, t has {t.cols}")
        return self._solved if t.entries == self.t.entries else _substitute(self._reduced, t.entries)

    def row_streams(self, solved) -> list:
        """For each row of the target that :meth:`substitute` gave
        ``solved`` for, the tuple of its solutions within the bound."""
        return _row_streams(solved, self.entry_bound, self.nonnegative)

    def __iter__(self) -> Iterator[Matrix]:
        if self._solved is None:
            return
        for rows in itertools.product(*self.row_streams(self._solved)):
            yield Matrix._make(rows, self.k.rows)


def solve_matrix_eq(k: Matrix, t: Matrix, constraint: str = "any", entry_bound: int = 0) -> MatrixEqSolutions:
    """Enumerator for the integer solutions of ``X * k = t`` within an
    entry bound.  See :class:`MatrixEqSolutions`.

    The order is deterministic: each row's solutions come in
    lexicographic order of their coordinates along the Hermite basis of
    the left kernel of ``k``, not in the order of the entries.  Each
    row's stream is materialised when iteration starts."""
    return MatrixEqSolutions(k, t, constraint, entry_bound)
