"""Answer checks that share no code with the colim layer they check.

Matrices here are plain lists of integer rows, all with at least one row
and one column.  Every routine is written independently (schoolbook
products, fraction-free elimination), so a bug in ``colim.matrices`` or
``colim.diagrams`` cannot hide itself by also corrupting the oracle.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def rows_of(m) -> list:
    """Rows of a ``colim.matrices.Matrix`` as lists."""
    return [list(r) for r in m.entries]


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def apply(a: list, vec) -> list:
    return [sum(x * y for x, y in zip(row, vec)) for row in a]


def bareiss_rank(a: list) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination."""
    a = [list(r) for r in a]
    rows, cols = len(a), len(a[0])
    r, prev = 0, 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
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


def bareiss_det(a: list) -> int:
    n = len(a)
    a = [list(r) for r in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- matrices --------------------------------------------------------------


def check_snf(m: list, s, u, v) -> str | None:
    """``u*m*v == s``, unimodular transforms, and the divisibility chain."""
    s, u, v = rows_of(s), rows_of(u), rows_of(v)
    if matmul(matmul(u, m), v) != s:
        return "snf: u*m*v != s"
    if abs(bareiss_det(u)) != 1 or abs(bareiss_det(v)) != 1:
        return "snf: transform is not unimodular"
    if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
        return "snf: s is not diagonal"
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    if any(d < 0 for d in diag):
        return "snf: negative invariant factor"
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return "snf: divisibility chain broken"
    if sum(1 for d in diag if d) != bareiss_rank(m):
        return "snf: rank disagrees with fraction-free elimination"
    return None


def check_kernel(m: list, k) -> str | None:
    """Columns of ``k`` are a basis of the integer kernel of ``m``."""
    cols = len(m[0])
    want = cols - bareiss_rank(m)
    if (k.rows, k.cols) != (cols, want):
        return f"kernel: basis is {k.rows}x{k.cols}, expected {cols}x{want}"
    if want == 0:
        return None
    k = rows_of(k)
    if any(any(row) for row in matmul(m, k)):
        return "kernel: m*k != 0"
    # full column rank and coprime maximal minors: a basis of the
    # saturated kernel lattice, not of a sublattice
    minors = 0
    for pick in combinations(range(cols), want):
        minors = gcd(minors, bareiss_det([k[i] for i in pick]))
        if minors == 1:
            return None
    return "kernel: basis spans a proper sublattice of the kernel"


# -- diagrams and certificates ----------------------------------------------


def composite(trans: list, ranks: list, i: int, j: int) -> list:
    """Stage ``i`` to stage ``j`` composite of a 1-based transition list."""
    m = identity(ranks[i - 1])
    for t in range(i - 1, j - 1):
        m = matmul(trans[t], m)
    return m


def first_failing_equation(a: dict, b: dict, cert: dict) -> str | None:
    """First certificate identity that fails, in the verifier's words.

    ``a``/``b`` are unrolled diagrams ``{"ranks", "transitions"}`` long
    enough for the certificate; ``cert`` holds ``i``, ``k``, ``f``, ``g``
    as plain lists.
    """
    i_idx, k_idx, f, g = cert["i"], cert["k"], cert["f"], cert["g"]
    for n in range(len(i_idx) - 1):
        if matmul(g[n], f[n]) != composite(a["transitions"], a["ranks"], i_idx[n], i_idx[n + 1]):
            return f"equation (1) fails at level n={n + 1}"
        if matmul(f[n + 1], g[n]) != composite(b["transitions"], b["ranks"], k_idx[n], k_idx[n + 1]):
            return f"equation (2) fails at level n={n + 1}"
    return None


def certificate_problem(a: dict, b: dict, cert: dict, simplicial: bool, bound: int) -> str | None:
    """Every condition a found certificate must meet, or None."""
    i_idx, k_idx, f, g = cert["i"], cert["k"], cert["f"], cert["g"]
    depth = len(i_idx)
    if depth < 2 or len(k_idx) != depth or len(f) != depth or len(g) != depth - 1:
        return "certificate: inconsistent depth"
    for idx, length in ((i_idx, len(a["ranks"])), (k_idx, len(b["ranks"]))):
        if idx[0] < 1 or idx[-1] > length or any(x >= y for x, y in zip(idx, idx[1:])):
            return "certificate: indices not strictly increasing within the horizon"
    entries = [x for mat in f + g for row in mat for x in row]
    if any(abs(x) > bound for x in entries):
        return "certificate: entry beyond the search bound"
    if simplicial and any(x < 0 for x in entries):
        return "certificate: negative entry in simplicial mode"
    return first_failing_equation(a, b, cert)


def forward_image(a: dict, cert: dict, stage: int, vec) -> tuple:
    n = next(n for n, i in enumerate(cert["i"]) if i >= stage)
    x = apply(composite(a["transitions"], a["ranks"], stage, cert["i"][n]), vec)
    return cert["k"][n], apply(cert["f"][n], x)


def backward_image(b: dict, cert: dict, stage: int, vec) -> tuple:
    n = next(n for n, k in enumerate(cert["k"]) if k >= stage)
    x = apply(composite(b["transitions"], b["ranks"], stage, cert["k"][n]), vec)
    return cert["i"][n + 1], apply(cert["g"][n], x)


# -- colimit queries ---------------------------------------------------------


def push(trans: list, vec, i: int, j: int) -> list:
    """Push a vector from stage ``i`` to stage ``j``."""
    vec = list(vec)
    for t in range(i - 1, j - 1):
        vec = apply(trans[t], vec)
    return vec


def equal_at(trans: list, s1: int, v1, s2: int, v2, horizon: int) -> tuple:
    start = max(s1, s2)
    x1, x2 = push(trans, v1, s1, start), push(trans, v2, s2, start)
    for k in range(start, horizon + 1):
        if x1 == x2:
            return ("yes", k)
        if k < horizon:
            x1, x2 = apply(trans[k - 1], x1), apply(trans[k - 1], x2)
    return ("unknown", horizon)


def eventual_equalizer(trans: list, ranks: list, i: int, j: int, p: list, horizon: int) -> tuple:
    lhs, rhs = p, composite(trans, ranks, i, j)
    for i0 in range(j, horizon + 1):
        if lhs == rhs:
            return ("yes", i0)
        if i0 < horizon:
            lhs, rhs = matmul(trans[i0 - 1], lhs), matmul(trans[i0 - 1], rhs)
    return ("unknown", horizon)


def factor_through_stage(trans: list, images: list, horizon: int, simplicial: bool):
    start = max(s for s, _ in images)
    cols = [push(trans, v, s, start) for s, v in images]
    for i0 in range(start, horizon + 1):
        if not (simplicial and any(x < 0 for c in cols for x in c)):
            return i0, [list(r) for r in zip(*cols)]
        if i0 < horizon:
            cols = [apply(trans[i0 - 1], c) for c in cols]
    return None


def first_stage(trans: list, stage: int, vec, horizon: int, pred) -> tuple:
    """Least stage within the horizon whose pushforward satisfies ``pred``."""
    x = list(vec)
    for k in range(stage, horizon + 1):
        if pred(x):
            return ("yes", k)
        if k < horizon:
            x = apply(trans[k - 1], x)
    return ("unknown", horizon)


# -- invariants --------------------------------------------------------------


def steinitz_text(period_factors: list, prefix_factors: list) -> str:
    """Printed supernatural number of a rank-1 periodic diagram whose
    multipliers are given as ``{prime: exponent}`` maps."""
    infinite = {p for fac in period_factors for p in fac}
    finite: dict = {}
    for fac in prefix_factors:
        for p, e in fac.items():
            if p not in infinite:
                finite[p] = finite.get(p, 0) + e
    parts = []
    for p in sorted(infinite | set(finite)):
        e = finite.get(p)
        parts.append(f"{p}^inf" if e is None else (str(p) if e == 1 else f"{p}^{e}"))
    return "*".join(parts) if parts else "1"
