"""Seeded op streams for the three benchmark workloads.

Each workload is an endless generator of :class:`Op` objects built from
one ``random.Random``; it yields None after each cycle of its op mix, the
only points where a timed run may stop, so every run holds the mix in
the same proportions.  An op's ``run`` calls the program (a library
function or ``colim.cli.main``) on inputs the generator made; its
``check`` judges the returned answer with :mod:`oracles` and returns a
description of what is wrong, or None.  Inputs are built and written to
disk before ``run`` is called, so only the program's work is timed.

The program is reached through module attributes (``M.snf``, ``C.main``)
looked up when an op runs, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterator, Optional

import colim.cli as C
import colim.colimit as Q
import colim.confluence as K
import colim.diagrams as D
import colim.formats as F
import colim.invariants as I
import colim.matrices as M

import oracles as O

@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is what the benchmark measures, ``TINY`` is
    for the warm-up and the exact-count test."""

    elim_sizes: tuple = tuple(range(2, 9))
    search_horizon: int = 12
    random_pairs_per_cycle: int = 100
    cert_depths: tuple = (6, 7, 8)
    query_horizons: tuple = (30, 60)


FULL = Scale()
TINY = Scale(
    elim_sizes=(2, 3, 4),
    search_horizon=6,
    random_pairs_per_cycle=3,
    cert_depths=(4,),
    query_horizons=(8, 10),
)


def make_ops(workload: str, seed: int, workdir: Path, scale: Scale = FULL) -> Iterator[Optional[Op]]:
    rng = random.Random(f"{workload}:{seed}")
    gen = {"search": _search, "elim": _elim, "check": _check}[workload]
    return gen(rng, workdir, scale)


# -- shared input construction -------------------------------------------


def _diag_text(mode, ranks, transitions, mono=False, period=None) -> str:
    doc = {"mode": mode, "mono": mono, "ranks": ranks, "transitions": transitions}
    if period is not None:
        doc["period"] = {"prefix_len": period[0], "period_len": period[1]}
    return json.dumps(doc)


def _cert_text(cert: dict) -> str:
    return json.dumps({"i_indices": cert["i"], "k_indices": cert["k"], "f_mats": cert["f"], "g_mats": cert["g"]})


def _random_matrix(rng, rows, cols, bound, nonneg=False) -> list:
    lo = 0 if nonneg else -bound
    return [[rng.randint(lo, bound) for _ in range(cols)] for _ in range(rows)]


def _unrolled(transitions: list, period: Optional[tuple], stages: int) -> dict:
    """Ranks and transitions of the first ``stages`` stages."""
    trans = list(transitions)
    while len(trans) < stages - 1:
        prefix, length = period
        trans.append(trans[prefix + (len(trans) - prefix) % length])
    trans = trans[: stages - 1]
    return {"ranks": [len(trans[0][0])] + [len(t) for t in trans], "transitions": trans}


def _rank1(mults: list, period=(0, 1)):
    return _diag_text("plain", [1] * (len(mults) + 1), [[[m]] for m in mults], True, period)


def _cli(argv: list) -> Callable[[], tuple]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = C.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _expect_lines(result, code: int, lines: list) -> Optional[str]:
    got_code, out, err = result
    if got_code != code:
        return f"exit code {got_code}, expected {code} ({err.strip()})"
    got = out.splitlines()
    if got[: len(lines)] != lines:
        return f"output {got[: len(lines)]!r}, expected {lines!r}"
    return None


def _elem(stage: int, vec) -> str:
    return f"{stage}:{','.join(str(x) for x in vec)}"


def _cert_lists(cert) -> dict:
    return {
        "i": list(cert.i_indices),
        "k": list(cert.k_indices),
        "f": [O.rows_of(m) for m in cert.f_mats],
        "g": [O.rows_of(m) for m in cert.g_mats],
    }


# -- search: budgeted certificate search -------------------------------------

# Rank-1 multiplier pairs with different prime sets: no certificate
# exists, so the search must exhaust.  Exhausting one costs 1.1-1.9 s at
# the seed; each run draws them as shuffled decks so every run gets the
# same mix of costs.
NONISO_PAIRS = ((2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 2), (5, 2), (7, 2))
# Isomorphic rank-1 pairs the seed finds at depth 3, bound 8, horizon 12.
ISO_PAIRS = ((2, 4), (2, 8), (4, 2), (4, 8), (8, 4), (3, 9), (9, 3), (5, 25), (25, 5), (6, 36), (7, 49), (49, 7))


def _deck(rng, items) -> Iterator:
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def _random_diagram(rng, stages, mode) -> tuple:
    nonneg = mode == "simplicial"
    ranks = [rng.randint(1, 3) for _ in range(stages)]
    trans = [_random_matrix(rng, ranks[t + 1], ranks[t], 3, nonneg) for t in range(stages - 1)]
    return ranks, trans


def _search(rng, workdir: Path, scale: Scale) -> Iterator[Optional[Op]]:
    noniso, iso = _deck(rng, NONISO_PAIRS), _deck(rng, ISO_PAIRS)
    a_path, b_path = str(workdir / "a.diag"), str(workdir / "b.diag")
    horizon = scale.search_horizon
    flags = ["--depth", "3", "--bound", "8", "--horizon", str(horizon)]
    for n in count():
        # x2/x3-like: must exhaust, exit 3
        x, y = next(noniso)
        Path(a_path).write_text(_rank1([x] * rng.randint(1, 3)))
        Path(b_path).write_text(_rank1([y] * rng.randint(1, 3)))
        yield Op(
            "search.cli.noniso",
            _cli(["search", a_path, b_path] + flags),
            lambda r: _expect_lines(r, 3, ["status: exhausted"]),
        )
        # x2/x4-like: must find a certificate, re-checked here
        x, y = next(iso)
        Path(a_path).write_text(_rank1([x] * rng.randint(1, 3)))
        Path(b_path).write_text(_rank1([y] * rng.randint(1, 3)))
        yield Op("search.cli.iso", _cli(["search", a_path, b_path] + flags), _found_check(x, y, horizon))
        for m in range(scale.random_pairs_per_cycle):
            stages = 3 + m % 2
            mode = "simplicial" if (n + m) % 4 >= 2 else "plain"
            yield _random_search_op(rng, stages, mode)
        yield None


def _found_check(x: int, y: int, horizon: int):
    a = _unrolled([[[x]]], (0, 1), horizon)
    b = _unrolled([[[y]]], (0, 1), horizon)

    def check(result):
        problem = _expect_lines(result, 0, ["status: found", "depth: 3"])
        if problem:
            return problem
        body = result[1].split("\n", 4)[4]
        doc = json.loads(body)
        cert = {"i": doc["i_indices"], "k": doc["k_indices"], "f": doc["f_mats"], "g": doc["g_mats"]}
        return O.certificate_problem(a, b, cert, False, 8)

    return check


def _random_search_op(rng, stages: int, mode: str) -> Op:
    ranks_a, trans_a = _random_diagram(rng, stages, mode)
    ranks_b, trans_b = _random_diagram(rng, stages, mode)
    seq_a = D.SequenceDiagram(mode, ranks_a, [M.Matrix(t) for t in trans_a])
    seq_b = D.SequenceDiagram(mode, ranks_b, [M.Matrix(t) for t in trans_b])
    budget = K.SearchBudget(3, 3, stages, 100)

    def run():
        cert = K.search_confluence(seq_a, seq_b, budget)
        return cert, (F.emit_certificate(cert) if cert is not None else None)

    def check(result):
        cert, text = result
        if cert is None:
            return None  # a budgeted search may legitimately find nothing
        lists = _cert_lists(cert)
        doc = json.loads(text)
        if [doc["i_indices"], doc["k_indices"], doc["f_mats"], doc["g_mats"]] != [lists[k] for k in "ikfg"]:
            return "emitted certificate differs from the returned one"
        a = {"ranks": ranks_a, "transitions": trans_a}
        b = {"ranks": ranks_b, "transitions": trans_b}
        return O.certificate_problem(a, b, lists, mode == "simplicial", 3)

    return Op("search.lib.random", run, check)


# -- elim: exact elimination -------------------------------------------------

# At the seed, ``snf`` of a random n x n matrix with entries in [-9, 9]
# often lets its entries grow far: one passes 4096 bits for about 7% of
# the drawn matrices at n = 6, 60% at n = 7 and 98% at n = 8, and many of
# those SNFs run for seconds or more.  Such an op cannot be measured, and
# a deadline would make the count of failed ops depend on the
# machine's speed, so every elim matrix is screened before it reaches the
# program: ``snf_growth`` replays the seed's pivoting on the matrix, and
# the workload draws again when an entry passes ``GROWTH_CAP_BITS`` bits.
# The screen is benchmark code and does not change when the program does,
# so a later kernel gets the same inputs.  The kept matrices still blow
# up to thousands of bits at the seed, which is the cost ROADMAP item 1
# removes.
GROWTH_CAP_BITS = 4096
GROWTH_CAP_STEPS = 20_000
# n -> [kept, redrawn] over the run, reported by run.py
SCREENED: dict = {}


def snf_growth(m: list, cap_bits: int = GROWTH_CAP_BITS, cap_steps: int = GROWTH_CAP_STEPS) -> Optional[int]:
    """Largest entry bit length the seed's ``snf`` pivoting reaches on
    ``m``, or None once it passes ``cap_bits`` or takes ``cap_steps``
    row and column operations.

    Same pivot rule as the seed: smallest nonzero absolute value, first by
    row then column; remainders that stay nonzero become the pivot; a row
    that the pivot does not divide is folded into the pivot row.
    """
    a = [list(r) for r in m]
    rows, cols = len(a), len(a[0])
    limit = 1 << cap_bits  # an entry this large has cap_bits + 1 bits
    peak = max(max(map(abs, r)) for r in a)
    steps = 0

    def grew(values) -> bool:
        nonlocal peak, steps
        steps += 1
        peak = max(peak, max(map(abs, values)))
        return peak >= limit or steps > cap_steps

    t = 0
    while t < min(rows, cols):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not nonzero:
            break
        _, pr, pc = min(nonzero)
        a[t], a[pr] = a[pr], a[t]
        for r in a:
            r[t], r[pc] = r[pc], r[t]
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if grew(a[i]):
                        return None
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if grew([r[j] for r in a]):
                        return None
                    if a[t][j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
            if not any(a[i][t] for i in range(t + 1, rows)) and not any(a[t][t + 1 :]):
                break
        d = a[t][t]
        bad = next((i for i in range(t + 1, rows) if any(x % d for x in a[i][t + 1 :])), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            if grew(a[t]):
                return None
            continue
        t += 1
    return peak.bit_length()


def _screened(rng, n: int, draw) -> list:
    """A matrix from ``draw(rng, n)`` whose seed SNF stays under the cap."""
    tally = SCREENED.setdefault(n, [0, 0])
    while True:
        m = draw(rng, n)
        if snf_growth(m) is not None:
            tally[0] += 1
            return m
        tally[1] += 1


def _full(rng, n: int) -> list:
    entries = rng.choices(range(-9, 10), k=n * n)
    return [entries[i : i + n] for i in range(0, n * n, n)]


def _deficient(rng, n: int) -> list:
    """n x n matrix of rank at most n-1 or n-2 with entries in [-9, 9]:
    random base rows in [-4, 4], the rest sums or differences of two."""
    r = max(1, n - rng.randint(1, 2))
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
    while len(rows) < n:
        a, b = rng.choice(rows[:r]), rng.choice(rows[:r])
        sign = rng.choice((1, -1))
        rows.append([x + sign * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def _elim(rng, workdir: Path, scale: Scale) -> Iterator[Optional[Op]]:
    while True:
        for n in scale.elim_sizes:
            yield _validate_op(rng, n)
            yield _snf_op(_screened(rng, n, _full))
            for draw in (_full, _deficient):
                yield _rank_op(_screened(rng, n, draw))
            for draw in (_full, _deficient):
                yield _kernel_op(_screened(rng, n, draw))
        yield None


def _validate_op(rng, n: int) -> Op:
    trans = [_screened(rng, n, _full) for _ in range(2)]
    if rng.random() < 0.25:
        trans[1] = _screened(rng, n, _deficient)
    seq = D.SequenceDiagram("plain", [n] * 3, [M.Matrix(t) for t in trans], True)

    def check(report):
        want = [f"non-injective transition {t}" for t, m in enumerate(trans, 1) if O.bareiss_rank(m) < n]
        return None if report.violations == want else f"violations {report.violations}, expected {want}"

    return Op(f"elim.validate.{n}", lambda: D.validate(seq), check)


def _snf_op(m: list) -> Op:
    mat = M.Matrix(m)
    return Op(f"elim.snf.{len(m)}", lambda: M.snf(mat), lambda r: O.check_snf(m, *r))


def _rank_op(m: list) -> Op:
    mat = M.Matrix(m)

    def check(r):
        want = O.bareiss_rank(m)
        return None if r == want else f"rank {r}, expected {want}"

    return Op(f"elim.rank.{len(m)}", lambda: M.rank(mat), check)


def _kernel_op(m: list) -> Op:
    mat = M.Matrix(m)
    return Op(f"elim.kernel.{len(m)}", lambda: M.kernel_basis(mat), lambda k: O.check_kernel(m, k))


# -- check: verify and refute existing certificates ----------------------------


def _check(rng, workdir: Path, scale: Scale) -> Iterator[Optional[Op]]:
    paths = {name: str(workdir / name) for name in ("a.diag", "b.diag", "c.cert")}
    for n in count():
        yield from _certificate_ops(rng, paths, scale, "simplicial" if n % 2 else "plain")
        yield from _query_ops(rng, scale)
        yield _evidence_op(rng)
        yield _invariants_cli_op(rng, paths)
        yield None


def _split_pair(rng, depth: int, mode: str) -> tuple:
    """(A, B, certificate) from random interleaving maps, so the
    certificate is valid by construction."""
    nonneg = mode == "simplicial"
    ra = [rng.randint(1, 3) for _ in range(depth)]
    rb = [rng.randint(1, 3) for _ in range(depth)]
    f = [_random_matrix(rng, rb[n], ra[n], 2, nonneg) for n in range(depth)]
    g = [_random_matrix(rng, ra[n + 1], rb[n], 2, nonneg) for n in range(depth - 1)]
    a = {"ranks": ra, "transitions": [O.matmul(g[n], f[n]) for n in range(depth - 1)]}
    b = {"ranks": rb, "transitions": [O.matmul(f[n + 1], g[n]) for n in range(depth - 1)]}
    cert = {"i": list(range(1, depth + 1)), "k": list(range(1, depth + 1)), "f": f, "g": g}
    return a, b, cert


def _certificate_ops(rng, paths: dict, scale: Scale, mode: str) -> Iterator[Op]:
    depth = rng.choice(scale.cert_depths)
    a, b, cert = _split_pair(rng, depth, mode)
    texts = (
        _diag_text(mode, a["ranks"], a["transitions"]),
        _diag_text(mode, b["ranks"], b["transitions"]),
        _cert_text(cert),
    )

    def parsed():
        return F.parse_diagram(texts[0]), F.parse_diagram(texts[1]), F.parse_certificate(texts[2])

    def verify_op(cert_text, want_failure):
        def run():
            seq_a, seq_b, c = F.parse_diagram(texts[0]), F.parse_diagram(texts[1]), F.parse_certificate(cert_text)
            return K.verify_certificate(seq_a, seq_b, c)

        def check(report):
            if want_failure is None:
                return None if report.accepted else f"valid certificate rejected: {report.failures}"
            if report.accepted or not report.failures[0].startswith(want_failure):
                return f"tampered certificate: {report.failures}, expected {want_failure}"
            return None

        return Op("check.verify", run, check)

    yield verify_op(texts[2], None)

    # one entry of one backward map off by one: the verifier must name the
    # first identity that breaks (if any does)
    bad = dict(cert, g=[[list(row) for row in m] for m in cert["g"]])
    lvl = rng.randrange(depth - 1)
    bad["g"][lvl][rng.randrange(len(bad["g"][lvl]))][rng.randrange(len(bad["g"][lvl][0]))] += 1
    yield verify_op(_cert_text(bad), O.first_failing_equation(a, b, bad))

    for backward in (False, True):
        stage = rng.randint(1, depth - 1)
        ranks = b["ranks"] if backward else a["ranks"]
        vec = [rng.randint(-3, 3) for _ in range(ranks[stage - 1])]
        want = O.backward_image(b, cert, stage, vec) if backward else O.forward_image(a, cert, stage, vec)
        direction = K.BACKWARD if backward else K.FORWARD

        def run(direction=direction, stage=stage, vec=vec):
            seq_a, seq_b, c = parsed()
            return K.induced_map(seq_a, seq_b, c, direction, Q.ColimitElement(stage, vec))

        def check(e, want=want):
            got = (e.stage, list(e.vec))
            return None if got == want else f"induced image {got}, expected {want}"

        yield Op("check.induced", run, check)

    samples = []
    for ranks in (a["ranks"], b["ranks"]):
        stages = [rng.randint(1, depth - 2) for _ in range(4)]
        samples.append([(s, [rng.randint(-3, 3) for _ in range(ranks[s - 1])]) for s in stages])

    def roundtrip():
        seq_a, seq_b, c = parsed()
        elems = [[Q.ColimitElement(s, v) for s, v in side] for side in samples]
        return K.roundtrip_check(seq_a, seq_b, c, elems[0], elems[1], depth)

    yield Op(
        "check.roundtrip",
        roundtrip,
        lambda r: None if r.ok and r.checked == sum(map(len, samples)) else f"round trip: {r.checked} checked, {r.failures}",
    )

    for name, text in zip(("a.diag", "b.diag", "c.cert"), texts):
        Path(paths[name]).write_text(text)
    files = [paths["a.diag"], paths["b.diag"], paths["c.cert"]]
    yield Op("check.cli.verify", _cli(["verify"] + files), lambda r: _expect_lines(r, 0, ["status: accepted"]))
    stage = rng.randint(1, depth)
    vec = [rng.randint(-3, 3) for _ in range(a["ranks"][stage - 1])]
    image = _elem(*O.forward_image(a, cert, stage, vec))
    yield Op(
        "check.cli.map",
        _cli(["map"] + files + ["--element", _elem(stage, vec)]),
        lambda r, image=image: _expect_lines(r, 0, [f"image: {image}"]),
    )


def _query_diagram(rng, simplicial: bool) -> tuple:
    r = rng.randint(2, 3)
    period = (rng.randint(0, 1), rng.randint(1, 2))
    trans = [_random_matrix(rng, r, r, 2, simplicial) for _ in range(sum(period))]
    mode = "simplicial" if simplicial else "plain"
    return _diag_text(mode, [r] * (len(trans) + 1), trans, False, period), trans, period, r


def _query_ops(rng, scale: Scale) -> Iterator[Op]:
    """The five colimit queries, each on a fresh periodic diagram read from
    text, at a horizon drawn from ``scale.query_horizons``."""
    lo, hi = scale.query_horizons

    def query(kind, simplicial, build):
        text, trans, period, r = _query_diagram(rng, simplicial)
        horizon = rng.randint(lo, hi)
        unrolled = _unrolled(trans, period, horizon)["transitions"]
        call, want = build(r, unrolled, horizon)

        def run():
            return call(F.parse_diagram(text))

        return Op(f"check.query.{kind}", run, lambda got: None if got == want else f"{kind}: {got}, expected {want}")

    def vec(r):
        return [rng.randint(-3, 3) for _ in range(r)]

    def trilean(t):
        return (t.kind, t.stage)

    def equal(r, trans, h):
        s1, s2 = rng.randint(1, 4), rng.randint(1, 4)
        v1 = vec(r)
        v2 = O.push(trans, v1, s1, s2) if s2 >= s1 and rng.random() < 0.5 else vec(r)
        want = O.equal_at(trans, s1, v1, s2, v2, h)
        t1, t2 = _elem(s1, v1), _elem(s2, v2)
        return (lambda seq: trilean(Q.equal_at(seq, F.parse_element(t1), F.parse_element(t2), h))), want

    def equalizer(r, trans, h):
        i = rng.randint(1, 3)
        j = i + rng.randint(0, 3)
        p = O.composite(trans, [r] * h, i, j)
        if rng.random() < 0.5:
            p[rng.randrange(r)][rng.randrange(r)] += 1
        want = O.eventual_equalizer(trans, [r] * h, i, j, p, h)
        pm = M.Matrix(p)
        return (lambda seq: trilean(Q.eventual_equalizer(seq, i, j, pm, h))), want

    def factor(r, trans, h):
        images = [(rng.randint(1, 4), vec(r)) for _ in range(rng.randint(1, 3))]
        texts = [_elem(s, v) for s, v in images]
        want = O.factor_through_stage(trans, images, h, True)

        def call(seq):
            got = Q.factor_through_stage(seq, [F.parse_element(t) for t in texts], h)
            return None if got is None else (got[0], O.rows_of(got[1]))

        return call, want

    def divisible(r, trans, h):
        s, v, m = rng.randint(1, 4), vec(r), rng.choice((2, 3, 4, 6))
        want = O.first_stage(trans, s, v, h, lambda x: all(c % m == 0 for c in x))
        t = _elem(s, v)
        return (lambda seq: trilean(Q.divisible(seq, F.parse_element(t), m, h))), want

    def cone(r, trans, h):
        s, v = rng.randint(1, 4), vec(r)
        want = O.first_stage(trans, s, v, h, lambda x: all(c >= 0 for c in x))
        t = _elem(s, v)
        return (lambda seq: trilean(Q.cone_member(seq, F.parse_element(t), h))), want

    yield query("equal", False, equal)
    yield query("equalizer", False, equalizer)
    yield query("factor", True, factor)
    yield query("divisible", False, divisible)
    yield query("cone", True, cone)


# Period multipliers are semiprimes of two 15-16-bit primes, about 32
# bits, which the invariants layer must factor; small primes fill the
# finite prefix and may join the period.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _large_prime(rng) -> int:
    while True:
        p = rng.randrange(2**14, 2**16) | 1
        if _is_prime(p):
            return p


def _rank1_invariant_pair(rng, same: bool) -> list:
    """Two rank-1 periodic diagrams as ``(text, period factors, prefix
    factors)``; their sets of period primes agree exactly when ``same``."""
    small = rng.choice(SMALL_PRIMES) if rng.random() < 0.5 else None
    a_primes = [_large_prime(rng), _large_prime(rng)]
    b_primes = list(a_primes)
    while not same and b_primes[1] in a_primes:
        b_primes[1] = _large_prime(rng)
    sides = []
    for p1, p2 in (a_primes, b_primes):
        period = [{p1: 1, p2: 1}]
        if small is not None:
            extra = {small: rng.randint(1, 2)}
            period = period + [extra] if rng.random() < 0.5 else [{**period[0], **extra}]
        prefix = [{rng.choice(SMALL_PRIMES): rng.randint(1, 2)} for _ in range(rng.randint(0, 2))]
        mults = [_product(fac) for fac in prefix + period]
        sides.append((_rank1(mults, (len(prefix), len(period))), period, prefix))
    return sides


def _product(factors: dict) -> int:
    out = 1
    for p, e in factors.items():
        out *= p**e
    return out


def _evidence_op(rng) -> Op:
    same = rng.random() < 0.5
    (text_a, _, _), (text_b, _, _) = _rank1_invariant_pair(rng, same)

    def run():
        return I.noniso_evidence(F.parse_diagram(text_a), F.parse_diagram(text_b))

    def check(report):
        if report.conclusive == same or len(report.entries) != (0 if same else 1):
            return f"evidence {[e.message for e in report.entries]}, expected {'none' if same else 'conclusive'}"
        return None

    return Op("check.evidence", run, check)


def _invariants_cli_op(rng, paths: dict) -> Op:
    same = rng.random() < 0.5
    (text_a, per_a, pre_a), (text_b, per_b, pre_b) = _rank1_invariant_pair(rng, same)
    sa, sb = O.steinitz_text(per_a, pre_a), O.steinitz_text(per_b, pre_b)
    Path(paths["a.diag"]).write_text(text_a)
    Path(paths["b.diag"]).write_text(text_b)
    lines = []
    for label, s in (("A", sa), ("B", sb)):
        lines += [f"{label}.rank: 1", f"{label}.rank_stabilized: true", f"{label}.steinitz: {s}"]
    lines.append("evidence: none" if same else f"evidence: CONCLUSIVE supernatural invariants inequivalent: {sa} vs {sb}")
    return Op("check.cli.invariants", _cli(["invariants", paths["a.diag"], paths["b.diag"]]), lambda r: _expect_lines(r, 0, lines))
