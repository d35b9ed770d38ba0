from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colim import confluence, matrices
from colim.colimit import ColimitElement, equal_at
from colim.confluence import (
    BACKWARD,
    FORWARD,
    CertificatePeriod,
    ConfluenceCertificate,
    SearchBudget,
    induced_map,
    roundtrip_check,
    search_confluence,
    verify_certificate,
)
from colim.diagrams import SequenceDiagram, transition
from colim.matrices import Matrix, iter_matrices, solve_matrix_eq

from conftest import random_diagram, random_matrix, rank1, recursion_limit

X2 = rank1([2, 2], period=(0, 1))
X3 = rank1([3, 3], period=(0, 1))
X4 = rank1([4, 4], period=(0, 1))
FIB = SequenceDiagram("simplicial", [2, 2], [Matrix([[1, 1], [1, 0]])], False, (0, 1))

X2_X4_CERT = ConfluenceCertificate(
    [1, 3, 5], [1, 2, 3], [Matrix([[1]])] * 3, [Matrix([[4]])] * 2
)


def scalars(*values):
    return [Matrix([[v]]) for v in values]


def truncate_certificate(cert, depth):
    """The first ``depth >= 2`` levels of a certificate, without its
    periodic block."""
    assert 2 <= depth <= cert.depth
    return ConfluenceCertificate(
        cert.i_indices[:depth], cert.k_indices[:depth], cert.f_mats[:depth], cert.g_mats[: depth - 1]
    )


def self_certificate(seq, depth):
    """Identity interleaving: f_n = id, g_n = the n-th transition."""
    return ConfluenceCertificate(
        range(1, depth + 1),
        range(1, depth + 1),
        [transition(seq, n, n) for n in range(1, depth + 1)],
        [transition(seq, n, n + 1) for n in range(1, depth)],
    )


def split_pair(rng, depth, mode="plain", max_rank=3, bound=2):
    """Build (A, B, certificate) from random interleaving maps, so the
    certificate is valid by construction."""
    nonneg = mode == "simplicial"
    ranks_a = [rng.randint(1, max_rank) for _ in range(depth)]
    ranks_b = [rng.randint(1, max_rank) for _ in range(depth)]
    f = [random_matrix(rng, ranks_b[n], ranks_a[n], bound, nonneg) for n in range(depth)]
    g = [random_matrix(rng, ranks_a[n + 1], ranks_b[n], bound, nonneg) for n in range(depth - 1)]
    a_trans = [g[n] * f[n] for n in range(depth - 1)]
    b_trans = [f[n + 1] * g[n] for n in range(depth - 1)]
    seqA = SequenceDiagram(mode, ranks_a, a_trans)
    seqB = SequenceDiagram(mode, ranks_b, b_trans)
    cert = ConfluenceCertificate(range(1, depth + 1), range(1, depth + 1), f, g)
    return seqA, seqB, cert


def reference_search(seqA, seqB, budget):
    """The search's back-and-forth DFS written out plainly, with one
    uncached ``solve_matrix_eq`` per target: returns the certificate (or
    None), the number of nodes visited, the one that ran out included,
    and the targets the walk enters before it stops, the set of
    ``(side, start stage, K, next stage)`` whose system is consistent."""
    seqs = (seqA, seqB)
    constraint = "nonnegative" if seqA.simplicial else "any"
    last = [budget.stage_horizon if s.has_stage(budget.stage_horizon) else s.length for s in seqs]
    nodes, entered = 0, set()

    class OutOfNodes(Exception):
        pass

    def visit():
        nonlocal nodes
        nodes += 1
        if nodes > budget.node_limit:
            raise OutOfNodes

    def extend(stages, maps):
        if len(maps) == 2 * budget.depth - 1:
            return ConfluenceCertificate(stages[0::2], stages[1::2], maps[0::2], maps[1::2])
        side = len(stages) % 2
        for nxt in range(stages[-2] + 1, last[side] + 1):
            target = transition(seqs[side], stages[-2], nxt)
            sols = solve_matrix_eq(maps[-1], target, constraint, budget.entry_bound)
            if sols.consistent:
                entered.add((side, stages[-2], maps[-1], nxt))
            for h in sols:
                visit()
                found = extend(stages + [nxt], maps + [h])
                if found is not None:
                    return found
        return None

    try:
        for i1 in range(1, last[0] + 1):
            for k1 in range(1, last[1] + 1):
                ranks = (seqB.rank_at(k1), seqA.rank_at(i1))
                for f1 in iter_matrices(*ranks, budget.entry_bound, seqA.simplicial):
                    visit()
                    found = extend([i1, k1], [f1])
                    if found is not None:
                        return found, nodes, entered
    except OutOfNodes:
        pass
    return None, nodes, entered


class TestVerify:
    def test_self_confluence(self):
        cert = self_certificate(X2, 3)
        assert verify_certificate(X2, X2, cert).accepted

    def test_x2_x4_certificate(self):
        assert verify_certificate(X2, X4, X2_X4_CERT).accepted

    def test_arithmetic_mismatch_pinpointed(self):
        bad = ConfluenceCertificate(
            [1, 3, 5], [1, 2, 3], [Matrix([[1]])] * 3, [Matrix([[2]]), Matrix([[4]])]
        )
        report = verify_certificate(X2, X4, bad)
        assert not report.accepted
        assert "equation (1)" in report.failures[0] and "n=1" in report.failures[0]

    def test_nonmonotone_indices_rejected(self):
        bad = ConfluenceCertificate([1, 1], [1, 2], [Matrix([[1]])] * 2, [Matrix([[2]])])
        assert not verify_certificate(X2, X2, bad).accepted

    def test_simplicial_negativity_rejected(self):
        bad = ConfluenceCertificate(
            [1, 2], [1, 2], [Matrix([[-1, 0], [0, 1]]), Matrix.identity(2)], [Matrix([[1, 1], [1, 0]])]
        )
        report = verify_certificate(FIB, FIB, bad)
        assert not report.accepted
        assert any("negative" in f for f in report.failures)

    def test_mode_mismatch(self):
        x2s = SequenceDiagram("simplicial", [1, 1], [Matrix([[2]])], False, (0, 1))
        assert not verify_certificate(X2, x2s, self_certificate(X2, 2)).accepted

    def test_truncation_still_verifies(self, rng):
        for depth in (3, 4):
            seqA, seqB, cert = split_pair(rng, depth)
            assert verify_certificate(seqA, seqB, cert).accepted
            for m in range(2, depth + 1):
                assert verify_certificate(seqA, seqB, truncate_certificate(cert, m)).accepted

    @pytest.mark.parametrize("seqB, cert, failure", [
        (X4, ConfluenceCertificate([1], [1], scalars(1), []), "certificate depth 1 < 2"),
        (X4, ConfluenceCertificate([1, 3], [1], scalars(1, 1), scalars(4)),
         "index and map counts disagree with the certificate depth"),
        (X4, ConfluenceCertificate([1, 3], [1, 2], scalars(1, 1), scalars(4, 4, 4)),
         "expected 1 (or 2) backward maps, got 3"),
        (rank1([4, 4]), ConfluenceCertificate([1, 3], [1, 5], scalars(1, 1), scalars(4)),
         "certificate stages exceed the diagram truncations"),
    ])
    def test_structural_rejection(self, seqB, cert, failure):
        report = verify_certificate(X2, seqB, cert)
        assert not report.accepted
        assert report.failures == [failure]

    def test_periodic_certificate_accepted(self):
        cert = ConfluenceCertificate(
            [1, 3, 5], [1, 2, 3], [Matrix([[1]])] * 3, [Matrix([[4]])] * 2,
            CertificatePeriod(2, 1, 1),
        )
        report = verify_certificate(X2, X4, cert)
        assert report.accepted and report.periodic_accepted

    def test_periodic_claim_rejected_without_diagram_periods(self):
        cert = ConfluenceCertificate(
            [1, 3, 5], [1, 2, 3], [Matrix([[1]])] * 3, [Matrix([[4]])] * 2,
            CertificatePeriod(2, 1, 1),
        )
        a = rank1([2] * 5)
        b = rank1([4] * 3)
        report = verify_certificate(a, b, cert)
        assert report.accepted and report.periodic_accepted is False


class TestInducedMap:
    def test_forward_base(self):
        assert induced_map(X2, X4, X2_X4_CERT, FORWARD, ColimitElement(1, [1])) == ColimitElement(1, [1])

    def test_forward_pushes_first(self):
        got = induced_map(X2, X4, X2_X4_CERT, FORWARD, ColimitElement(2, [1]))
        assert got == ColimitElement(2, [2])

    def test_self_certificate_is_identity_up_to_equality(self, rng):
        cert = self_certificate(X2, 3)
        for x in range(-3, 4):
            e = ColimitElement(1, [x])
            image = induced_map(X2, X2, cert, FORWARD, e)
            assert equal_at(X2, e, image, 5).is_yes

    def test_stage_beyond_certificate(self):
        with pytest.raises(ValueError):
            induced_map(X2, X4, X2_X4_CERT, FORWARD, ColimitElement(6, [1]))
        with pytest.raises(ValueError):
            induced_map(X2, X4, X2_X4_CERT, BACKWARD, ColimitElement(3, [1]))

    def test_cocone_coherence(self, rng):
        # forward images of an element and of its pushforward agree
        for _ in range(20):
            seqA, seqB, cert = split_pair(rng, 3)
            i = rng.randint(1, 2)
            j = rng.randint(i, 3)
            x = [rng.randint(-3, 3) for _ in range(seqA.ranks[i - 1])]
            e = ColimitElement(i, x)
            e2 = ColimitElement(j, transition(seqA, i, j).apply(x))
            im1 = induced_map(seqA, seqB, cert, FORWARD, e)
            im2 = induced_map(seqA, seqB, cert, FORWARD, e2)
            assert equal_at(seqB, im1, im2, 3).is_yes


class TestRoundtrip:
    def test_self_certificate(self):
        cert = self_certificate(X2, 3)
        samples = [ColimitElement(1, [x]) for x in range(-2, 3)]
        assert roundtrip_check(X2, X2, cert, samples, samples, 5).ok

    def test_x2_x4_single_element(self):
        report = roundtrip_check(X2, X4, X2_X4_CERT, [ColimitElement(1, [1])], [], 5)
        assert report.ok

    def test_x2_x4_random_samples(self, rng):
        samples_a = [ColimitElement(rng.randint(1, 3), [rng.randint(-9, 9)]) for _ in range(20)]
        samples_b = [ColimitElement(rng.randint(1, 2), [rng.randint(-9, 9)]) for _ in range(20)]
        report = roundtrip_check(X2, X4, X2_X4_CERT, samples_a, samples_b, 8)
        assert report.ok, report.failures


class TestSearch:
    def test_finds_x2_x4(self):
        cert = search_confluence(X2, X4, SearchBudget(3, 8, 12, 200000))
        assert cert is not None
        assert verify_certificate(X2, X4, cert).accepted

    def test_x2_x3_exhausts(self):
        assert search_confluence(X2, X3, SearchBudget(3, 8, 12, 200000)) is None

    def test_self_search_finds_identity_interleaving(self):
        seq = rank1([3, 3], period=(0, 1))
        cert = search_confluence(seq, seq, SearchBudget(2, 3, 6, 100000))
        assert cert == self_certificate(seq, 2)

    def test_deterministic(self):
        budget = SearchBudget(3, 8, 12, 200000)
        assert search_confluence(X2, X4, budget) == search_confluence(X2, X4, budget)

    def test_soundness_on_split_pairs(self, rng):
        for _ in range(10):
            seqA, seqB, _ = split_pair(rng, 3, max_rank=2, bound=1)
            cert = search_confluence(seqA, seqB, SearchBudget(2, 2, 3, 1500))
            if cert is not None:
                assert verify_certificate(seqA, seqB, cert).accepted

    def test_x2_x3_reduces_each_distinct_k_once(self, monkeypatch):
        # every map is a 1x1 matrix with an entry in [-8, 8]; the half-level
        # after an f faces X2's powers of 2, the one after a g X3's powers
        # of 3, so the column gcds refute every K but +-1, +-2, +-4 and +-8
        # before any elimination, and each of those 8 is solved by one
        # solve_matrix_eq and eliminated by one _reduce
        reduce_k, solve, reduced, solved = matrices._reduce, confluence.solve_matrix_eq, [], []

        def counted_reduce(k):
            reduced.append(k)
            return reduce_k(k)

        def counted_solve(k, *args):
            solved.append(k)
            return solve(k, *args)

        monkeypatch.setattr(matrices, "_reduce", counted_reduce)
        monkeypatch.setattr(confluence, "solve_matrix_eq", counted_solve)
        assert search_confluence(X2, X3, SearchBudget(3, 8, 12, 200000)) is None
        assert len(reduced) == 8 == len(set(reduced))
        assert sorted(k[0, 0] for k in reduced) == [-8, -4, -2, -1, 1, 2, 4, 8]
        assert solved == reduced

    def test_x2_x3_resolves_each_half_level_once(self, monkeypatch):
        # the exhaustion meets the same (side, start stage, K) over and over;
        # only the first visit screens the horizon target and walks the
        # targets, every later one is a lookup in the search's table
        live, screen, extend = confluence._Search._live, confluence._column_gcds_refute, confluence._Search.extend
        resolved, screened, visits = [], [], []

        def recorded_live(search, side, start, k):
            resolved.append((side, start, k))
            return live(search, side, start, k)

        def recorded_screen(k, t):
            screened.append((k, t))
            return screen(k, t)

        def counted_extend(search, stages, maps):
            visits.append(len(maps))
            return extend(search, stages, maps)

        monkeypatch.setattr(confluence._Search, "_live", recorded_live)
        monkeypatch.setattr(confluence, "_column_gcds_refute", recorded_screen)
        monkeypatch.setattr(confluence._Search, "extend", counted_extend)
        assert search_confluence(X2, X3, SearchBudget(3, 8, 12, 200000)) is None
        assert len(resolved) == len(set(resolved))
        # X2's targets are powers of 2 and X3's powers of 3, so a horizon
        # target names its side and start stage
        assert len(screened) == len(set(screened)) <= len(resolved)
        half_levels = [n for n in visits if n < 5]  # a fifth map completes depth 3
        assert len(half_levels) > 10 * len(resolved)

    def test_matches_uncached_reference_search(self, rng, monkeypatch):
        tick, nodes = confluence._Counter.tick, []

        def counted(counter):
            nodes.append(1)
            tick(counter)

        monkeypatch.setattr(confluence._Counter, "tick", counted)
        found = out_of_nodes = 0
        for n in range(60):
            stages, mode = 3 + n % 2, ("plain", "simplicial")[n // 2 % 2]
            if n % 3 == 0:
                seqA, seqB, _ = split_pair(rng, stages, mode, max_rank=2, bound=1)
            elif n % 3 == 1:
                seqA = random_diagram(rng, stages, max_rank=2, bound=2, mode=mode)
                seqB = random_diagram(rng, stages, max_rank=2, bound=2, mode=mode)
            else:  # maps into B's rank-0 stages have no entries, only a width
                seqA = random_diagram(rng, stages, max_rank=2, bound=2, mode=mode)
                ranks = [rng.randint(0, 1) for _ in range(stages)]
                steps = [random_matrix(rng, ranks[t + 1], ranks[t], 2, mode == "simplicial") for t in range(stages - 1)]
                seqB = SequenceDiagram(mode, ranks, steps)
            budget = SearchBudget(rng.randint(2, 3), rng.randint(1, 3), stages, rng.choice([100, 600]))
            nodes.clear()
            cert = search_confluence(seqA, seqB, budget)
            assert (cert, len(nodes)) == reference_search(seqA, seqB, budget)[:2]
            found += cert is not None
            out_of_nodes += len(nodes) > budget.node_limit
        assert found >= 20 and out_of_nodes >= 10
        # the shapes of the benchmark's library searches: ranks 1-3,
        # entries within 3, depth 3, bound 3, 100 nodes
        found = out_of_nodes = 0
        for n in range(80):
            stages, mode = 3 + n % 2, ("plain", "simplicial")[n // 2 % 2]
            seqA, seqB = (random_diagram(rng, stages, max_rank=3, bound=3, mode=mode) for _ in "AB")
            budget = SearchBudget(3, 3, stages, 100)
            nodes.clear()
            cert = search_confluence(seqA, seqB, budget)
            assert (cert, len(nodes)) == reference_search(seqA, seqB, budget)[:2]
            found += cert is not None
            out_of_nodes += len(nodes) > budget.node_limit
        assert found >= 5 and out_of_nodes >= 40

    def test_streams_are_built_for_the_entered_targets_only(self, rng, monkeypatch):
        # a half-level substitutes its live targets when it is resolved,
        # but builds a target's row streams only when the walk enters it,
        # once; node-limited searches leave some live targets unentered
        row_streams, substitute = matrices.MatrixEqSolutions.row_streams, matrices.MatrixEqSolutions.substitute
        built, solved_targets = [], []

        def recorded_streams(solver, solved):
            z0s = solved[0]
            built.append((solver.k, Matrix(z0s, cols=solver.k.rows) * solver.k))
            return row_streams(solver, solved)

        def counted_substitute(solver, t):
            solved = substitute(solver, t)
            if solved is not None:
                solved_targets.append(t)
            return solved

        monkeypatch.setattr(matrices.MatrixEqSolutions, "row_streams", recorded_streams)
        monkeypatch.setattr(matrices.MatrixEqSolutions, "substitute", counted_substitute)
        cases = [(X2, X3, SearchBudget(3, 8, 12, 10))]
        # the shapes of the benchmark's library searches
        for n in range(40):
            stages, mode = 3 + n % 2, ("plain", "simplicial")[n // 2 % 2]
            seqA, seqB = (random_diagram(rng, stages, max_rank=3, bound=3, mode=mode) for _ in "AB")
            cases.append((seqA, seqB, SearchBudget(3, 3, stages, 100)))
        total_built = total_solved = 0
        for seqA, seqB, budget in cases:
            built.clear()
            solved_targets.clear()
            search_confluence(seqA, seqB, budget)
            got, total_built, total_solved = Counter(built), total_built + len(built), total_solved + len(solved_targets)
            seqs = (seqA, seqB)
            _, _, entered = reference_search(seqA, seqB, budget)
            assert got == Counter((k, transition(seqs[side], start, nxt)) for side, start, k, nxt in entered)
        assert total_built >= 300 and total_built < total_solved

    @pytest.mark.parametrize("copies, x, y", [
        (1 + n % 3, x, y)
        for n, (x, y) in enumerate([(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 2), (5, 2), (7, 2)])
    ])
    def test_exhaustion_matches_uncached_reference_search(self, copies, x, y, monkeypatch):
        # rank-1 pairs with different primes: every system past the first
        # stages is inconsistent, so the pruning skips nearly all of them
        tick, nodes = confluence._Counter.tick, []

        def counted(counter):
            nodes.append(1)
            tick(counter)

        monkeypatch.setattr(confluence._Counter, "tick", counted)
        seqA, seqB = rank1([x] * copies, period=(0, 1)), rank1([y] * (4 - copies), period=(0, 1))
        budget = SearchBudget(3, 8, 12, 200000)
        cert = search_confluence(seqA, seqB, budget)
        assert cert is None
        assert (cert, len(nodes)) == reference_search(seqA, seqB, budget)[:2]

    def test_consistent_targets_are_upward_closed(self, rng):
        # h * K = transition(s, j) solvable implies
        # (transition(j, j + 1) * h) * K = transition(s, j + 1)
        rises = falls = 0
        for n in range(150):
            seq = random_diagram(rng, 5, max_rank=3, bound=3, mode=("plain", "simplicial")[n % 2])
            s = rng.randint(1, 3)
            if n % 3:
                k = random_matrix(rng, rng.randint(0, 3), seq.rank_at(s), 3)
            else:  # solvable from stage j0 on, by h = id
                k = transition(seq, s, rng.randint(s + 1, 5))
            consistent = [solve_matrix_eq(k, transition(seq, s, j)).consistent for j in range(s + 1, 6)]
            assert consistent == sorted(consistent)
            for j, ok in enumerate(consistent[:-1], start=s + 1):
                if ok:
                    z0s, _, _ = matrices._substitute(matrices._reduce(k), transition(seq, s, j).entries)
                    h = Matrix(z0s, cols=k.rows)
                    assert (transition(seq, j, j + 1) * h) * k == transition(seq, s, j + 1)
            rises += consistent[0] < consistent[-1]
            falls += not consistent[-1]
        assert rises >= 20 and falls >= 30

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(1, 8, 12, 1000)
        with pytest.raises(ValueError):
            SearchBudget(2, 0, 12, 1000)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            search_confluence(X2, FIB, SearchBudget(2, 2, 4, 100))

    def test_too_deep_a_search_is_refused(self):
        """``extend`` recurses once per map, so a depth-120 chain needs
        about 240 nested calls; a recursion limit 150 frames above this
        test's own depth refuses it as a ``ValueError``."""
        with recursion_limit(150) as limit, pytest.raises(ValueError) as exc:
            search_confluence(X2, X2, SearchBudget(120, 2, 120, 200000))
        assert str(exc.value) == (
            f"depth 120 needs more nested calls than the interpreter's recursion limit ({limit}) allows"
        )
        assert search_confluence(X2, X2, SearchBudget(120, 2, 120, 200000)).depth == 120


@st.composite
def screened_systems(draw):
    """``(k, h, t)`` with ``k`` and ``h`` up to 4x4, columns of ``k`` scaled
    by multipliers up to about 2**40 (or zeroed), entries of ``h`` up to
    2**40, and ``t`` near ``h * k``: ``h * k / d`` for a drawn ``d`` when
    that is integral (a rational ``h / d`` solves it), then each entry moved
    by -1, 0 or 1 times a drawn step, so many systems miss an integer
    solution narrowly."""
    rows, cols, h_rows = (draw(st.integers(0, 4)) for _ in range(3))
    scales = [draw(st.sampled_from([0, 1, 2, 6, 2**40 + 1, 3 * 2**40])) for _ in range(cols)]
    k = Matrix([[draw(st.integers(-3, 3)) * s for s in scales] for _ in range(rows)], cols=cols)
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
    h = Matrix([[draw(entry) for _ in range(rows)] for _ in range(h_rows)], cols=rows)
    d, step = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([0, 1, 2, 2**40 + 1]))
    hk = [x for row in (h * k).entries for x in row]
    d = d if all(x % d == 0 for x in hk) else 1
    t = [x // d + draw(st.integers(-1, 1)) * step for x in hk]
    return k, h, Matrix([t[r * cols : (r + 1) * cols] for r in range(h_rows)], cols=cols)


class TestColumnGcdScreen:
    """``h * K = T`` makes ``T * y = h * (K * y)`` for every integer
    vector ``y``, so a projection ``T * y`` off the multiples of the
    content of ``K * y`` refutes the system without elimination; the
    screen tries ``y = e_c`` and ``y = e_a +- e_b``."""

    @staticmethod
    def random_k(rng, rows, cols):
        k = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        for c in range(cols):
            if rng.random() < 0.2:  # an all-zero column
                for row in k:
                    row[c] = 0
            elif rng.random() < 0.2:  # a big multiplier
                for row in k:
                    row[c] *= rng.choice([2**40 + 1, 3 * 2**40, 6])
        return Matrix(k, cols=cols)

    def test_refuted_systems_are_inconsistent(self, rng):
        refuted = 0
        for _ in range(600):
            k = self.random_k(rng, rng.randint(0, 3), rng.randint(0, 3))
            t = random_matrix(rng, rng.randint(0, 3), k.cols, 3)
            if rng.random() < 0.3:  # columns scaled onto or off a big gcd
                t = Matrix([[x * (2**40 + 1) + rng.randint(0, 1) for x in row] for row in t.entries], cols=k.cols)
            if confluence._column_gcds_refute(k, confluence._column_contents(t)):
                refuted += 1
                assert not solve_matrix_eq(k, t).consistent
        assert refuted >= 150

    def test_solvable_systems_pass(self, rng):
        for _ in range(600):
            k = self.random_k(rng, rng.randint(0, 3), rng.randint(0, 3))
            h = random_matrix(rng, rng.randint(0, 3), k.rows, rng.choice([3, 2**40 + 1]))
            assert not confluence._column_gcds_refute(k, confluence._column_contents(h * k))

    def test_exact_on_1x1_systems(self):
        values = [*range(-8, 9), 2**40 + 1, -(2**40 + 1), 3 * (2**40 + 1), 2**41]
        for a in values:
            for b in values:
                k, t = Matrix([[a]]), Matrix([[b]])
                assert confluence._column_gcds_refute(k, confluence._column_contents(t)) == (not solve_matrix_eq(k, t).consistent)

    def test_pairs_refute_what_the_columns_miss(self):
        # each system has no integer solution, the unit columns pass, and a
        # sum or difference of two columns refutes it
        for k, t in [
            ([[1, 1], [1, -1]], [[1, 0]]),  # h0 + h1 = 1 and h0 - h1 = 0
            ([[1, 2]], [[-2, -2]]),  # only e_0 + e_1: 3 does not divide -4
            ([[1, 1]], [[2, 0]]),  # only e_0 - e_1: a zero K * y, a nonzero T * y
            ([[2, 1, 0]], [[2, 0, 0]]),  # only e_0 + e_1, of three columns
            ([[0, 2, 2]], [[0, -2, 2]]),  # only e_1 - e_2, the last projection
            ([[1, 0, 1]], [[2, 0, 0]]),  # only e_0 - e_2
        ]:
            k, t = Matrix(k), Matrix(t)
            contents = confluence._column_contents(t)
            assert not confluence._column_gcds_refute(k, contents[: k.cols])
            assert confluence._column_gcds_refute(k, contents)
            assert not solve_matrix_eq(k, t).consistent

    def test_zero_rows_and_columns(self):
        # a K without rows makes every h * K zero; a K without columns is
        # solved by any h of the right width
        for rows, cols, t, refuted in [
            (0, 2, Matrix.zero(1, 2), False),
            (0, 2, Matrix([[0, 1]]), True),
            (0, 2, Matrix([[1, -1]]), True),
            (0, 2, Matrix.zero(0, 2), False),
            (0, 0, Matrix.zero(3, 0), False),
            (2, 0, Matrix.zero(3, 0), False),
            (2, 0, Matrix.zero(0, 0), False),
        ]:
            k = Matrix.zero(rows, cols)
            assert confluence._column_gcds_refute(k, confluence._column_contents(t)) == refuted
            assert solve_matrix_eq(k, t).consistent == (not refuted)
        k = Matrix([[1, 2], [3, 4]])
        assert not confluence._column_gcds_refute(k, confluence._column_contents(Matrix.zero(0, 2)))

    @settings(max_examples=300, deadline=None)
    @given(screened_systems())
    def test_solvable_never_refuted_and_refuted_never_solvable(self, system):
        k, h, t = system
        assert not confluence._column_gcds_refute(k, confluence._column_contents(h * k))
        if confluence._column_gcds_refute(k, confluence._column_contents(t)):
            assert not solve_matrix_eq(k, t).consistent

    def test_refutes_nine_in_ten_inconsistent_horizon_systems(self, rng, monkeypatch):
        # the benchmark's library searches: ranks 1-3, entries within 3,
        # depth 3, bound 3, 100 nodes
        screen, contents, seen = confluence._column_gcds_refute, confluence._column_contents, []

        class Contents(tuple):  # a target's column contents, tagged with the target
            pass

        def tagged(t):
            c = Contents(contents(t))
            c.target = t
            return c

        def recorded(k, c):
            seen.append((k, c.target, screen(k, c)))
            return seen[-1][2]

        monkeypatch.setattr(confluence, "_column_contents", tagged)
        monkeypatch.setattr(confluence, "_column_gcds_refute", recorded)
        for n in range(40):
            stages, mode = 3 + n % 2, ("plain", "simplicial")[n // 2 % 2]
            seqA, seqB = (random_diagram(rng, stages, max_rank=3, bound=3, mode=mode) for _ in "AB")
            search_confluence(seqA, seqB, SearchBudget(3, 3, stages, 100))
        inconsistent = [refuted for k, t, refuted in seen if not solve_matrix_eq(k, t).consistent]
        assert len(inconsistent) >= 500
        assert 10 * sum(inconsistent) >= 9 * len(inconsistent)


ONE = rank1([1, 1], period=(0, 1))


class TestReportText:
    @pytest.mark.parametrize(
        "seqA, seqB, cert, reason",
        [
            (rank1([2] * 5), rank1([4] * 3),
             ConfluenceCertificate([1, 3, 5], [1, 2, 3], scalars(1, 1, 1), scalars(4, 4),
                                   CertificatePeriod(2, 1, 1)),
             "both diagrams need period declarations"),
            (X2, X4,
             ConfluenceCertificate([1, 3, 5], [1, 2, 3], scalars(1, 1, 1), scalars(4, 4),
                                   CertificatePeriod(6, 3, 3)),
             "stored prefix shorter than one period"),
            (rank1([2, 2], period=(0, 2)), X4,
             ConfluenceCertificate([1, 3, 5], [1, 2, 3], scalars(1, 1, 1), scalars(4, 4),
                                   CertificatePeriod(3, 1, 1)),
             "index steps are not multiples of the diagram periods"),
            (rank1([2, 2], period=(1, 1)), X4,
             ConfluenceCertificate([1, 3, 5], [1, 2, 3], scalars(1, 1, 1), scalars(4, 4),
                                   CertificatePeriod(2, 1, 1)),
             "certificate stages inside the diagram prefixes"),
            (X2, X4,
             ConfluenceCertificate([1, 3, 5], [1, 2, 3], scalars(1, 1, 1), scalars(4, 4),
                                   CertificatePeriod(4, 1, 1)),
             "declared index steps do not match the prefix"),
            (X2, X4,
             ConfluenceCertificate([1, 2, 3], [1, 2, 3], scalars(1, 2, 4), scalars(2, 1),
                                   CertificatePeriod(1, 1, 1)),
             "f_2 differs from f_1"),
            (X2, X2,
             ConfluenceCertificate([1, 2, 4], [1, 2, 4], scalars(1, 1, 1), scalars(2, 4),
                                   CertificatePeriod(1, 1, 1)),
             "i-indices do not advance by the declared step"),
            # the failing k-step is the last one, with depth - 1 backward maps
            (ONE, ONE,
             ConfluenceCertificate([1, 2, 3], [1, 2, 4], scalars(1, 1, 1), scalars(1, 1),
                                   CertificatePeriod(1, 1, 1)),
             "k-indices do not advance by the declared step"),
            (X2, X4,
             ConfluenceCertificate([1, 3], [1, 2], scalars(1, 1), scalars(4, 5),
                                   CertificatePeriod(2, 1, 1)),
             "g_2 differs from g_1"),
        ],
    )
    def test_periodic_rejection_notes(self, seqA, seqB, cert, reason):
        report = verify_certificate(seqA, seqB, cert)
        assert report.accepted and report.failures == []
        assert report.periodic_accepted is False
        assert report.notes == [f"periodic claim rejected: {reason}"]

    def test_periodic_acceptance_note(self):
        cert = ConfluenceCertificate(
            [1, 3, 5], [1, 2, 3], scalars(1, 1, 1), scalars(4, 4), CertificatePeriod(2, 1, 1)
        )
        report = verify_certificate(X2, X4, cert)
        assert report.notes == [
            "periodic certificate: one period verified, infinite certificate accepted"
        ]

    def test_shape_failures_list_every_f_before_every_g(self):
        row, col = Matrix([[1, 1]]), Matrix([[1], [1]])
        cert = ConfluenceCertificate([1, 3], [1, 2], [col, row], [row, row])
        assert verify_certificate(X2, X4, cert).failures == [
            "f_1 has shape 2x1, expected 1x1",
            "f_2 has shape 1x2, expected 1x1",
            "g_1 has shape 1x2, expected 1x1",
            "g_2 has shape 1x2, expected 1x1",
        ]

    def test_trailing_g_checks_only_its_source(self):
        cert = ConfluenceCertificate(
            [1, 3], [1, 2], scalars(1, 1), [Matrix([[4]]), Matrix([[1], [2], [3]])]
        )
        report = verify_certificate(X2, X4, cert)
        assert report.accepted and report.failures == []

    def test_negativity_failures_list_every_f_before_every_g(self):
        neg = Matrix([[-1, 0], [0, 1]])
        cert = ConfluenceCertificate([1, 2], [1, 2], [neg, neg], [neg, neg])
        assert verify_certificate(FIB, FIB, cert).failures == [
            "f_1 has a negative entry in simplicial mode",
            "f_2 has a negative entry in simplicial mode",
            "g_1 has a negative entry in simplicial mode",
            "g_2 has a negative entry in simplicial mode",
        ]

    def test_shape_and_negativity_failures_share_one_order(self):
        neg = Matrix([[-1, 0], [0, 1]])
        cert = ConfluenceCertificate(
            [1, 2], [1, 2], [Matrix([[1, 0]]), neg], [neg, Matrix([[1], [1]])]
        )
        assert verify_certificate(FIB, FIB, cert).failures == [
            "f_1 has shape 1x2, expected 2x2",
            "f_2 has a negative entry in simplicial mode",
            "g_1 has a negative entry in simplicial mode",
            "g_2 has shape 2x1, expected 2x2",
        ]

    @pytest.mark.parametrize(
        "direction, element, message",
        [
            (FORWARD, ColimitElement(6, [1]), "element stage 6 beyond last certificate index 5"),
            (BACKWARD, ColimitElement(3, [1]),
             "element stage 3 beyond the backward range of the certificate"),
            ("sideways", ColimitElement(1, [1]), "unknown direction 'sideways'"),
        ],
    )
    def test_induced_map_errors(self, direction, element, message):
        with pytest.raises(ValueError) as exc:
            induced_map(X2, X4, X2_X4_CERT, direction, element)
        assert str(exc.value) == message


# each value type with arguments it accepts, and the fields that must be
# integers: a sequence field is faulted in its last entry
VALUE_TYPES = [
    (ColimitElement, {"stage": 1, "vec": [1, 2]}, [("stage", False), ("vec", True)]),
    (SequenceDiagram,
     {"mode": "plain", "ranks": [1, 1], "transitions": [Matrix([[2]])], "period": (0, 1)},
     [("ranks", True), ("period", True)]),
    (ConfluenceCertificate,
     {"i_indices": [1, 3], "k_indices": [1, 2], "f_mats": scalars(1, 1), "g_mats": scalars(4)},
     [("i_indices", True), ("k_indices", True)]),
    (CertificatePeriod, {"index_step_a": 2, "index_step_b": 1, "period_len": 1},
     [("index_step_a", False), ("index_step_b", False), ("period_len", False)]),
    (SearchBudget, {"depth": 3, "entry_bound": 4, "stage_horizon": 12, "node_limit": 100},
     [(f"budget field {name}", False) for name in ("depth", "entry_bound", "stage_horizon", "node_limit")]),
]


class TestValueTypesTakeIntegersOnly:
    @pytest.mark.parametrize("bad", [2.5, 2.0, "3", True])
    @pytest.mark.parametrize("make, good, name, sequence", [
        (make, good, name, sequence) for make, good, fields in VALUE_TYPES for name, sequence in fields
    ])
    def test_non_integer_field_named(self, make, good, name, sequence, bad):
        field = name.removeprefix("budget field ")
        make(**good)
        kwargs = dict(good, **{field: [*good[field][:-1], bad] if sequence else bad})
        with pytest.raises(ValueError) as exc:
            make(**kwargs)
        assert str(exc.value) == f"{name} takes integers only, got {bad!r}"

    @pytest.mark.parametrize("mono", ["no", 1, 0, None])
    def test_mono_required_is_a_bool(self, mono):
        with pytest.raises(ValueError) as exc:
            SequenceDiagram("plain", [1], [], mono)
        assert str(exc.value) == f"mono_required must be a bool, got {mono!r}"

    def test_integers_kept_as_given(self):
        assert ColimitElement(2, range(3)).vec == (0, 1, 2)
        seq = SequenceDiagram("plain", [1, 1], [Matrix([[2]])], True, [0, 1])
        assert seq.ranks == (1, 1) and seq.period == (0, 1)
        assert ConfluenceCertificate(range(1, 3), (1, 2), scalars(1, 1), scalars(4)).i_indices == (1, 2)

    def test_long_values_quoted_short(self):
        with pytest.raises(ValueError) as exc:
            ColimitElement(1, ["9" * 5000])
        assert len(str(exc.value)) < 80
        with pytest.raises(ValueError) as exc:
            SequenceDiagram("x" * 5000, [1], [])
        assert str(exc.value).startswith('mode must be "plain" or "simplicial", got ') and len(str(exc.value)) < 80

    def test_fractional_period_or_budget_no_longer_crashes(self):
        # these once reached the verifier and the search as floats
        with pytest.raises(ValueError, match="period_len takes integers only"):
            CertificatePeriod(2, 1, 1.5)
        with pytest.raises(ValueError, match="stage_horizon takes integers only"):
            search_confluence(X2, X4, SearchBudget(3, 4, 12.5, 100))
        with pytest.raises(ValueError, match="depth takes integers only"):
            SearchBudget(2.5, 4, 12, 1000)
