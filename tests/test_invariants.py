import math
import random

import pytest
from sympy import factorint, isprime, prevprime, randprime

from colim import invariants
from colim.confluence import SearchBudget, search_confluence
from colim.diagrams import SequenceDiagram, validate
from colim.invariants import (
    CONCLUSIVE,
    INDICATIVE,
    INDICATIVE_GAP,
    PREFIX_DISCLAIMER,
    Evidence,
    EvidenceReport,
    SupernaturalNumber,
    colimit_rank,
    noniso_evidence,
    steinitz,
)
from colim.matrices import Matrix, is_injective

from conftest import random_matrix, rank1

INF = math.inf


class TestSteinitz:
    def test_constant_ones(self):
        assert steinitz(rank1([1, 1])).as_dict() == {}
        assert str(steinitz(rank1([1, 1]))) == "1"

    def test_doubling_periodic(self):
        assert steinitz(rank1([2, 2], period=(0, 1))).as_dict() == {2: INF}

    def test_prefix_and_period(self):
        got = steinitz(rank1([12, 5], period=(1, 1)))
        assert got.as_dict() == {2: 2, 3: 1, 5: INF}

    def test_prefix_only_sums_valuations(self):
        assert steinitz(rank1([4, 6])).as_dict() == {2: 3, 3: 1}

    def test_sign_ignored(self):
        assert steinitz(rank1([-2, 2])).as_dict() == {2: 2}

    def test_rejects_higher_rank(self):
        seq = SequenceDiagram("plain", [2, 2], [Matrix.identity(2)])
        with pytest.raises(ValueError):
            steinitz(seq)

    def test_rejects_zero_multiplier(self):
        with pytest.raises(ValueError):
            steinitz(rank1([0]))

    def test_additive_under_concatenation(self, rng):
        for _ in range(20):
            ms1 = [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
            ms2 = [rng.randint(1, 30) for _ in range(rng.randint(1, 3))]
            s1 = steinitz(rank1(ms1)).as_dict()
            s2 = steinitz(rank1(ms2)).as_dict()
            both = steinitz(rank1(ms1 + ms2)).as_dict()
            merged = dict(s1)
            for p, e in s2.items():
                merged[p] = merged.get(p, 0) + e
            assert both == merged


class TestEquivalence:
    def test_is_equivalence_relation(self, rng):
        pool = []
        for _ in range(12):
            d = {}
            for p in (2, 3, 5):
                kind = rng.randint(0, 2)
                if kind == 1:
                    d[p] = rng.randint(1, 4)
                elif kind == 2:
                    d[p] = INF
            pool.append(SupernaturalNumber.from_dict(d))
        for a in pool:
            assert a.equivalent(a)
            for b in pool:
                assert a.equivalent(b) == b.equivalent(a)
                for c in pool:
                    if a.equivalent(b) and b.equivalent(c):
                        assert a.equivalent(c)

    def test_finite_differences_do_not_matter(self):
        a = SupernaturalNumber.from_dict({2: 3, 3: INF})
        b = SupernaturalNumber.from_dict({2: 1, 3: INF, 7: 2})
        assert a.equivalent(b)
        c = SupernaturalNumber.from_dict({2: INF, 3: INF})
        assert not a.equivalent(c)

    def test_unsplit_product_matches_its_primes(self):
        p, q = prevprime(2**45), prevprime(2**44)
        unsplit = steinitz(rank1([4, p * q], period=(1, 1)))
        assert unsplit.as_dict() == {2: 2, p * q: INF}
        assert unsplit.unproven == (p * q,)
        for other, same in [
            ({p: INF, q: INF}, True),
            ({q: INF, 7: 3, p: INF}, True),
            ({p: INF}, False),
            ({p: INF, q: INF, 3: INF}, False),
            ({p * q: 1, q: INF}, False),
        ]:
            other = SupernaturalNumber.from_dict(other)
            assert unsplit.equivalent(other) == other.equivalent(unsplit) == same


class TestColimitRank:
    def test_rank_growth_then_identity_period(self):
        seq = SequenceDiagram(
            "plain", [1, 2, 2], [Matrix([[1], [0]]), Matrix.identity(2)], True, (1, 1)
        )
        assert colimit_rank(seq) == (2, True)

    def test_doubling(self):
        assert colimit_rank(rank1([2, 2], period=(0, 1))) == (1, True)

    def test_prefix_only_not_stabilized(self):
        seq = SequenceDiagram(
            "plain", [1, 2], [Matrix([[1], [0]])], True, None
        )
        assert colimit_rank(seq) == (2, False)

    def test_refuses_non_mono(self):
        with pytest.raises(ValueError, match="^diagram not declared mono$"):
            colimit_rank(rank1([2, 2], mono=False))

    def test_a_declared_period_stabilizes_the_last_rank(self):
        # a valid period closes on ranks and injective steps never lower
        # one, so every stage past the prefix has the last stored rank
        rng = random.Random(2310)
        kinds = set()
        for _ in range(300):
            seq = random_mono_periodic(rng)
            assert validate(seq).ok
            prefix, length = seq.period
            last = seq.rank_at(seq.length)
            assert colimit_rank(seq) == (last, True)
            for i in range(prefix + 1, seq.length + 3 * length + 1):
                assert seq.rank_at(i) == last
            plain = SequenceDiagram(seq.mode, seq.ranks, seq.transitions, True, None)
            assert colimit_rank(plain) == (last, False)
            kinds.add((seq.ranks[0] < last, 0 in seq.ranks, length))
        # rank growth in the prefix, rank-0 stages, and each period length occur
        assert {k[0] for k in kinds} == {k[1] for k in kinds} == {False, True}
        assert {k[2] for k in kinds} == {1, 2, 3}


def random_mono_periodic(rng):
    """A valid mono diagram: ranks 0-3 growing over a prefix of 0-3 steps,
    then a period of 1-3 steps at the last of them, stored up to two steps
    past its first cycle."""
    prefix, length = rng.randint(0, 3), rng.randint(1, 3)
    ranks = sorted(rng.randint(0, 3) for _ in range(prefix + 1))
    ranks += [ranks[-1]] * (length + rng.randint(0, 2))
    steps = []
    for t in range(len(ranks) - 1):
        if t >= prefix + length:
            steps.append(steps[prefix + (t - prefix) % length])
            continue
        while not is_injective(m := random_matrix(rng, ranks[t + 1], ranks[t], 2)):
            pass
        steps.append(m)
    return SequenceDiagram("plain", ranks, steps, True, (prefix, length))


class TestNonIsoEvidence:
    def test_x2_vs_x3_conclusive(self):
        report = noniso_evidence(rank1([2, 2], period=(0, 1)), rank1([3, 3], period=(0, 1)))
        assert report.conclusive
        assert any("2^inf" in e.message and "3^inf" in e.message for e in report.entries)

    def test_x2_vs_x4_empty(self):
        report = noniso_evidence(rank1([2, 2], period=(0, 1)), rank1([4, 4], period=(0, 1)))
        assert report.empty

    def test_stabilized_rank_mismatch(self):
        one = rank1([1, 1], period=(0, 1))
        two = SequenceDiagram(
            "plain", [2, 2], [Matrix.identity(2)], True, (0, 1)
        )
        report = noniso_evidence(one, two)
        assert any(e.strength == CONCLUSIVE and "rank" in e.message for e in report.entries)

    def test_prefix_divergence_is_only_indicative(self):
        report = noniso_evidence(rank1([4, 4]), rank1([3, 3]))
        assert not report.conclusive
        assert any(e.strength == INDICATIVE for e in report.entries)
        assert all("cannot refute" in e.message for e in report.entries if e.strength == INDICATIVE)
        # 2, 3, 5 and 7 each differ by 2 over the one-multiplier prefixes
        report = noniso_evidence(rank1([100, 3]), rank1([441]))
        assert [e.message.split(" exponent")[0] for e in report.entries] == [f"prime {p}" for p in (2, 3, 5, 7)]
        assert {e.strength for e in report.entries} == {INDICATIVE}

    @pytest.mark.parametrize("step", [
        Matrix([[2, 0], [0, 2]]),
        Matrix([[2, 1], [0, 2]]),
    ])
    def test_simplicial_pairs_note_order_invariants(self, step):
        # diag(2, 2) and [[2, 1], [0, 2]] share their group invariants; the
        # report must not read as if their order was compared too
        a = SequenceDiagram("simplicial", [2, 2], [Matrix([[2, 0], [0, 2]])], True, (0, 1))
        b = SequenceDiagram("simplicial", [2, 2], [step], True, (0, 1))
        x2 = rank1([2, 2], mode="simplicial", period=(0, 1))
        note = "simplicial diagrams are compared as groups only; order invariants are not examined"
        for pair in [(a, b), (b, a), (x2, x2)]:
            assert noniso_evidence(*pair).notes == [note]
        assert noniso_evidence(rank1([2, 2], period=(0, 1)), rank1([4, 4], period=(0, 1))).notes == []

    def test_report_steinitz_is_each_sides_steinitz(self):
        # sides without an invariant give the ValueError ``steinitz`` raises
        plane = SequenceDiagram("plain", [1, 2, 2], [Matrix([[1], [0]]), Matrix.identity(2)], True, (1, 1))
        seqs = [
            rank1([4, 6 * 65521], period=(0, 2)), rank1([9, 5, 65521 * 7], period=(1, 2)),
            rank1([100, 3]), rank1([0, 2], mono=False), plane,
        ]
        for a in seqs:
            for b in seqs:
                want = []
                for seq in (a, b):
                    try:
                        want.append(steinitz(seq))
                    except ValueError as exc:
                        want.append(str(exc))
                got = noniso_evidence(a, b).steinitz()
                assert [str(s) if isinstance(s, ValueError) else s for s in got] == want

    def test_consistent_with_found_certificates(self):
        pairs = [
            (rank1([2, 2], period=(0, 1)), rank1([4, 4], period=(0, 1))),
            (rank1([6, 6], period=(0, 1)), rank1([6, 6], period=(0, 1))),
        ]
        for a, b in pairs:
            cert = search_confluence(a, b, SearchBudget(3, 8, 12, 200000))
            assert cert is not None
            assert not noniso_evidence(a, b).conclusive

    def test_verdict_factors_nothing(self, monkeypatch):
        m61, m89, m107 = 2**61 - 1, 2**89 - 1, 2**107 - 1
        a = rank1([m89 * m107], period=(0, 1))
        b = rank1([3, m107, m89], period=(1, 2))

        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(invariants, "factorint", refuse)
        assert noniso_evidence(a, b).empty
        calls = []
        monkeypatch.setattr(invariants, "factorint", lambda n: calls.append(n) or factorint(n))
        report = noniso_evidence(a, rank1([m89 * m61], period=(0, 1)))
        assert report.conclusive
        assert sorted(calls) == [m61, m89, m107]

    def test_indicative_factors_each_base_element_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(invariants, "factorint", lambda n: calls.append(n) or factorint(n))
        report = noniso_evidence(rank1([4, 6]), rank1([3, 9, -3]))
        assert [e.message.split(" exponent")[0] for e in report.entries] == ["prime 2", "prime 3"]
        assert sorted(calls) == [2, 3]


# -- oracle: the per-multiplier factorisation the coprime base replaced ------


def reference_multipliers(seq):
    ms = [m[0, 0] for m in seq.transitions]
    if 0 in ms:
        raise ValueError(f"zero multiplier at transition {ms.index(0) + 1}")
    return [abs(m) for m in ms]


def reference_valuations(ms):
    exps = {}
    for m in ms:
        for p, e in factorint(m).items():
            exps[p] = exps.get(p, 0) + e
    return exps


def reference_steinitz(seq):
    ms = reference_multipliers(seq)
    if seq.period is None:
        return SupernaturalNumber.from_dict(reference_valuations(ms))
    prefix, length = seq.period
    exps = reference_valuations(ms[:prefix])
    exps.update((p, INF) for p in reference_valuations(ms[prefix : prefix + length]))
    return SupernaturalNumber.from_dict(exps)


def reference_evidence(a, b, threshold):
    """``noniso_evidence`` of two valid plain rank-1 diagrams."""
    report = EvidenceReport()
    try:
        sa, sb = reference_steinitz(a), reference_steinitz(b)
    except ValueError:
        return report
    if a.period is not None and b.period is not None:
        if sa.infinite_primes != sb.infinite_primes:
            report.entries.append(Evidence(CONCLUSIVE, f"supernatural invariants inequivalent: {sa} vs {sb}"))
        return report
    count = min(len(a.transitions), len(b.transitions))
    va = reference_valuations(reference_multipliers(a)[:count])
    vb = reference_valuations(reference_multipliers(b)[:count])
    for p in sorted(set(va) | set(vb)):
        gap = abs(va.get(p, 0) - vb.get(p, 0))
        if gap >= threshold:
            report.entries.append(
                Evidence(INDICATIVE, f"prime {p} exponent differs by {gap} over "
                         f"equal-length prefixes ({PREFIX_DISCLAIMER})")
            )
    return report


def random_rank1(rng, primes):
    """A valid plain rank-1 diagram whose multipliers are signed products
    of ``primes``, with now and then a 1 or a 0 (then not mono)."""
    def multiplier():
        r = rng.random()
        if r < 0.05:
            return 0
        if r < 0.1:
            return 1
        m = math.prod(rng.choice(primes) ** rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        return -m if rng.random() < 0.25 else m

    period = (rng.randint(0, 2), rng.randint(1, 2)) if rng.random() < 0.6 else None
    ms = [multiplier() for _ in range(sum(period) if period else rng.randint(1, 4))]
    return rank1(ms, mono=0 not in ms, period=period)


class TestCoprimeBaseOracle:
    def test_matches_per_multiplier_factorisation(self):
        rng = random.Random(8008)
        kinds = set()
        for _ in range(320):
            big = [p for p in (rng.randrange(2**14, 2**16) | 1 for _ in range(40)) if isprime(p)]
            shared = big[: rng.randint(1, 2)]
            small = rng.sample([2, 3, 5, 7], rng.randint(0, 2))
            a = random_rank1(rng, shared + small + big[2:3])
            b = random_rank1(rng, shared + small + big[3:4])
            kinds.add((a.period is None, b.period is None))
            for seq in (a, b):
                try:
                    want = reference_steinitz(seq)
                except ValueError:
                    with pytest.raises(ValueError):
                        steinitz(seq)
                    continue
                assert steinitz(seq) == want
            assert noniso_evidence(a, b) == reference_evidence(a, b, INDICATIVE_GAP)
        assert len(kinds) == 4


class TestFactorint:
    """``invariants.factorint`` against sympy's: the product of the factors
    is always ``n``, and where every factor is proven prime it is sympy's
    factorisation."""

    CARMICHAEL = [561, 41041, 825265]
    # the least strong pseudoprimes to the first 1, 4 and 11 prime bases
    STRONG_PSEUDOPRIMES = [2047, 3215031751, 3825123056546413051]
    # 53 * 59 and 43 * 83: rho on ``y*y + 1`` finds ``n`` itself, so they
    # are split only by a retry with another constant
    RETRY = [3127, 3569]

    def check(self, n):
        got = invariants.factorint(n)
        assert math.prod(f**e for f, e in got.items()) == n
        if all(invariants._proven_prime(f) for f in got):
            assert got == factorint(n)
        return got

    def test_seeded_against_sympy(self):
        rng = random.Random(1414)
        cases = [math.prod(rng.choice([2, 3, 5, 7, 11, 13, 41, 43, 47, 97]) ** rng.randint(1, 5)
                           for _ in range(rng.randint(1, 4))) for _ in range(100)]
        for bits in range(15, 41):
            p = randprime(2 ** (bits - 1), 2**bits)
            q, r = (randprime(2 ** (bits // 2 - 1), 2 ** (bits // 2)) for _ in range(2))
            cases += [p, q * r, q * q, q**3, 4 * q * r, q * q * r]
        for n in cases:
            # every split here needs rho to find a factor below 2**20 only,
            # well inside its budget, so every factor is proven prime
            assert all(invariants._proven_prime(f) for f in self.check(n)), n

    def test_carmichael_and_strong_pseudoprimes_are_split(self):
        assert [self.check(n) for n in self.CARMICHAEL + self.STRONG_PSEUDOPRIMES + self.RETRY] == [
            {3: 1, 11: 1, 17: 1},
            {7: 1, 11: 1, 13: 1, 41: 1},
            {5: 1, 7: 1, 17: 1, 19: 1, 73: 1},
            {23: 1, 89: 1},
            {151: 1, 751: 1, 28351: 1},
            {149491: 1, 747451: 1, 34233211: 1},
            {53: 1, 59: 1},
            {43: 1, 83: 1},
        ]

    def test_mersenne_61_is_proven_prime(self):
        assert self.check(2**61 - 1) == {2**61 - 1: 1}

    def test_budget_leaves_a_part_unsplit(self):
        p, q = prevprime(2**45), prevprime(2**44)
        assert self.check(p * q) == {p * q: 1}
        assert self.check(12 * p * q) == {2: 2, 3: 1, p * q: 1}

    def test_long_part_is_charged_by_its_size(self, monkeypatch):
        # a 2,048-bit product of two 1,024-bit primes: each rho step modulo
        # it is charged (2048 / 512)**2 = 16 steps of the budget, so rho
        # gives up after _RHO_STEPS / 16 steps, which its gcd batches of at
        # most 128 steps each bound from outside the charge
        p = prevprime(2**1024)
        n = p * prevprime(p)
        assert n.bit_length() == 2048
        rho, gcd, calls, batches = invariants._rho, math.gcd, [], []

        def counted_gcd(*args):
            batches.append(args)
            return gcd(*args)

        def recorded_rho(m, steps):
            with monkeypatch.context() as inner:
                inner.setattr(math, "gcd", counted_gcd)
                d, left = rho(m, steps)
            calls.append((m, d))
            return d, left

        monkeypatch.setattr(invariants, "_rho", recorded_rho)
        assert invariants.factorint(n) == {n: 1}
        assert calls == [(n, None)]
        assert 0 < 128 * len(batches) <= invariants._RHO_STEPS // 16

    def test_probable_prime_above_the_proven_bound_is_unproven(self):
        m89 = 2**89 - 1
        assert invariants.factorint(m89) == {m89: 1}
        assert not invariants._proven_prime(m89)
        assert invariants._proven_prime(invariants._PROVEN_BELOW - 1) == isprime(invariants._PROVEN_BELOW - 1)


def sprp_all_bases(n, bases=invariants._SPRP_BASES):
    """The strong-probable-prime test to every one of ``bases``."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestSprpStopsAtTheBasesItsSizeNeeds:
    """``_sprp`` stops after the first ``k`` bases once ``n`` is below the
    least strong pseudoprime to all of them; its answer is the 13-base one."""

    def test_every_odd_number_below_400000(self):
        for n in range(43, 400_000, 2):
            assert invariants._sprp(n) == sprp_all_bases(n), n

    def test_around_each_bound(self):
        for bound in invariants._SPRP_DECIDED:
            for n in range(bound - 2, bound + 3):
                assert invariants._sprp(n) == sprp_all_bases(n), n

    def test_random_odd_numbers_below_2_to_the_90(self):
        rng = random.Random(90)
        for _ in range(25_000):
            n = rng.randrange(43, 2**90) | 1
            assert invariants._sprp(n) == sprp_all_bases(n), n

    def test_each_bound_fools_the_bases_it_bounds(self):
        # so no test may stop there: the k-th bound is a composite strong
        # pseudoprime to the first k bases
        assert invariants._SPRP_DECIDED[-1] == invariants._PROVEN_BELOW
        for k, bound in enumerate(invariants._SPRP_DECIDED, start=1):
            assert not isprime(bound)
            assert sprp_all_bases(bound, invariants._SPRP_BASES[:k]), k

    def test_bases_run(self, monkeypatch):
        calls = []

        def counted_pow(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(invariants, "pow", counted_pow, raising=False)
        for n, bases in ((1_999, 1), (65_521, 2), (2**61 - 1, 9), (2**89 - 1, 13)):
            calls.clear()
            assert invariants._sprp(n)
            assert len(calls) == bases, n
