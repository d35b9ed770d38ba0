"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the terminal.
"""

import random
import time

from colim.cli import main as cli_main
from colim.colimit import ColimitElement, eventual_equalizer, equal_at, factor_through_stage
from colim.confluence import (
    ConfluenceCertificate,
    SearchBudget,
    roundtrip_check,
    search_confluence,
    verify_certificate,
)
from colim.diagrams import SequenceDiagram, transition
from colim.formats import emit_certificate, emit_diagram, parse_certificate, parse_diagram
from colim.invariants import noniso_evidence
from colim.matrices import Matrix, rank, snf

from conftest import FIXTURES, random_diagram, random_matrix, rank1
from test_confluence import self_certificate, split_pair
from test_matrices import bareiss_det, bareiss_rank

X2 = rank1([2, 2], period=(0, 1))
X3 = rank1([3, 3], period=(0, 1))
X4 = rank1([4, 4], period=(0, 1))
FIB = SequenceDiagram("simplicial", [2, 2], [Matrix([[1, 1], [1, 0]])], False, (0, 1))


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_certificates_induce_isomorphisms():
    # 200 pairs built from known interleavings: verify accepts and the
    # induced maps round-trip on 20 samples per pair.
    rng = random.Random(101)
    start = time.monotonic()
    for n in range(200):
        mode = "simplicial" if n % 2 else "plain"
        seqA, seqB, cert = split_pair(rng, 3, mode=mode)
        report = verify_certificate(seqA, seqB, cert)
        assert report.accepted, (n, report.failures)
        samples_a = [
            ColimitElement(s, [rng.randint(-3, 3) for _ in range(seqA.ranks[s - 1])])
            for s in (rng.randint(1, 2) for _ in range(10))
        ]
        samples_b = [
            ColimitElement(s, [rng.randint(-3, 3) for _ in range(seqB.ranks[s - 1])])
            for s in (rng.randint(1, 2) for _ in range(10))
        ]
        rt = roundtrip_check(seqA, seqB, cert, samples_a, samples_b, 3)
        assert rt.ok, (n, rt.failures)
    elapsed = time.monotonic() - start
    _report(1, elapsed < 60, f"200 pairs, all round-trips yes, {elapsed:.1f}s")


def test_criterion_2_search_soundness():
    rng = random.Random(202)
    found = 0
    for n in range(100):
        mode = "simplicial" if n % 2 else "plain"
        seqA = random_diagram(rng, stages=3, max_rank=3, bound=3, mode=mode)
        seqB = random_diagram(rng, stages=3, max_rank=3, bound=3, mode=mode)
        cert = search_confluence(seqA, seqB, SearchBudget(2, 3, 3, 400))
        if cert is not None:
            found += 1
            assert verify_certificate(seqA, seqB, cert).accepted, n
    _report(2, True, f"100 random pairs, {found} certificates found, all verified")


def test_criterion_3_known_confluent_fixture():
    canonical = ConfluenceCertificate(
        [1, 3, 5], [1, 2, 3], [Matrix([[1]])] * 3, [Matrix([[4]])] * 2
    )
    assert verify_certificate(X2, X4, canonical).accepted
    start = time.monotonic()
    cert = search_confluence(X2, X4, SearchBudget(3, 8, 12, 200000))
    elapsed = time.monotonic() - start
    assert cert is not None
    assert verify_certificate(X2, X4, cert).accepted
    # the found certificate witnesses the same isomorphism as the
    # canonical one: both round-trip the same sample elements
    samples = [ColimitElement(1, [x]) for x in range(-3, 4)]
    assert roundtrip_check(X2, X4, cert, samples, samples, 12).ok
    _report(3, elapsed < 5, f"search {elapsed:.2f}s, certificate verified")


def test_criterion_4_known_non_confluent_fixture():
    cert = search_confluence(X2, X3, SearchBudget(3, 8, 12, 200000))
    report = noniso_evidence(X2, X3)
    conclusive = report.conclusive and any(
        "2^inf" in e.message and "3^inf" in e.message for e in report.entries
    )
    _report(4, cert is None and conclusive, "search empty, supernatural invariants inequivalent")


def test_criterion_5_snf_against_fraction_free_oracle():
    rng = random.Random(505)
    for _ in range(1000):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = Matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)
        s, u, v = snf(m)
        assert u * m * v == s
        assert abs(bareiss_det(u)) == 1 and abs(bareiss_det(v)) == 1
        diag = [s[i, i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0) <= (b == 0)
            if a:
                assert b % a == 0
        assert sum(1 for d in diag if d) == bareiss_rank(m)
    _report(5, True, "1000 matrices reconstructed, ranks match oracle")


def test_criterion_6_eventual_equalizer_on_transitions():
    rng = random.Random(606)
    for _ in range(60):
        seq = random_diagram(rng, stages=5, mono=True)
        i = rng.randint(1, 3)
        j = rng.randint(i, 4)
        p = transition(seq, i, j)
        assert eventual_equalizer(seq, i, j, p, 5).kind == "yes"
        assert eventual_equalizer(seq, i, j, p, 5).stage == j
        # perturbed map: definitively unequalizable under injectivity
        bump = Matrix(
            [[1 if (r, c) == (0, 0) else 0 for c in range(p.cols)] for r in range(p.rows)],
            cols=p.cols,
        )
        q = Matrix([[a + b for a, b in zip(pr, br)] for pr, br in zip(p.entries, bump.entries)],
                   cols=p.cols)
        assert eventual_equalizer(seq, i, j, q, 5).kind == "no"
    _report(6, True, "60 mono diagrams: yes(j) on transitions, no on perturbations")


def test_criterion_7_factorization_through_finite_stages():
    rng = random.Random(707)
    for _ in range(60):
        seq = random_diagram(rng, stages=4, mode="simplicial")
        images = []
        for _ in range(rng.randint(1, 3)):
            s = rng.randint(1, 4)
            images.append(
                ColimitElement(s, [rng.randint(0, 3) for _ in range(seq.ranks[s - 1])])
            )
        got = factor_through_stage(seq, images, 4)
        assert got is not None
        i0, g = got
        assert g.is_nonnegative()
        for k, e in enumerate(images):
            assert equal_at(seq, ColimitElement(i0, g.col(k)), e, 4).is_yes
    _report(7, True, "60 simplicial diagrams: factorization found and reproduces images")


def test_criterion_8_fibonacci_self_confluence():
    cert = search_confluence(FIB, FIB, SearchBudget(2, 2, 8, 200000))
    assert cert is not None
    assert verify_certificate(FIB, FIB, cert).accepted
    identity_interleaving = self_certificate(FIB, 2)
    _report(8, cert == identity_interleaving, "identity-interleaving certificate found")


def test_criterion_9_round_trip_and_cli_determinism(capsys):
    rng = random.Random(909)
    for _ in range(30):
        mode = rng.choice(["plain", "simplicial"])
        seq = random_diagram(rng, stages=rng.randint(1, 4), mode=mode)
        assert parse_diagram(emit_diagram(seq)) == seq
    for name in ("x2.diag", "x3.diag", "x4.diag", "fib.diag", "plane.diag"):
        text = (FIXTURES / name).read_text()
        assert emit_diagram(parse_diagram(text)) == text
    for name in ("x2_x4.cert", "fib_self.cert"):
        text = (FIXTURES / name).read_text()
        assert emit_certificate(parse_certificate(text)) == text

    corpus = [
        ("validate", str(FIXTURES / "x2.diag")),
        ("validate", str(FIXTURES / "bad_simplicial.diag")),
        ("verify", str(FIXTURES / "x2.diag"), str(FIXTURES / "x4.diag"),
         str(FIXTURES / "x2_x4.cert")),
        ("verify", str(FIXTURES / "fib.diag"), str(FIXTURES / "fib.diag"),
         str(FIXTURES / "fib_self.cert")),
        ("verify", str(FIXTURES / "x2.diag"), str(FIXTURES / "x3.diag"),
         str(FIXTURES / "x2_x4.cert")),
        ("invariants", str(FIXTURES / "x2.diag"), str(FIXTURES / "x3.diag")),
        ("invariants", str(FIXTURES / "x2.diag"), str(FIXTURES / "x4.diag")),
    ]

    def sweep():
        results = []
        for argv in corpus:
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            results.append((code, out))
        return results

    first = sweep()
    second = sweep()
    assert first == second
    assert [c for c, _ in first] == [0, 1, 0, 0, 1, 0, 0]
    _report(9, True, "fixture corpus round-trips, exit codes deterministic")
