"""Non-isomorphism evidence: rank stabilization and supernatural numbers.

For rank-1 sequences with nonzero multipliers the colimit is classified
by a supernatural number: the formal product ``prod p^e_p`` collecting
the p-adic valuations of the multipliers, with exponent infinity for
primes that recur under a period declaration.

Two supernatural numbers are *equivalent* when they differ in finitely
many primes, each by a finite amount; equivalently, when their sets of
infinite-exponent primes coincide (only finitely many primes ever carry
a nonzero finite exponent here).  Sketch of why this matches group
isomorphism for rank-1 colimits: the colimit embeds in the rationals as
the subgroup generated by ``1/m`` for every product ``m`` of an initial
run of multipliers, so it is the set of fractions whose denominators
divide the supernatural number.  Multiplying by a fixed rational scales
denominators by finitely many primes, each by a finite power, and every
isomorphism of subgroups of the rationals is multiplication by a
rational.  Hence isomorphism holds exactly up to finite differences in
finitely many exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .diagrams import SequenceDiagram, validate

INFINITE = math.inf

CONCLUSIVE = "CONCLUSIVE"
INDICATIVE = "INDICATIVE"

PREFIX_DISCLAIMER = (
    "prefix evidence cannot refute isomorphism; only whole-sequence "
    "invariants are conclusive"
)


@dataclass(frozen=True)
class SupernaturalNumber:
    """Map prime -> exponent in N u {infinity}; zero exponents omitted."""

    exponents: tuple  # sorted ((prime, exponent), ...)

    @staticmethod
    def from_dict(d: dict) -> "SupernaturalNumber":
        items = tuple(sorted((p, e) for p, e in d.items() if e))
        return SupernaturalNumber(items)

    def as_dict(self) -> dict:
        return dict(self.exponents)

    @property
    def infinite_primes(self) -> frozenset:
        return frozenset(p for p, e in self.exponents if e == INFINITE)

    def equivalent(self, other: "SupernaturalNumber") -> bool:
        """Equality up to finitely many finite-exponent differences."""
        return self.infinite_primes == other.infinite_primes

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        parts = []
        for p, e in self.exponents:
            if e == INFINITE:
                parts.append(f"{p}^inf")
            elif e == 1:
                parts.append(str(p))
            else:
                parts.append(f"{p}^{e}")
        return "*".join(parts)


def _multipliers(seq: SequenceDiagram) -> list:
    if any(r != 1 for r in seq.ranks):
        raise ValueError("supernatural invariants need a rank-1 sequence")
    ms = []
    for t, m in enumerate(seq.transitions, start=1):
        x = m[0, 0]
        if x == 0:
            raise ValueError(f"zero multiplier at transition {t}")
        ms.append(abs(x))
    return ms


def factorint(n: int) -> dict:
    """Prime -> exponent of ``n > 0``.

    Only the Steinitz invariants factor integers, so sympy is imported on
    the first call rather than with the package.
    """
    from sympy import factorint as sympy_factorint

    return sympy_factorint(n)


def _valuations(ms: list) -> dict:
    """Prime -> sum of the valuations of the multipliers ``ms``."""
    exps: dict = {}
    for m in ms:
        for p, e in factorint(m).items():
            exps[p] = exps.get(p, 0) + e
    return exps


def steinitz(seq: SequenceDiagram) -> SupernaturalNumber:
    """Supernatural invariant of a rank-1 sequence truncation.

    Without a period the exponents are the valuation sums over the
    stored multipliers.  With a period, primes dividing the period
    product get infinity and the rest keep their prefix contribution.
    """
    ms = _multipliers(seq)
    if seq.period is None:
        return SupernaturalNumber.from_dict(_valuations(ms))
    prefix, length = seq.period
    period_product = 1
    for m in ms[prefix : prefix + length]:
        period_product *= m
    infinite = set(factorint(period_product))
    exps = _valuations(ms[:prefix])
    exps.update((p, INFINITE) for p in infinite)
    return SupernaturalNumber.from_dict(exps)


def colimit_rank(seq: SequenceDiagram) -> tuple:
    """``(rank, stabilized)`` for a mono-mode truncation.

    Under injective transitions ranks are nondecreasing, so the last
    stored rank bounds the colimit rank from below; it is exact when a
    period with constant rank is declared.
    """
    if not seq.mono_required:
        raise ValueError(
            "colimit rank is not determined by a truncation with "
            "non-injective transitions"
        )
    last = seq.ranks[-1]
    stabilized = False
    if seq.period is not None:
        prefix, _ = seq.period
        stabilized = all(r == last for r in seq.ranks[prefix:])
    return last, stabilized


@dataclass(frozen=True)
class Evidence:
    strength: str  # CONCLUSIVE | INDICATIVE
    message: str


@dataclass
class EvidenceReport:
    entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def conclusive(self) -> bool:
        return any(e.strength == CONCLUSIVE for e in self.entries)

    @property
    def empty(self) -> bool:
        return not self.entries


def noniso_evidence(
    seqA: SequenceDiagram,
    seqB: SequenceDiagram,
    indicative_threshold: int = 2,
    steinitz_pair: tuple | None = None,
) -> EvidenceReport:
    """Distinguishing facts between two diagrams.

    CONCLUSIVE entries hold for the declared infinite sequences
    (stabilized rank mismatch, inequivalent supernatural numbers);
    INDICATIVE entries only record prefix divergence and carry an
    explicit disclaimer.

    A caller that already computed ``steinitz`` of both rank-1 diagrams
    passes the results as ``steinitz_pair``, with None for one that
    raised ``ValueError``, so no period product is factored twice.
    """
    report = EvidenceReport()
    for name, seq in (("A", seqA), ("B", seqB)):
        bad = validate(seq)
        if not bad.ok:
            raise ValueError(f"diagram {name} is invalid: {bad.violations[0]}")
    if seqA.simplicial and any(r == 1 for r in (seqA.ranks[-1], seqB.ranks[-1])):
        report.notes.append(
            "simplicial diagrams are compared as groups only; order "
            "invariants are not examined"
        )
    if seqA.mono_required and seqB.mono_required:
        ra, sa = colimit_rank(seqA)
        rb, sb = colimit_rank(seqB)
        if sa and sb and ra != rb:
            report.entries.append(
                Evidence(CONCLUSIVE, f"stabilized colimit ranks differ: {ra} vs {rb}")
            )
    rank1 = all(r == 1 for r in seqA.ranks) and all(r == 1 for r in seqB.ranks)
    if rank1:
        if steinitz_pair is None:
            try:
                steinitz_pair = (steinitz(seqA), steinitz(seqB))
            except ValueError:
                return report
        sA, sB = steinitz_pair
        if sA is None or sB is None:
            return report
        if seqA.period is not None and seqB.period is not None:
            if not sA.equivalent(sB):
                report.entries.append(
                    Evidence(
                        CONCLUSIVE,
                        f"supernatural invariants inequivalent: {sA} vs {sB}",
                    )
                )
        else:
            count = min(len(seqA.transitions), len(seqB.transitions))
            va = _valuations(_multipliers(seqA)[:count])
            vb = _valuations(_multipliers(seqB)[:count])
            for p in sorted(set(va) | set(vb)):
                gap = abs(va.get(p, 0) - vb.get(p, 0))
                if gap >= indicative_threshold:
                    report.entries.append(
                        Evidence(
                            INDICATIVE,
                            f"prime {p} exponent differs by {gap} over "
                            f"equal-length prefixes ({PREFIX_DISCLAIMER})",
                        )
                    )
    return report
