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

No decision here factors an integer.  The multipliers of the diagrams a
call sees are refined with gcds alone into a *coprime base* (Bernstein,
"Factoring into coprimes in essentially linear time", J. Algorithms
2005): pairwise coprime integers of which every multiplier is a product
of powers.  A prime's exponent in a multiplier is that of its base
element times its exponent in that element, so two period products have
the same primes exactly when the same base elements divide them.  A base
element is factored, at most once, only when its primes are printed.

Printing uses ``factorint``, a splitter on the standard library alone:
trial division by the primes up to 41, a strong-probable-prime test to
those 13 bases, which proves primality below ``_PROVEN_BELOW`` (about
3.3e24; Sorenson and Webster, Math. Comp. 86, 2017) and stops at the
first bases that decide a smaller number (two below 1,373,653), and
Brent's rho (BIT 20, 1980) within ``_RHO_STEPS`` steps per call, a step
modulo a part longer than 512 bits charged by the square of its size.  A
part the budget does not split, or a probable prime it cannot prove,
stays one factor.  Such a factor is still a product of powers of primes,
so equivalence is decided over a coprime base rather than by key, and
every printed report notes it (``SupernaturalNumber.unproven``).  No
call runs past the budget, whatever the size of its parts or of their
primes.
"""

from __future__ import annotations

import math

from .diagrams import SequenceDiagram, transition, validate
from .matrices import _Frozen, _Record

INFINITE = math.inf

CONCLUSIVE = "CONCLUSIVE"
INDICATIVE = "INDICATIVE"

PREFIX_DISCLAIMER = (
    "prefix evidence cannot refute isomorphism; only whole-sequence "
    "invariants are conclusive"
)

# the least prime exponent gap over equal-length prefixes that is reported
INDICATIVE_GAP = 2


class SupernaturalNumber(_Frozen):
    """Map factor -> exponent in N u {infinity}; zero exponents omitted.

    The factors are pairwise coprime and prime, except those in
    ``unproven``: parts that ``factorint`` did not split within its budget,
    or could not prove prime, each printed as one factor."""

    _fields = ("exponents",)

    def __init__(self, exponents: tuple):  # sorted ((factor, exponent), ...)
        self.__dict__["exponents"] = exponents

    @staticmethod
    def from_dict(d: dict) -> "SupernaturalNumber":
        items = tuple(sorted((p, e) for p, e in d.items() if e))
        return SupernaturalNumber(items)

    def as_dict(self) -> dict:
        return dict(self.exponents)

    @property
    def infinite_primes(self) -> frozenset:
        return frozenset(p for p, e in self.exponents if e == INFINITE)

    @property
    def unproven(self) -> tuple:
        """The factors not proven prime, in increasing order."""
        return tuple(p for p, _ in self.exponents if not _proven_prime(p))

    def equivalent(self, other: "SupernaturalNumber") -> bool:
        """Equality up to finitely many finite-exponent differences: the
        same primes have infinite exponent.  The infinite factors are
        compared over one coprime base, so an unsplit ``p*q`` matches ``p``
        and ``q`` given apart."""
        mine, theirs = self.infinite_primes, other.infinite_primes
        base = _CoprimeBase(mine | theirs)
        return base.exponents(mine).keys() == base.exponents(theirs).keys()

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
    if any(seq.rank_at(i) != 1 for i in range(1, seq.length + 1)):
        raise ValueError("supernatural invariants need a rank-1 sequence")
    ms = []
    for t in range(1, seq.length):
        x = transition(seq, t, t + 1)[0, 0]
        if x == 0:
            raise ValueError(f"zero multiplier at transition {t}")
        ms.append(abs(x))
    return ms


# the strong-probable-prime bases, which are also the trial divisors
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# below this bound a strong probable prime to all of _SPRP_BASES is prime
_PROVEN_BELOW = 3317044064679887385961981
# below _SPRP_DECIDED[k] one to the first k + 1 bases is prime (OEIS A014233:
# Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017)
_SPRP_DECIDED = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, _PROVEN_BELOW,
)
# the Brent rho steps one ``factorint`` call may spend, over all its retries,
# on parts of up to 512 bits; a step modulo a part of b > 512 bits costs
# (b / 512)**2 of them, as its multiplication does, so the budget bounds time
_RHO_STEPS = 1 << 18


def _sprp(n: int) -> bool:
    """Whether ``n > 41`` is a strong probable prime to every base of
    ``_SPRP_BASES``; false for even ``n`` and multiples of a base.  Only
    the bases that decide ``n``'s size run: after the first ``k`` the
    answer is true once ``n`` is below ``_SPRP_DECIDED[k - 1]``, so a
    16-bit ``n`` takes two and ``n >= _PROVEN_BELOW`` all 13."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 == d * 2**s, d odd
    d = (n - 1) >> s
    for a, decided in zip(_SPRP_BASES, _SPRP_DECIDED):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < decided:
            return True
    return True


def _proven_prime(n: int) -> bool:
    return n in _SPRP_BASES if n <= 41 else n < _PROVEN_BELOW and _sprp(n)


def _rho(n: int, steps: int) -> tuple:
    """``(d, steps left)``: a divisor ``1 < d < n`` of the composite ``n``,
    or ``None`` when the next round would spend more than ``steps``.
    Brent's rho iterates ``y*y + c`` from 2 in rounds of doubling length,
    with gcds batched over 128 steps.  A ``c`` whose cycles close modulo
    every prime of ``n`` at once finds ``n`` itself; the next ``c`` retries.
    Each step is charged ``max(1, (bits of n / 512)**2)`` of ``steps``."""
    cost = max(1.0, (n.bit_length() / 512) ** 2)
    c = 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            if 2 * r * cost > steps:
                return None, steps
            steps -= 2 * r * cost
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys, q = y, 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # step through the last batch one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g, steps


def factorint(n: int) -> dict:
    """Factor -> exponent of ``n > 0``, with the standard library alone.

    The factors are pairwise coprime and prime, except a part that
    Brent's rho does not split within the ``_RHO_STEPS`` budget, or a
    probable prime at or above ``_PROVEN_BELOW``: such a part stays one
    factor, which ``_proven_prime`` rejects.  The parts found are refined
    into a coprime base, so their product is always ``n``.
    """
    parts = [p for p in _SPRP_BASES if n % p == 0]
    m = n
    for p in parts:
        while m % p == 0:
            m //= p
    pending, steps = [m] if m > 1 else [], _RHO_STEPS
    while pending:
        m = pending.pop()
        d = None
        if not _sprp(m):
            d, steps = _rho(m, steps)
        if d is None:
            parts.append(m)
        else:
            pending += [d, m // d]
    return _CoprimeBase(parts).exponents([n])


class _CoprimeBase:
    """A coprime base of some multipliers: pairwise coprime integers > 1 of
    which every multiplier is a product of powers, found with gcds alone.
    Elements are factored only when a caller asks for primes, and the base
    keeps their factors, so each is factored at most once.

    A base element ``b`` and a pending ``x`` with ``g = gcd(x, b) > 1`` give
    way to those of ``g``, ``b // g`` and ``x // g`` above 1.  Each such
    split divides the product of the base and the pending integers by
    ``g >= 2``, so there are at most ``log2`` of the inputs' product splits.
    """

    def __init__(self, ms):
        self.elements: list = []
        pending = [n for n in ms if n > 1]
        while pending:
            x = pending.pop()
            for i, b in enumerate(self.elements):
                g = math.gcd(x, b)
                if g > 1:
                    del self.elements[i]
                    pending += [y for y in (g, b // g, x // g) if y > 1]
                    break
            else:
                self.elements.append(x)
        self._factors: dict = {}

    def exponents(self, ms) -> dict:
        """Base element -> its exponent in the product of ``ms``."""
        exps: dict = {}
        for m in ms:
            for q in self.elements:
                while m % q == 0:
                    m //= q
                    exps[q] = exps.get(q, 0) + 1
        return exps

    def supernatural(self, seq: SequenceDiagram, ms: list) -> dict:
        """Base element -> exponent of the Steinitz invariant of ``seq``,
        whose multipliers are ``ms``: infinity for the elements of the
        period product, else the sum over the prefix (over all ``ms``
        without a period)."""
        if seq.period is None:
            return self.exponents(ms)
        prefix, length = seq.period
        exps = self.exponents(ms[:prefix])
        exps.update((q, INFINITE) for q in self.exponents(ms[prefix : prefix + length]))
        return exps

    def primes(self, exps: dict) -> dict:
        """Factor -> exponent of the product of ``q ** e`` over ``exps``, as
        ``factorint`` splits each ``q``."""
        out: dict = {}
        for q, e in exps.items():
            if q not in self._factors:
                self._factors[q] = factorint(q)
            # distinct base elements are coprime, so no prime repeats
            out.update((p, e * a) for p, a in self._factors[q].items())
        return out

    def steinitz(self, seq: SequenceDiagram, ms: list) -> SupernaturalNumber:
        return SupernaturalNumber.from_dict(self.primes(self.supernatural(seq, ms)))


def steinitz(seq: SequenceDiagram) -> SupernaturalNumber:
    """Supernatural invariant of a rank-1 sequence truncation.

    Without a period the exponents are the valuation sums over the
    stored multipliers.  With a period, primes dividing the period
    product get infinity and the rest keep their prefix contribution.
    """
    ms = _multipliers(seq)
    return _CoprimeBase(ms).steinitz(seq, ms)


def colimit_rank(seq: SequenceDiagram) -> tuple:
    """``(rank, stabilized)`` for a truncation declared mono.

    Under injective transitions ranks are nondecreasing, so the last
    stored rank bounds the colimit rank from below.  ``stabilized`` is
    true exactly when a period is declared, and the rank is then exact: a
    valid period closes on ranks (its last step ends at the rank its first
    step starts from), and a nondecreasing run that returns to its start
    is constant, so every stage past the prefix has the last stored rank.
    """
    if not seq.mono_required:
        raise ValueError("diagram not declared mono")
    return seq.rank_at(seq.length), seq.period is not None


class Evidence(_Frozen):
    _fields = ("strength", "message")

    def __init__(self, strength: str, message: str):  # strength: CONCLUSIVE | INDICATIVE
        self.__dict__.update(strength=strength, message=message)


class EvidenceReport(_Record):
    _fields = ("entries", "notes")

    def __init__(self, entries: list | None = None, notes: list | None = None, _base: _CoprimeBase | None = None,
                 _sides: tuple = ()):
        self.entries = [] if entries is None else entries
        self.notes = [] if notes is None else notes
        # the coprime base of both diagrams' multipliers, and each diagram
        # with its multipliers or the ValueError that ``steinitz`` raises on it
        self._base, self._sides = _base, _sides

    @property
    def conclusive(self) -> bool:
        return any(e.strength == CONCLUSIVE for e in self.entries)

    @property
    def empty(self) -> bool:
        return not self.entries

    def steinitz(self) -> list:
        """``steinitz`` of each diagram over the report's coprime base, so no
        base element that the entries factored is factored again; where
        ``steinitz`` raises ``ValueError``, the error stands in its place."""
        return [ms if isinstance(ms, ValueError) else self._base.steinitz(seq, ms) for seq, ms in self._sides]


def noniso_evidence(seqA: SequenceDiagram, seqB: SequenceDiagram) -> EvidenceReport:
    """Distinguishing facts between two diagrams.

    CONCLUSIVE entries hold for the declared infinite sequences
    (stabilized rank mismatch, inequivalent supernatural numbers);
    INDICATIVE entries only record prefix divergence, a prime exponent
    gap of at least ``INDICATIVE_GAP``, and carry an explicit disclaimer.
    Simplicial diagrams are compared as groups: a note says that their
    order invariants are not examined.

    The multipliers of both diagrams are refined with gcds into one
    coprime base, which the report keeps.  The rank-1 verdict compares the
    base elements of the two period products and factors nothing; only
    the primes an entry prints are factored, and ``EvidenceReport.steinitz``
    gives both invariants over the same base and its factors.
    """
    sides = []
    for name, seq in (("A", seqA), ("B", seqB)):
        bad = validate(seq)
        if not bad.ok:
            raise ValueError(f"diagram {name} is invalid: {bad.violations[0]}")
        try:
            sides.append((seq, _multipliers(seq)))
        except ValueError as exc:
            sides.append((seq, exc))
    base = _CoprimeBase([m for _, ms in sides if isinstance(ms, list) for m in ms])
    report = EvidenceReport(_base=base, _sides=tuple(sides))
    if seqA.simplicial or seqB.simplicial:
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
    (_, msA), (_, msB) = sides
    if isinstance(msA, ValueError) or isinstance(msB, ValueError):
        return report
    if seqA.period is not None and seqB.period is not None:
        expsA, expsB = base.supernatural(seqA, msA), base.supernatural(seqB, msB)
        infinite = [{q for q, e in exps.items() if e == INFINITE} for exps in (expsA, expsB)]
        if infinite[0] != infinite[1]:
            sA, sB = report.steinitz()
            report.entries.append(
                Evidence(
                    CONCLUSIVE,
                    f"supernatural invariants inequivalent: {sA} vs {sB}",
                )
            )
    else:
        count = min(len(msA), len(msB))
        expsA, expsB = base.exponents(msA[:count]), base.exponents(msB[:count])
        gaps = {q: abs(expsA.get(q, 0) - expsB.get(q, 0)) for q in expsA.keys() | expsB.keys()}
        # a prime's gap is its base element's gap times its exponent there
        gaps = base.primes({q: g for q, g in gaps.items() if g})
        for p in sorted(gaps):
            if gaps[p] >= INDICATIVE_GAP:
                report.entries.append(
                    Evidence(
                        INDICATIVE,
                        f"prime {p} exponent differs by {gaps[p]} over "
                        f"equal-length prefixes ({PREFIX_DISCLAIMER})",
                    )
                )
    return report
