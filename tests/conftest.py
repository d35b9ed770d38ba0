import contextlib
import inspect
import random
import sys
from pathlib import Path

import pytest

from colim.diagrams import SequenceDiagram, validate
from colim.matrices import Matrix, is_injective

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def rank1(mults, mode="plain", mono=True, period=None):
    """Rank-1 sequence from a list of scalar multipliers."""
    return SequenceDiagram(
        mode, [1] * (len(mults) + 1), [Matrix([[m]]) for m in mults], mono, period
    )


def random_matrix(rng, rows, cols, bound, nonneg=False):
    lo = 0 if nonneg else -bound
    return Matrix([[rng.randint(lo, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)


def random_diagram(rng, stages, max_rank=3, bound=3, mode="plain", mono=False):
    """Random valid diagram; with mono=True transitions are square and
    injective."""
    nonneg = mode == "simplicial"
    if mono:
        r = rng.randint(1, max_rank)
        ranks = [r] * stages
    else:
        ranks = [rng.randint(1, max_rank) for _ in range(stages)]
    transitions = []
    for t in range(stages - 1):
        while True:
            m = random_matrix(rng, ranks[t + 1], ranks[t], bound, nonneg)
            if not mono or is_injective(m):
                break
        transitions.append(m)
    return SequenceDiagram(mode, ranks, transitions, mono, None)


def some_diagram(rng, mode="plain", periodic=False, mono=False):
    """A valid diagram with ranks in 0..3 (1..3 and square injective
    transitions when ``mono``); a periodic one repeats its last
    ``length`` transitions after a prefix of up to two."""
    prefix, length = rng.randint(0, 2), rng.randint(1, 3)
    stages = prefix + length + 1 if periodic else rng.randint(2, 6)
    if mono:
        ranks = [rng.randint(1, 3)] * stages
    else:
        ranks = [rng.randint(0, 3) for _ in range(stages)]
        if periodic:
            ranks[-1] = ranks[prefix]  # the period closes
    transitions = []
    for t in range(stages - 1):
        while True:
            m = random_matrix(rng, ranks[t + 1], ranks[t], 2, nonneg=mode == "simplicial")
            if not mono or is_injective(m):
                break
        transitions.append(m)
    seq = SequenceDiagram(mode, ranks, transitions, mono, (prefix, length) if periodic else None)
    assert validate(seq).ok
    return seq


@contextlib.contextmanager
def recursion_limit(frames):
    """Run the block under a recursion limit ``frames`` frames above the
    current stack depth, and yield that limit; the old one is restored."""
    saved = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + frames
    sys.setrecursionlimit(limit)
    try:
        yield limit
    finally:
        sys.setrecursionlimit(saved)


@pytest.fixture
def count_steps(monkeypatch):
    """A function that returns the answer of ``query()`` and the number
    of ``SequenceDiagram._step`` calls it made."""
    calls = []
    step = SequenceDiagram._step
    monkeypatch.setattr(SequenceDiagram, "_step", lambda seq, i: calls.append(i) or step(seq, i))

    def counted(query):
        calls.clear()
        return query(), len(calls)

    return counted


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def fixtures_dir():
    return FIXTURES
