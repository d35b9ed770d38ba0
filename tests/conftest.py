import random
from pathlib import Path

import pytest

from colim.matrices import Matrix
from colim.diagrams import SequenceDiagram

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
    from colim.matrices import is_injective

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


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def fixtures_dir():
    return FIXTURES
