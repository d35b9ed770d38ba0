"""An invalid diagram has no stages.

``SequenceDiagram.rank_at`` and ``SequenceDiagram._step`` refuse a
diagram that ``validate`` rejects, with ``invalid diagram: `` and the
first violation, and every reader of stages goes through them: so each
reader raises that text on each kind of violation and answers nothing.
A guard keeps the transitions read through ``_step`` only, and ``_step``
called in ``diagrams.py`` only."""

import ast
import random
from pathlib import Path

import pytest

from colim import confluence
from colim.colimit import (
    ColimitElement,
    cone_member,
    divisible,
    equal_at,
    eventual_equalizer,
    factor_through_stage,
    pushforward,
)
from colim.confluence import (
    BACKWARD,
    FORWARD,
    ConfluenceCertificate,
    SearchBudget,
    induced_map,
    search_confluence,
    verify_certificate,
)
from colim.diagrams import SequenceDiagram, push, transition, validate
from colim.invariants import colimit_rank, noniso_evidence, steinitz
from colim.matrices import Matrix, is_injective

from conftest import random_diagram, random_matrix, rank1

SRC = Path(__file__).resolve().parent.parent / "src" / "colim"


def _rebuilt(seq, ranks=None, transitions=None, period=None):
    return SequenceDiagram(
        seq.mode, seq.ranks if ranks is None else ranks,
        seq.transitions if transitions is None else transitions, seq.mono_required, period,
    )


def _replace(transitions, t, m):
    return transitions[:t] + (m,) + transitions[t + 1:]


def _count(rng, seq):
    extra = (Matrix.identity(seq.ranks[-1]),) if rng.random() < 0.5 else ()
    return _rebuilt(seq, transitions=seq.transitions[:-1] + extra * 2)


def _shape(rng, seq):
    t = rng.randrange(len(seq.transitions))
    m = seq.transitions[t]
    return _rebuilt(seq, transitions=_replace(seq.transitions, t, Matrix.zero(m.rows + 1, m.cols)))


def _negative(rng, seq):
    t = rng.randrange(len(seq.transitions))
    m = seq.transitions[t]
    if seq.mono_required:  # -m is as injective as m and, being nonzero, has a negative entry
        bad = Matrix([[-x for x in row] for row in m.entries])
    else:
        bad = Matrix([[-1 if (r, c) == (0, 0) else x for c, x in enumerate(row)] for r, row in enumerate(m.entries)])
    return _rebuilt(seq, transitions=_replace(seq.transitions, t, bad))


def _non_injective(rng, seq):
    t = rng.randrange(len(seq.transitions))
    m = seq.transitions[t]
    return _rebuilt(seq, transitions=_replace(seq.transitions, t, Matrix.zero(m.rows, m.cols)))


def _uncovered(rng, seq):
    stored = len(seq.transitions)
    prefix = rng.randint(0, stored)
    return _rebuilt(seq, period=(prefix, stored - prefix + rng.randint(1, 2)))


def _broken(rng, seq):
    # equal ranks, so a period of length 1 closes; transition 2 differs from 1
    first = seq.transitions[0]
    second = seq.transitions[1]
    if second == first:
        second = Matrix([[2 * x for x in row] for row in first.entries])
    return _rebuilt(seq, transitions=(first, second) + seq.transitions[2:], period=(0, 1))


def _open(rng, seq):
    # one step from rank a to rank b != a, declared its own period
    a = rng.randint(1, 3)
    b = a + rng.randint(1, 2)
    while True:
        m = random_matrix(rng, b, a, 3, seq.simplicial)
        if not seq.mono_required or is_injective(m):
            break
    return _rebuilt(seq, ranks=(a, b), transitions=(m,), period=(0, 1))


KINDS = {
    "expected": _count,
    "shape mismatch": _shape,
    "negative entry": _negative,
    "non-injective": _non_injective,
    "period declaration needs": _uncovered,
    "breaks the declared period": _broken,
    "period does not close": _open,
}


def invalid_diagrams(rng, kind):
    """Random diagrams, each with a violation of ``kind`` among its own."""
    for mode in ("plain", "simplicial"):
        for mono in (False, True):
            if (kind == "negative entry" and mode == "plain") or (kind == "non-injective" and not mono):
                continue
            # equal ranks, as ``_broken`` needs, from the mono generator
            base = random_diagram(rng, rng.randint(3, 5), mode=mode, mono=mono or kind == "breaks the declared period")
            seq = KINDS[kind](rng, SequenceDiagram(mode, base.ranks, base.transitions, mono))
            assert any(kind in v for v in validate(seq).violations), (kind, seq, validate(seq))
            yield seq


def readers(rng, seq):
    """One call of every public reader of stages.  The arguments pass
    every check that reads no stage; a stage past the truncation or a
    matrix of the wrong shape among them must not be reported first."""
    n = seq.length
    i = rng.randint(1, n)
    j = rng.randint(i, n + 2)
    horizon = rng.randint(1, n + 3)
    e = ColimitElement(i, [rng.randint(-3, 3) for _ in range(seq.ranks[i - 1])])
    stages = range(1, n + 4)
    cert = ConfluenceCertificate(stages, stages, [Matrix.zero(1, 1)] * len(stages), [Matrix.zero(1, 1)] * len(stages))
    calls = {
        "rank_at": lambda: seq.rank_at(i),
        "transition": lambda: transition(seq, i, j),
        "push": lambda: push(seq, i, j, e.vec),
        "pushforward": lambda: pushforward(seq, e, j),
        "equal_at": lambda: equal_at(seq, e, ColimitElement(1, [0] * seq.ranks[0]), horizon),
        "eventual_equalizer": lambda: eventual_equalizer(seq, i, j, Matrix.zero(1, 1), horizon),
        "factor_through_stage": lambda: factor_through_stage(seq, [e], horizon),
        "divisible": lambda: divisible(seq, e, rng.randint(1, 4), horizon),
        "induced_map forward": lambda: induced_map(seq, seq, cert, FORWARD, e),
        "induced_map backward": lambda: induced_map(seq, seq, cert, BACKWARD, e),
        "steinitz": lambda: steinitz(seq),
    }
    if seq.simplicial:
        calls["cone_member"] = lambda: cone_member(seq, e, horizon)
    if seq.mono_required:
        calls["colimit_rank"] = lambda: colimit_rank(seq)
    return calls


class TestEveryReaderRefuses:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_each_kind_of_violation(self, kind, seed):
        rng = random.Random(f"invalid:{kind}:{seed}")
        called = set()
        for seq in invalid_diagrams(rng, kind):
            want = "invalid diagram: " + validate(seq).violations[0]
            assert not seq.has_stage(1)
            for name, call in readers(rng, seq).items():
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == want, (name, seq)
                called.add(name)
        assert {"rank_at", "steinitz", "divisible"} <= called

    def test_all_kinds_in_both_modes_and_with_mono(self):
        names = set()
        for kind in KINDS:
            for seq in invalid_diagrams(random.Random(kind), kind):
                names.update(readers(random.Random(0), seq))
        assert {"cone_member", "colimit_rank", "eventual_equalizer"} <= names
        assert len(names) == 13


class TestAnswersThatContradictedThemselves:
    """Answers that an invalid diagram used to get, now refused."""

    def test_equal_at_on_a_non_injective_mono_diagram(self):
        seq = SequenceDiagram("plain", [1, 1], [Matrix([[0]])], True)
        want = "^invalid diagram: non-injective transition 1$"
        # the same second element, once at stage 1 and once at stage 2
        for e2 in (ColimitElement(1, [0]), ColimitElement(2, [0])):
            with pytest.raises(ValueError, match=want):
                equal_at(seq, ColimitElement(1, [1]), e2, 2)

    def test_cone_member_with_a_negative_entry(self):
        seq = SequenceDiagram("simplicial", [1, 1], [Matrix([[-1]])])
        with pytest.raises(ValueError, match="^invalid diagram: negative entry at transition 1$"):
            cone_member(seq, ColimitElement(1, [-1]), 2)

    def test_steinitz_of_a_broken_period(self):
        seq = rank1([2, 3], period=(0, 1))
        want = r"^invalid diagram: transition 2 breaks the declared period \(differs from transition 1\)$"
        with pytest.raises(ValueError, match=want):
            steinitz(seq)


class TestLibraryEntryPoints:
    """The library entry points that take two diagrams name the invalid
    one, A before B."""

    A = SequenceDiagram("plain", [1, 1], [Matrix([[0]])], True)
    B = rank1([2, 3], period=(0, 1))
    WHY_A = "non-injective transition 1"
    WHY_B = "transition 2 breaks the declared period (differs from transition 1)"

    def test_verify_certificate_lists_both(self):
        cert = ConfluenceCertificate([1, 2], [1, 2], [Matrix([[1]])] * 2, [Matrix([[1]])])
        report = verify_certificate(self.A, self.B, cert)
        assert not report.accepted
        assert report.failures == [f"diagram A is invalid: {self.WHY_A}", f"diagram B is invalid: {self.WHY_B}"]

    def test_search_confluence_names_the_first(self):
        with pytest.raises(ValueError) as exc:
            search_confluence(self.A, self.B, SearchBudget(2, 2, 3, 100))
        assert str(exc.value) == f"invalid diagram: {self.WHY_A}"

    @pytest.mark.parametrize("horizon", [1, 3, 10])
    def test_search_confluence_names_b_behind_a_valid_a(self, horizon):
        with pytest.raises(ValueError) as exc:
            search_confluence(rank1([2, 2], period=(0, 1)), self.B, SearchBudget(2, 2, horizon, 100))
        assert str(exc.value) == f"invalid diagram: {self.WHY_B}"

    def test_search_confluence_reports_modes_before_invalidity(self):
        a = SequenceDiagram("simplicial", [1, 1], [Matrix([[-1]])])
        assert not validate(a).ok
        with pytest.raises(ValueError) as exc:
            search_confluence(a, self.B, SearchBudget(2, 2, 3, 100))
        assert str(exc.value) == "diagrams must share a mode"

    @pytest.mark.parametrize("kind", KINDS)
    def test_search_confluence_on_each_kind_of_violation(self, kind):
        for seq in invalid_diagrams(random.Random(f"search:{kind}"), kind):
            want = "invalid diagram: " + validate(seq).violations[0]
            valid = rank1([2, 2], mode=seq.mode, period=(0, 1))
            for a, b in [(seq, valid), (valid, seq), (seq, seq)]:
                with pytest.raises(ValueError) as exc:
                    search_confluence(a, b, SearchBudget(2, 2, 4, 100))
                assert str(exc.value) == want

    def test_search_confluence_refuses_before_any_node(self, monkeypatch):
        ticks = []
        tick = confluence._Counter.tick

        def counted(self):
            ticks.append(1)
            tick(self)

        monkeypatch.setattr(confluence._Counter, "tick", counted)
        valid = rank1([2, 2], period=(0, 1))
        for a, b in [(self.A, self.B), (self.A, valid), (valid, self.B)]:
            with pytest.raises(ValueError, match="^invalid diagram: "):
                search_confluence(a, b, SearchBudget(2, 2, 3, 100))
        assert ticks == []
        search_confluence(valid, valid, SearchBudget(2, 2, 3, 100))
        assert ticks  # the counted tick is the one the search calls

    def test_noniso_evidence_names_b(self):
        with pytest.raises(ValueError) as exc:
            noniso_evidence(rank1([2, 2], period=(0, 1)), self.B)
        assert str(exc.value) == f"diagram B is invalid: {self.WHY_B}"


class TestStepsGoThroughStep:
    """Only ``diagrams.py`` reads a diagram's ``transitions`` or calls
    ``_step``, so every step is taken by ``SequenceDiagram._step``, which
    refuses an invalid diagram; ``formats.emit_diagram`` writes the
    transitions out as stored."""

    ALLOWED = {("formats.py", "emit_diagram", "transitions")}

    @staticmethod
    def reads(path):
        """``(function, attribute, line)`` of each ``.transitions`` and
        ``._step`` read in ``path``."""
        found = []

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Attribute) and node.attr in ("transitions", "_step"):
                found.append((where, node.attr, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(), str(path)), None)
        return found

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
    def test_no_module_but_diagrams_reads_transitions(self, path):
        if path.name == "diagrams.py":
            return
        bad = [(f, attr, line) for f, attr, line in self.reads(path) if (path.name, f, attr) not in self.ALLOWED]
        assert bad == []

    def test_the_allowed_read_is_there(self):
        assert [(f, attr) for f, attr, _ in self.reads(SRC / "formats.py")] == [("emit_diagram", "transitions")]

    def test_both_reads_are_found_in_diagrams(self):
        assert {attr for _, attr, _ in self.reads(SRC / "diagrams.py")} == {"transitions", "_step"}
