import ast
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from sympy import prevprime

from colim import colimit, confluence, diagrams, invariants
from colim.cli import main
from colim.colimit import ColimitElement
from colim.diagrams import SequenceDiagram
from colim.formats import emit_diagram, format_element, parse_element
from colim.matrices import Matrix

from conftest import FIXTURES, rank1, recursion_limit, some_diagram

X2 = str(FIXTURES / "x2.diag")
X3 = str(FIXTURES / "x3.diag")
X4 = str(FIXTURES / "x4.diag")
FIB = str(FIXTURES / "fib.diag")
PLANE = str(FIXTURES / "plane.diag")
X2_X4 = str(FIXTURES / "x2_x4.cert")
FIB_SELF = str(FIXTURES / "fib_self.cert")
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestValidate:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "validate", X2)
        assert code == 0
        assert "status: clean" in out

    def test_invalid(self, capsys):
        code, out, _ = run(capsys, "validate", str(FIXTURES / "bad_simplicial.diag"))
        assert code == 1
        assert "status: invalid" in out
        assert "violation: negative entry at transition 1" in out

    def test_period_that_does_not_close(self, capsys):
        bad = str(FIXTURES / "bad_period.diag")
        message = "period does not close: transition 1 ends at rank 2, transition 1 starts at rank 1"
        code, out, _ = run(capsys, "validate", bad)
        assert code == 1
        assert out[1:] == ["status: invalid", f"violation: {message}"]
        code, _, err = run(capsys, "equal", bad, "--e1", "1:1", "--e2", "1:2", "--horizon", "4")
        assert code == 2
        assert err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("argv, code", [
        (("verify", X2, X4, X2_X4), 0),
        (("search", X2, X4), 0),
        (("map", X2, X4, X2_X4, "--element", "1:1"), 0),
        (("invariants", X2, X4), 0),
    ])
    def test_each_diagram_is_validated_once(self, capsys, monkeypatch, argv, code):
        # x2 and x4 are mono with 2 stored transitions each
        calls = []
        monkeypatch.setattr(diagrams, "is_injective", lambda m: calls.append(m) or True)
        assert run(capsys, *argv)[0] == code
        assert len(calls) == 4

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no_such_file.diag")
        assert code == 2
        assert "error:" in err

    def test_internal_value_error_is_not_a_user_error(self, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(confluence, "verify_certificate", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["verify", X2, X4, X2_X4])
        assert "error:" not in capsys.readouterr().err

    def test_bad_search_budget_is_a_user_error(self, capsys):
        code, _, err = run(capsys, "search", X2, X4, "--depth", "1")
        assert code == 2
        assert "error: certificates need depth >= 2" in err

    def test_bad_equal_query_is_a_user_error(self, capsys):
        code, _, err = run(capsys, "equal", X2, "--e1", "1:1,2", "--e2", "1:1")
        assert code == 2
        assert "error: vector length" in err

    def test_element_stage_zero_is_a_user_error(self, capsys):
        code, out, err = run(capsys, "equal", X2, "--e1", "0:1", "--e2", "1:1")
        assert (code, out) == (2, [])
        assert err == "error: element stages are 1-based\n"

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "equal", str(FIXTURES / "bad_float.diag"),
                           "--e1", "1:1", "--e2", "1:1")
        assert code == 2
        assert "non-integer entry" in err


class TestVerify:
    def test_accepts_fixture(self, capsys):
        code, out, _ = run(capsys, "verify", X2, X4, X2_X4)
        assert code == 0
        assert out[:2] == ["status: accepted", "scope: all levels (periodic certificate accepted)"]

    def test_accepts_simplicial_self(self, capsys):
        # a certificate without a period proves nothing past its last level
        code, out, _ = run(capsys, "verify", FIB, FIB, FIB_SELF)
        assert code == 0
        assert out[:2] == ["status: accepted", "scope: levels 1..2 only, not a proof for the infinite colimits"]

    def test_rejected_periodic_claim_checks_its_levels_only(self, capsys, tmp_path):
        cert = tmp_path / "x2_x4.cert"
        cert.write_text(Path(X2_X4).read_text().replace('"index_step_b": 1', '"index_step_b": 2'))
        code, out, _ = run(capsys, "verify", X2, X4, str(cert))
        assert code == 0
        assert out[:2] == ["status: accepted", "scope: levels 1..3 only, not a proof for the infinite colimits"]
        assert out[2].startswith("note: periodic claim rejected")

    def test_rejects_wrong_pair(self, capsys):
        code, out, _ = run(capsys, "verify", X2, X3, X2_X4)
        assert code == 1
        assert "status: rejected" in out


class TestRankZero:
    def test_emitted_certificate_verifies_and_maps(self, capsys, tmp_path):
        # every map into B's rank-0 stages is 0x1 and written as []
        a, b, cert = (str(tmp_path / name) for name in ("a.diag", "b.diag", "c.cert"))
        Path(a).write_text(emit_diagram(SequenceDiagram("plain", [1, 1, 1], [Matrix([[0]])] * 2)))
        Path(b).write_text(emit_diagram(SequenceDiagram("plain", [0, 0, 0], [Matrix.zero(0, 0)] * 2)))
        code, out, _ = run(capsys, "search", a, b, "--depth", "2", "--bound", "1", "--horizon", "3",
                           "--emit", cert)
        assert (code, out[0]) == (0, "status: found")
        code, out, _ = run(capsys, "verify", a, b, cert)
        assert (code, out[0]) == (0, "status: accepted")
        assert run(capsys, "map", a, b, cert, "--element", "1:5") == (0, ["image: 1:"], "")
        assert run(capsys, "map", a, b, cert, "--element", "1:", "--backward") == (0, ["image: 2:0"], "")


class TestMalformedDocuments:
    @pytest.mark.parametrize("ranks", [
        "[" * 200_000 + "]" * 200_000,
        "[" + "7" * 5000 + "]",
    ], ids=["deep", "long"])
    def test_is_a_user_error(self, capsys, tmp_path, ranks):
        path = tmp_path / "bad.diag"
        path.write_text('{"mode": "plain", "ranks": %s, "transitions": []}' % ranks)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, [])
        assert err.startswith(f"error: {path}: not a well-formed document") and err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ('{"mode": "weird", "ranks": [1]}', """mode must be "plain" or "simplicial", got 'weird'"""),
        ('{"ranks": [1]}', 'mode must be "plain" or "simplicial", got None'),
        ('{"mode": "plain", "ranks": []}', "a diagram needs at least one stage"),
        ('{"mode": "plain", "ranks": [1], "mono": "yes"}', "mono_required must be a bool, got 'yes'"),
    ])
    def test_diagram_constructor_text(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.diag"
        path.write_text(doc)
        assert run(capsys, "validate", str(path)) == (2, [], f"error: {path}: {message}\n")


# every command, with its first diagram at ``{A}`` and its element (if it
# takes one) at ``{E}``
COMMANDS = {
    "validate": ["{A}"],
    "verify": ["{A}", X4, X2_X4],
    "search": ["{A}", X4],
    "map": ["{A}", X4, X2_X4, "--element", "{E}"],
    "equal": ["{A}", "--e1", "{E}", "--e2", "1:1"],
    "cone": ["{A}", "--element", "{E}"],
    "divisible": ["{A}", "--element", "{E}", "--m", "2"],
    "invariants": ["{A}", X4],
}
BAD_DIAGRAMS = {
    "missing file": None,
    "malformed JSON": "{not json",
    "float entry": '{"mode": "plain", "ranks": [1, 1], "transitions": [[[2.5]]]}',
    "bad mode": '{"mode": "weird", "ranks": [1, 1], "transitions": [[[2]]]}',
}


class TestErrorsAcrossCommands:
    """A user error ends any command with exit 2 and one short line on
    stderr, and prints nothing on stdout."""

    def run_bad(self, capsys, command, a=X2, e="1:1"):
        argv = [arg.format(A=a, E=e) for arg in COMMANDS[command]]
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, [])
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fault", BAD_DIAGRAMS)
    def test_bad_diagram(self, capsys, tmp_path, monkeypatch, command, fault):
        monkeypatch.chdir(tmp_path)
        if BAD_DIAGRAMS[fault] is not None:
            Path("a.diag").write_text(BAD_DIAGRAMS[fault])
        assert "a.diag" in self.run_bad(capsys, command, a="a.diag")

    @pytest.mark.parametrize("command", [c for c in COMMANDS if "{E}" in COMMANDS[c]])
    def test_long_coordinate(self, capsys, command):
        err = self.run_bad(capsys, command, e="1:" + "9" * 5000)
        assert err.endswith(f"has a part past the {sys.get_int_max_str_digits()}-digit limit\n")


# every integer option, with the arguments its command needs besides it
INTEGER_OPTIONS = [
    ("search", X2, X4, "--depth"),
    ("search", X2, X4, "--bound"),
    ("search", X2, X4, "--horizon"),
    ("search", X2, X4, "--nodes"),
    ("equal", X2, "--e1", "1:1", "--e2", "1:1", "--horizon"),
    ("cone", FIB, "--element", "1:1,0", "--horizon"),
    ("divisible", X2, "--element", "1:1", "--horizon"),
    ("divisible", X2, "--element", "1:1", "--m"),
]


class TestIntegerOptions:
    """A refused integer option is a usage error (exit 2) that quotes the
    value briefly, and names the digit limit when a literal is past it."""

    def usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert len(err) < 300 and "Traceback" not in err
        return err.splitlines()[-1]

    @pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_long_value(self, capsys, argv):
        line = self.usage_error(capsys, [*argv, "9" * 5000])
        limit = sys.get_int_max_str_digits()
        assert line.endswith(f"argument {argv[-1]}: invalid int value: '{'9' * 12}...{'9' * 13}' "
                             f"(past the {limit}-digit limit)")

    @pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_not_a_number(self, capsys, argv):
        line = self.usage_error(capsys, [*argv, "x"])
        assert line.endswith(f"argument {argv[-1]}: invalid int value: 'x'")

    def test_long_value_that_is_not_a_literal(self, capsys):
        line = self.usage_error(capsys, ["equal", X2, "--e1", "1:1", "--e2", "1:1", "--horizon", "9" * 5000 + "x"])
        assert line.endswith("argument --horizon: invalid int value: '999999999999...999999999999x'")


class TestSearch:
    def test_finds_and_emits(self, capsys, tmp_path):
        out_file = tmp_path / "found.cert"
        code, out, _ = run(capsys, "search", X2, X4, "--depth", "3", "--bound", "8",
                           "--horizon", "12", "--emit", str(out_file))
        assert code == 0
        assert "status: found" in out
        assert out_file.exists()
        code, out, _ = run(capsys, "verify", X2, X4, str(out_file))
        assert code == 0

    def test_emit_to_unwritable_path_is_a_user_error(self, capsys, tmp_path):
        path = tmp_path / "no_such_dir" / "found.cert"
        code, out, err = run(capsys, "search", X2, X4, "--emit", str(path))
        assert code == 2
        assert out == []
        assert f"error: cannot write {path}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("search", X2, X4), "search_x2_x4.out"),
            (("search", FIB, FIB, "--depth", "2", "--bound", "2", "--horizon", "8"),
             "search_fib_fib.out"),
            (("invariants", X2, X3), "invariants_x2_x3.out"),
            (("invariants", X2, X4), "invariants_x2_x4.out"),
        ],
    )
    def test_output_matches_golden(self, capsys, argv, golden):
        # pins the search order (the first certificate found) and the
        # printed invariants, byte for byte
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_budget_exhausted(self, capsys):
        code, out, _ = run(capsys, "search", X2, X3, "--depth", "3", "--bound", "8",
                           "--horizon", "12")
        assert code == 3
        assert "status: exhausted" in out

    def test_too_deep_a_search_is_a_user_error(self, capsys):
        with recursion_limit(150):
            code, out, err = run(capsys, "search", X2, X2, "--depth", "120", "--bound", "2",
                                 "--horizon", "120")
        assert (code, out) == (2, [])
        assert err.startswith("error: depth 120 needs more nested calls than") and err.count("\n") == 1


class TestMapAndQueries:
    def test_map_forward(self, capsys):
        code, out, _ = run(capsys, "map", X2, X4, X2_X4, "--element", "2:1")
        assert code == 0
        assert "image: 2:2" in out

    def test_map_backward(self, capsys):
        code, out, _ = run(capsys, "map", X2, X4, X2_X4, "--element", "1:1", "--backward")
        assert code == 0
        assert "image: 3:4" in out

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "equal", X2, "--e1", "1:1", "--e2", "2:2", "--horizon", "4")
        assert code == 0
        assert "answer: yes" in out and "witness: 2" in out

    def test_cone(self, capsys):
        code, out, _ = run(capsys, "cone", FIB, "--element", "1:1,-1", "--horizon", "5")
        assert code == 0
        assert "answer: yes" in out and "witness: 2" in out

    def test_cone_on_plain_is_error(self, capsys):
        code, _, err = run(capsys, "cone", X2, "--element", "1:1")
        assert code == 2
        assert "simplicial" in err

    def test_divisible(self, capsys):
        code, out, _ = run(capsys, "divisible", X2, "--element", "1:1", "--m", "2",
                           "--horizon", "6")
        assert code == 0
        assert "answer: yes" in out

    def test_map_with_a_rejected_certificate(self, capsys):
        code, out, _ = run(capsys, "map", X2, X3, X2_X4, "--element", "1:1")
        assert code == 1
        assert out == ["status: rejected", "failure: equation (2) fails at level n=1: f_2*g_1 != b-transition"]

    def test_equal_on_a_mono_diagram_says_no(self, capsys):
        code, out, _ = run(capsys, "equal", X2, "--e1", "1:1", "--e2", "1:2")
        assert code == 0
        assert out == ["answer: no"]

    def test_periodic_default_horizon(self, capsys):
        code, out, _ = run(capsys, "divisible", X3, "--element", "1:1", "--m", "2")
        assert code == 0
        assert out == ["answer: unknown", "horizon: 12"]

    def test_non_periodic_default_horizon_is_the_length(self, capsys, tmp_path):
        path = tmp_path / "x3.diag"
        path.write_text(emit_diagram(rank1([3, 3])))
        code, out, _ = run(capsys, "divisible", str(path), "--element", "1:1", "--m", "2")
        assert code == 0
        assert out == ["answer: unknown", "horizon: 3"]

    @pytest.mark.parametrize("argv, steps", [
        # x3 has rank 1 and 2 = 2^1: the walk stops one period past stage 1
        (("divisible", X3, "--element", "1:1", "--m", "2"), 1),
        # fib has rank 2: the walk stops two periods past stage 1
        (("equal", FIB, "--e1", "1:1,0", "--e2", "1:0,1"), 2),
    ])
    def test_unknown_at_a_far_horizon_stops_at_the_barren_stage(self, capsys, monkeypatch, argv, steps):
        """The answer is the walk to the horizon's, and its cost does not
        grow with the horizon: besides the one step that resolves the
        horizon's rank, the walk takes ``steps`` steps."""
        calls = []
        step = SequenceDiagram._step
        monkeypatch.setattr(SequenceDiagram, "_step", lambda seq, i: calls.append(i) or step(seq, i))
        code, out, _ = run(capsys, *argv, "--horizon", "1000000")
        assert (code, out) == (0, ["answer: unknown", "horizon: 1000000"])
        assert sorted(calls) == [*range(1, steps + 1), 999999]

    @pytest.mark.parametrize("argv", [
        ("equal", X2, "--e1", "1:1", "--e2", "2:2"),
        ("cone", FIB, "--element", "1:1,-1"),
        ("divisible", X2, "--element", "1:1", "--m", "2"),
    ])
    def test_horizon_zero_is_a_user_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--horizon", "0")
        assert code == 2
        assert out == []
        assert "error: stage 0 below 1" in err


def element_text(rng, seq, last):
    """An element of ``seq`` at a stage up to ``last + 1``, as the CLI
    reads it; some have the wrong length, and about one in ten is
    malformed or names stage 0."""
    if rng.random() < 0.1:
        return rng.choice(["0:1", "1:x", "1", "2:1.5", "1:" + "9" * 5000])
    stage = rng.randint(1, last + 1)
    n = seq.rank_at(stage) if seq.has_stage(stage) else rng.randint(0, 3)
    n += rng.random() < 0.1
    return format_element(ColimitElement(stage, [rng.randint(-3, 3) for _ in range(n)]))


def library_answer(command, seq, texts, m, horizon):
    """The exit code, output lines and error text of a query command, read
    off the library call it names: a ``ValueError``, a malformed element
    included, is one ``error:`` line with exit 2."""
    try:
        es = [parse_element(t) for t in texts]
        answer = {
            "equal": lambda: colimit.equal_at(seq, *es, horizon),
            "cone": lambda: colimit.cone_member(seq, *es, horizon),
            "divisible": lambda: colimit.divisible(seq, *es, m, horizon),
        }[command]()
    except ValueError as exc:
        return 2, [], f"error: {exc}\n"
    lines = [f"answer: {answer.kind}"]
    if answer.kind != "no":
        lines.append(f"{'witness' if answer.kind == 'yes' else 'horizon'}: {answer.stage}")
    return 0, lines, ""


class TestQueriesMatchTheLibrary:
    """``equal``, ``cone`` and ``divisible`` print what ``equal_at``,
    ``cone_member`` and ``divisible`` answer, and the ``error:`` line of
    what they or ``parse_element`` raise."""

    def test_seeded_queries(self, capsys, tmp_path):
        rng = random.Random(2929)
        seen = Counter()
        for n in range(300):
            seq = some_diagram(rng, rng.choice(["plain", "simplicial"]), periodic=rng.random() < 0.5,
                               mono=rng.random() < 0.3)
            path = tmp_path / f"{n}.diag"
            path.write_text(emit_diagram(seq))
            command = ["equal", "cone", "divisible"][n % 3]
            periodic = seq.period is not None
            horizon = rng.choice([None, rng.randint(1, 40 if periodic else seq.length)])
            default = max(12, seq.length) if periodic else seq.length
            texts = [element_text(rng, seq, horizon or default) for _ in range(1 + (command == "equal"))]
            m = rng.randint(0, 12)
            argv = [command, str(path)]
            argv += ["--e1", texts[0], "--e2", texts[1]] if command == "equal" else ["--element", texts[0]]
            argv += ["--m", str(m)] if command == "divisible" else []
            argv += ["--horizon", str(horizon)] if horizon is not None else []
            want = library_answer(command, seq, texts, m, horizon or default)
            assert run(capsys, *argv) == want, argv
            seen[want[1][0] if want[1] else want[2]] += 1
        assert {"answer: yes", "answer: no", "answer: unknown"} <= set(seen)
        assert "error: cone membership is only defined in simplicial mode\n" in seen
        assert "error: modulus must be >= 1\n" in seen
        assert "error: element '1:x' has non-integer parts\n" in seen


class TestInvariants:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "invariants", X2)
        assert code == 0
        assert "rank: 1" in out
        assert "steinitz: 2^inf" in out

    def test_single_without_steinitz(self, capsys):
        code, out, _ = run(capsys, "invariants", PLANE)
        assert code == 0
        assert out == ["rank: 2", "rank_stabilized: true"]

    def test_pair_conclusive(self, capsys):
        code, out, _ = run(capsys, "invariants", X2, X3)
        assert code == 0
        assert any(line.startswith("evidence: CONCLUSIVE") for line in out)

    def test_pair_empty(self, capsys):
        code, out, _ = run(capsys, "invariants", X2, X4)
        assert code == 0
        assert "evidence: none" in out

    def test_simplicial_pair_notes_order_invariants(self, capsys):
        code, out, _ = run(capsys, "invariants", FIB, FIB)
        assert code == 0
        assert out[-1] == ("note: simplicial diagrams are compared as groups only; "
                           "order invariants are not examined")

    def test_pair_factors_each_base_element_once(self, capsys, monkeypatch):
        # x2 and x4 share the coprime base {2}
        factored = []
        factorint = invariants.factorint
        monkeypatch.setattr(invariants, "factorint", lambda n: factored.append(n) or factorint(n))
        assert run(capsys, "invariants", X2, X4)[0] == 0
        assert factored == [2]

    def test_indicative_pair_factors_each_base_element_once(self, capsys, monkeypatch, tmp_path):
        paths = []
        for name, mults in (("a", [4, 6]), ("b", [3, 9, -3])):
            paths.append(tmp_path / f"{name}.diag")
            paths[-1].write_text(emit_diagram(rank1(mults)))
        factored = []
        factorint = invariants.factorint
        monkeypatch.setattr(invariants, "factorint", lambda n: factored.append(n) or factorint(n))
        code, out, _ = run(capsys, "invariants", *map(str, paths))
        assert code == 0
        assert [line.split(" exponent")[0] for line in out if line.startswith("evidence")] == [
            "evidence: INDICATIVE prime 2", "evidence: INDICATIVE prime 3"]
        assert sorted(factored) == [2, 3]

    def test_conclusive_pair_factors_each_base_element_once(self, capsys, monkeypatch):
        factored = []
        factorint = invariants.factorint
        monkeypatch.setattr(invariants, "factorint", lambda n: factored.append(n) or factorint(n))
        assert run(capsys, "invariants", X2, X3)[0] == 0
        assert sorted(factored) == [2, 3]

    def test_semiprime_pair_shares_one_base(self, capsys, monkeypatch, tmp_path):
        # 16-bit primes: the verdict and both Steinitz lines use the base
        # {4, 3, p1, p2, p3}, and each element is factored once
        p1, p2, p3 = 65521, 65519, 65497
        seqs = rank1([4, p1 * p2], period=(1, 1)), rank1([9, 3 * p1 * p3], period=(1, 1))
        paths = write_diagrams(tmp_path, *seqs)
        factored = []
        factorint = invariants.factorint
        monkeypatch.setattr(invariants, "factorint", lambda n: factored.append(n) or factorint(n))
        code, out, _ = run(capsys, "invariants", *paths)
        assert code == 0
        assert sorted(factored) == [3, 4, p3, p2, p1]
        sa, sb = (str(invariants.steinitz(seq)) for seq in seqs)
        assert [line for line in out if "steinitz" in line] == [f"A.steinitz: {sa}", f"B.steinitz: {sb}"]
        assert out[-1] == f"evidence: CONCLUSIVE supernatural invariants inequivalent: {sa} vs {sb}"

    def test_unsplit_semiprime_period_is_decided_and_noted(self, tmp_path):
        # a (96-bit prime) * (105-bit prime) period: the verdict needs gcds
        # only, and the splitter's budget ends before it finds either prime
        n = prevprime(2**96) * prevprime(2**105)
        (path,) = write_diagrams(tmp_path, rank1([n], period=(0, 1)))
        proc, imported = fresh_interpreter("-m", "colim.cli", "invariants", path, X2, timeout=10)
        assert proc.returncode == 0
        assert "sympy" not in imported
        assert proc.stdout.splitlines()[-2:] == [
            f"evidence: CONCLUSIVE supernatural invariants inequivalent: {n}^inf vs 2^inf",
            f"note: {n} is not proven prime; printed unsplit",
        ]

    def test_unsplit_2048_bit_period_prints_within_the_timeout(self, tmp_path):
        # a rank-1 period of two 1,024-bit primes: rho is charged by the
        # part's size, so the unsplit part costs about what a 512-bit one does
        p = prevprime(2**1024)
        n = p * prevprime(p)
        (path,) = write_diagrams(tmp_path, rank1([n], period=(0, 1)))
        proc, _ = fresh_interpreter("-m", "colim.cli", "invariants", path, timeout=10)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-2:] == [f"steinitz: {n}^inf", f"note: {n} is not proven prime; printed unsplit"]

    def test_single_unsplit_factor_is_noted(self, capsys, tmp_path):
        p, q = prevprime(2**45), prevprime(2**44)
        (path,) = write_diagrams(tmp_path, rank1([12, p * q], period=(1, 1)))
        assert run(capsys, "invariants", path)[:2] == (0, [
            "rank: 1",
            "rank_stabilized: true",
            f"steinitz: 2^2*3*{p * q}^inf",
            f"note: {p * q} is not proven prime; printed unsplit",
        ])

    @pytest.mark.parametrize("a, b, lines", [
        # fib's transition has determinant -1: only the missing ``mono`` withholds its rank
        (FIB, FIB, [
            "A.rank: unavailable (diagram not declared mono)",
            "B.rank: unavailable (diagram not declared mono)",
            "evidence: none",
            "note: simplicial diagrams are compared as groups only; order invariants are not examined",
        ]),
        (str(FIXTURES / "plane.diag"), X2, [
            "A.rank: 2",
            "A.rank_stabilized: true",
            "B.rank: 1",
            "B.rank_stabilized: true",
            "B.steinitz: 2^inf",
            "evidence: CONCLUSIVE stabilized colimit ranks differ: 2 vs 1",
        ]),
        (rank1([0, 2], mono=False), X2, [
            "A.rank: unavailable (diagram not declared mono)",
            "A.steinitz: unavailable (zero multiplier at transition 1)",
            "B.rank: 1",
            "B.rank_stabilized: true",
            "B.steinitz: 2^inf",
            "evidence: none",
        ]),
    ], ids=["fib_fib", "plane_x2", "zero_x2"])
    def test_pair_lines(self, capsys, tmp_path, a, b, lines):
        if not isinstance(a, str):
            (a,) = write_diagrams(tmp_path, a)
        assert run(capsys, "invariants", a, b)[:2] == (0, lines)


class TestInvariantsOneAndTwo:
    """``invariants D`` prints the lines that ``invariants D E`` prints for
    ``D`` under the label ``A.``."""

    @pytest.mark.parametrize("other", [X2, FIB], ids=["x2", "fib"])
    @pytest.mark.parametrize("d", [
        X2, X3, X4, FIB, PLANE,
        rank1([0, 2], mono=False),
        rank1([6, 10], mono=False, period=(1, 1)),
        rank1([12, 5], period=(1, 1)),
    ], ids=["x2", "x3", "x4", "fib", "plane", "zero", "non_mono_periodic", "prefix_periodic"])
    def test_single_lines_are_the_pair_a_lines(self, capsys, tmp_path, d, other):
        if not isinstance(d, str):
            (d,) = write_diagrams(tmp_path, d)
        code, single, _ = run(capsys, "invariants", d)
        assert code == 0
        code, pair, _ = run(capsys, "invariants", d, other)
        assert code == 0
        assert single == [line[2:] for line in pair if line.startswith("A.")]


def write_diagrams(tmp_path, *seqs):
    """Paths of ``seqs`` emitted to files under ``tmp_path``."""
    paths = []
    for i, seq in enumerate(seqs):
        paths.append(tmp_path / f"{i}.diag")
        paths[-1].write_text(emit_diagram(seq))
    return [str(path) for path in paths]


class TestDeterminism:
    def test_exit_codes_are_stable_over_corpus(self, capsys):
        corpus = [
            ("validate", X2), ("validate", X3), ("validate", X4), ("validate", FIB),
            ("validate", str(FIXTURES / "plane.diag")),
            ("validate", str(FIXTURES / "bad_simplicial.diag")),
            ("verify", X2, X4, X2_X4),
            ("verify", FIB, FIB, FIB_SELF),
            ("verify", X2, X3, X2_X4),
            ("invariants", X2, X3),
        ]
        first = [run(capsys, *argv) for argv in corpus]
        second = [run(capsys, *argv) for argv in corpus]
        assert [(c, o) for c, o, _ in first] == [(c, o) for c, o, _ in second]


def fresh_interpreter(*args, timeout=None):
    """Run ``python -X importtime *args`` in a new process with ``src`` on
    the path; returns the process and the names of the modules it imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True,
                          timeout=timeout)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc, imported


class TestColdStart:
    def test_import_does_not_load_sympy(self):
        proc, imported = fresh_interpreter("-c", "import colim, colim.cli")
        assert proc.returncode == 0
        assert "colim.cli" in imported
        assert "sympy" not in imported

    @pytest.mark.parametrize("argv", [
        ("validate", X2),
        ("verify", X2, X4, X2_X4),
        ("search", X2, X4),
        ("map", X2, X4, X2_X4, "--element", "2:1"),
        ("equal", X2, "--e1", "1:1", "--e2", "2:2", "--horizon", "4"),
        ("cone", FIB, "--element", "1:1,-1", "--horizon", "5"),
        ("divisible", X2, "--element", "1:1", "--m", "2", "--horizon", "6"),
    ])
    def test_commands_without_factorisation_do_not_load_sympy(self, argv):
        proc, imported = fresh_interpreter("-m", "colim.cli", *argv)
        assert proc.returncode == 0
        assert "sympy" not in imported

    def test_rank1_verdict_does_not_load_sympy(self):
        code = (
            "from pathlib import Path; from colim.formats import parse_diagram; "
            "from colim.invariants import noniso_evidence; "
            f"print(noniso_evidence(*(parse_diagram(Path(p).read_text()) for p in {[X2, X4]!r})).empty)"
        )
        proc, imported = fresh_interpreter("-c", code)
        assert proc.returncode == 0
        assert proc.stdout == "True\n"
        assert "sympy" not in imported

    def test_invariants_does_not_load_sympy_and_prints_the_same_lines(self):
        proc, imported = fresh_interpreter("-m", "colim.cli", "invariants", X2, X3)
        assert proc.returncode == 0
        assert "sympy" not in imported
        assert proc.stdout.splitlines() == [
            "A.rank: 1",
            "A.rank_stabilized: true",
            "A.steinitz: 2^inf",
            "B.rank: 1",
            "B.rank_stabilized: true",
            "B.steinitz: 3^inf",
            "evidence: CONCLUSIVE supernatural invariants inequivalent: 2^inf vs 3^inf",
        ]


class TestStdlibOnly:
    @pytest.mark.parametrize("path", sorted((SRC / "colim").glob("*.py")), ids=lambda path: path.name)
    def test_imports_only_the_standard_library(self, path):
        modules = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
        assert {m.split(".")[0] for m in modules} - sys.stdlib_module_names - {"colim"} == set()


class TestRepeatedMain:
    """Calls of ``main`` in one process share no state."""

    def test_search_without_emit_after_search_with_emit(self, capsys, tmp_path):
        out_file = tmp_path / "found.cert"
        code, out, _ = run(capsys, "search", X2, X4, "--emit", str(out_file))
        assert code == 0
        assert f"emitted: {out_file}" in out
        assert main(["search", X2, X4]) == 0
        assert capsys.readouterr().out == (GOLDEN / "search_x2_x4.out").read_text(encoding="utf-8")

    def test_map_forward_after_map_backward(self, capsys):
        code, out, _ = run(capsys, "map", X2, X4, X2_X4, "--element", "1:1", "--backward")
        assert (code, out) == (0, ["image: 3:4"])
        code, out, _ = run(capsys, "map", X2, X4, X2_X4, "--element", "2:1")
        assert (code, out) == (0, ["image: 2:2"])

    def test_good_call_after_user_error(self, capsys):
        assert run(capsys, "validate", "no_such_file.diag")[0] == 2
        assert run(capsys, "validate", X2)[0] == 0

    def test_good_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", X2, X4, "--depth", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "search", X2, X4, "--depth", "3")
        assert code == 0
        assert "status: found" in out


# Runs ``colim.cli.main`` on the arguments with stdout flushed line by line
# up to its second line, then held until stdin reaches end of file, so that
# what the command writes next is buffered for a pipe whose reader is gone.
HOLD_AFTER_TWO_LINES = """
import sys
from colim.cli import main


class Held:
    def __init__(self, out):
        self.out, self.lines = out, 0

    def write(self, text):
        if self.lines >= 2:
            sys.stdin.read()
            return self.out.write(text)
        self.lines += text.count("\\n")
        n = self.out.write(text)
        self.out.flush()
        return n

    def __getattr__(self, name):
        return getattr(self.out, name)


sys.stdout = Held(sys.stdout)
sys.exit(main(sys.argv[1:]))
"""


class TestClosedStdout:
    """A reader that stops early is not an internal fault: the command
    ends with exit 2, no traceback and nothing on stderr."""

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, head", [
        (("search", FIB, FIB), [b"status: found\n", b"depth: 3\n"]),
        (("invariants", X2, X3), [b"A.rank: 1\n", b"A.rank_stabilized: true\n"]),
    ])
    def test_reader_closes_after_two_lines(self, argv, head, buffered):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-c", HOLD_AFTER_TWO_LINES, *argv], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert [proc.stdout.readline() for _ in head] == head
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)  # closes stdin, which lets the command go on
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (2, b"")
