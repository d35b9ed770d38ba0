import json
import sys

import pytest

from colim.colimit import ColimitElement
from colim.confluence import BACKWARD, FORWARD, CertificatePeriod, ConfluenceCertificate, induced_map, verify_certificate
from colim.diagrams import SequenceDiagram, validate
from colim.formats import (
    FormatError,
    emit_certificate,
    emit_diagram,
    format_element,
    parse_certificate,
    parse_diagram,
    parse_element,
)
from colim.matrices import Matrix

from conftest import FIXTURES, random_diagram, random_matrix, rank1


def rank0_diagram(rng, mode):
    """A valid diagram of 1-4 stages with ranks 0-2, periodic over its
    stored transitions now and then; its last stage then takes the rank
    the period returns to."""
    ranks = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
    period = None
    if len(ranks) > 1 and rng.random() < 0.4:
        prefix = rng.randint(0, len(ranks) - 2)
        period = (prefix, len(ranks) - 1 - prefix)
        ranks[-1] = ranks[prefix]
    steps = [random_matrix(rng, ranks[t + 1], ranks[t], 2, mode == "simplicial") for t in range(len(ranks) - 1)]
    return SequenceDiagram(mode, ranks, steps, False, period)


def as_written(m):
    """What the text formats keep of a matrix: one without rows is ``[]``."""
    return m if m.rows else Matrix.zero(0, 0)


class TestParseDiagram:
    def test_minimal_doubling(self, fixtures_dir):
        seq = parse_diagram((fixtures_dir / "x2.diag").read_text())
        assert seq.ranks == (1, 1, 1) and seq.period == (0, 1)
        assert seq.transitions[0] == Matrix([[2]])

    def test_float_entry_rejected_with_path(self):
        text = '{"mode": "plain", "mono": true, "ranks": [1, 1], "transitions": [[[2.5]]]}'
        with pytest.raises(FormatError, match=r"non-integer entry at transitions\[0\]\[0\]\[0\]"):
            parse_diagram(text)

    @pytest.mark.parametrize("literal, message", [
        ("2.5", "non-integer entry"),
        ("true", "expected an integer"),
        ('"7"', "expected an integer"),
    ])
    @pytest.mark.parametrize("r, c", [(r, c) for r in range(3) for c in range(3)])
    def test_bad_entry_named_at_each_position(self, literal, message, r, c):
        rows = [["1"] * 3 for _ in range(3)]
        rows[r][c] = literal
        bad = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
        ident = "[[1,0,0],[0,1,0],[0,0,1]]"
        text = f'{{"mode": "plain", "ranks": [3, 3, 3], "transitions": [{ident}, {bad}]}}'
        with pytest.raises(FormatError) as exc:
            parse_diagram(text)
        assert str(exc.value) == f"{message} at transitions[1][{r}][{c}]"
        text = f'{{"i_indices": [1], "k_indices": [1], "f_mats": [{bad}], "g_mats": []}}'
        with pytest.raises(FormatError) as exc:
            parse_certificate(text)
        assert str(exc.value) == f"{message} at f_mats[0][{r}][{c}]"

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("row, message", [
        ([1], "ragged matrix rows"),
        ([1, 2, 3], "ragged matrix rows"),
        (5, "expected an array"),
    ])
    def test_bad_row_named_at_each_position(self, r, row, message):
        rows = [[1, 2], [3, 4], [5, 6]]
        rows[r] = row
        rows[r - 1] = [1, 2.5]  # a fault in an earlier row is reported first
        doc = {"mode": "plain", "ranks": [2, 3], "transitions": [rows]}
        with pytest.raises(FormatError, match=r"non-integer entry at transitions\[0\]"):
            parse_diagram(json.dumps(doc))
        rows[r - 1] = [1, 2]
        with pytest.raises(FormatError) as exc:
            parse_diagram(json.dumps(doc))
        assert str(exc.value) == f"{message} at transitions[0][{r}]"

    def test_bad_index_named(self):
        with pytest.raises(FormatError, match=r"^expected an integer at ranks\[1\]$"):
            parse_diagram('{"mode": "plain", "ranks": [1, false], "transitions": [[[1]]]}')
        with pytest.raises(FormatError, match=r"^non-integer entry at k_indices\[2\]$"):
            parse_certificate('{"i_indices": [1], "k_indices": [1, 2, 3.0], "f_mats": [], "g_mats": []}')

    def test_simplicial_negativity_surfaced_at_parse(self, fixtures_dir):
        with pytest.raises(FormatError, match="negative entry at transition 1"):
            parse_diagram((fixtures_dir / "bad_simplicial.diag").read_text())

    def test_malformed_json(self):
        with pytest.raises(FormatError, match="well-formed"):
            parse_diagram("{not json")

    def test_unknown_mode(self):
        with pytest.raises(FormatError, match="mode"):
            parse_diagram('{"mode": "weird", "ranks": [1], "transitions": []}')

    @pytest.mark.parametrize("parse", [parse_diagram, parse_certificate])
    @pytest.mark.parametrize("field", [
        "[" * 200_000 + "]" * 200_000,  # deeper than the decoder can nest
        "[[[" + "7" * 5000 + "]]]",  # past the interpreter's int conversion limit
    ], ids=["deep", "long"])
    def test_documents_the_decoder_refuses_are_format_errors(self, parse, field):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(FormatError, match="not a well-formed document"):
            parse('{"mode": "plain", "ranks": [1, 1], "transitions": %s, "f_mats": %s}' % (field, field))
        assert sys.get_int_max_str_digits() == limit

    def test_row_less_transition_takes_its_source_rank(self):
        text = '{"mode": "plain", "ranks": [2, 0, 1], "transitions": [[], [[]]]}'
        seq = parse_diagram(text)
        assert [(m.rows, m.cols) for m in seq.transitions] == [(0, 2), (1, 0)]

    def test_shape_violation_surfaced(self):
        text = '{"mode": "plain", "ranks": [1, 2], "transitions": [[[1]]]}'
        with pytest.raises(FormatError, match="shape mismatch at transition 1"):
            parse_diagram(text)


class TestRoundTrip:
    def test_diagram_round_trip_random(self, rng):
        for _ in range(25):
            mode = rng.choice(["plain", "simplicial"])
            seq = random_diagram(rng, stages=rng.randint(1, 4), mode=mode)
            assert parse_diagram(emit_diagram(seq)) == seq
        # with rank-0 stages, whose maps into them are written []
        row_less = 0
        for n in range(60):
            seq = rank0_diagram(rng, ("plain", "simplicial")[n % 2])
            assert not validate(seq).violations
            assert parse_diagram(emit_diagram(seq)) == seq
            row_less += sum(not m.rows and m.cols > 0 for m in seq.transitions)
        assert row_less >= 10

    def test_periodic_diagram_round_trip(self):
        seq = rank1([3, 2, 2], period=(1, 1))
        assert parse_diagram(emit_diagram(seq)) == seq

    def test_certificate_round_trip(self, rng):
        cert = ConfluenceCertificate(
            [1, 3], [2, 4],
            [Matrix([[1, 0]]), Matrix([[2], [1]], cols=1)],
            [Matrix([[1], [1]], cols=1)],
            CertificatePeriod(2, 2, 1),
        )
        assert parse_certificate(emit_certificate(cert)) == cert

    def test_rank_zero_certificate_round_trip(self, rng):
        # a certificate keeps no ranks, so a map without rows comes back
        # 0x0; verification and the induced maps read it at its source rank
        row_less = 0
        for n in range(60):
            mode = ("plain", "simplicial")[n % 2]
            depth = rng.randint(2, 3)
            ra, rb = ([rng.randint(0, 2) for _ in range(depth)] for _ in "AB")
            f = [random_matrix(rng, rb[m], ra[m], 2, mode == "simplicial") for m in range(depth)]
            g = [random_matrix(rng, ra[m + 1], rb[m], 2, mode == "simplicial") for m in range(depth - 1)]
            seqA = SequenceDiagram(mode, ra, [g[m] * f[m] for m in range(depth - 1)])
            seqB = SequenceDiagram(mode, rb, [f[m + 1] * g[m] for m in range(depth - 1)])
            cert = ConfluenceCertificate(range(1, depth + 1), range(1, depth + 1), f, g)
            seqA, seqB = (parse_diagram(emit_diagram(seq)) for seq in (seqA, seqB))
            parsed = parse_certificate(emit_certificate(cert))
            assert parsed == ConfluenceCertificate(
                cert.i_indices, cert.k_indices, map(as_written, f), map(as_written, g)
            )
            assert emit_certificate(parsed) == emit_certificate(cert)
            assert verify_certificate(seqA, seqB, cert).accepted
            assert verify_certificate(seqA, seqB, parsed).accepted
            for direction, seq in ((FORWARD, seqA), (BACKWARD, seqB)):
                e = ColimitElement(1, [rng.randint(-3, 3) for _ in range(seq.ranks[0])])
                assert induced_map(seqA, seqB, parsed, direction, e) == induced_map(seqA, seqB, cert, direction, e)
            row_less += sum(not m.rows and m.cols > 0 for m in f + g)
        assert row_less >= 10

    def test_fixture_certificates(self, fixtures_dir):
        for name in ("x2_x4.cert", "fib_self.cert"):
            text = (fixtures_dir / name).read_text()
            cert = parse_certificate(text)
            assert parse_certificate(emit_certificate(cert)) == cert


class TestElements:
    def test_parse_and_format(self):
        e = parse_element("2:1,-3")
        assert e == ColimitElement(2, [1, -3])
        assert format_element(e) == "2:1,-3"

    def test_rank_zero(self):
        assert parse_element("1:") == ColimitElement(1, [])

    def test_bad_element(self):
        with pytest.raises(FormatError):
            parse_element("nope")
        with pytest.raises(FormatError):
            parse_element("1:2.5")
