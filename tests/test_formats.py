import json
import random
import sys

import pytest

from colim.colimit import ColimitElement
from colim.confluence import BACKWARD, FORWARD, CertificatePeriod, ConfluenceCertificate, induced_map, verify_certificate
from colim.diagrams import SequenceDiagram, validate
from colim.formats import (
    FormatError,
    _ints,
    _loads,
    _matrix,
    emit_certificate,
    emit_diagram,
    format_element,
    parse_certificate,
    parse_diagram,
    parse_element,
)
from colim.matrices import Matrix

from conftest import FIXTURES, random_diagram, random_matrix, rank1, some_diagram


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
        ("NaN", "non-integer entry"),
        ("Infinity", "non-integer entry"),
        ("-Infinity", "non-integer entry"),
        ("1e400", "non-integer entry"),
        ("2.0", "non-integer entry"),
        ("-0.0", "non-integer entry"),
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

    @pytest.mark.parametrize("doc, message", [
        ({"mode": "weird", "ranks": [1]}, """mode must be "plain" or "simplicial", got 'weird'"""),
        ({"ranks": [1]}, 'mode must be "plain" or "simplicial", got None'),
        ({"mode": "plain", "ranks": []}, "a diagram needs at least one stage"),
        ({"mode": "plain", "ranks": [1], "mono": "yes"}, "mono_required must be a bool, got 'yes'"),
        ({"mode": "plain", "ranks": [1], "mono": 1}, "mono_required must be a bool, got 1"),
        ({"mode": "plain", "ranks": [1, -1]}, "ranks must be >= 0"),
    ])
    def test_diagram_fields_checked_by_the_constructor(self, doc, message):
        with pytest.raises(ValueError) as exc:
            SequenceDiagram(doc.get("mode"), doc["ranks"], [], doc.get("mono", False))
        assert str(exc.value) == message
        with pytest.raises(FormatError) as exc:
            parse_diagram(json.dumps(doc))
        assert str(exc.value) == message

    @pytest.mark.parametrize("period", [(0, 0), (-1, 1)])
    def test_period_checked_by_the_constructor(self, period):
        message = "period must be (prefix >= 0, length >= 1)"
        with pytest.raises(ValueError) as exc:
            SequenceDiagram("plain", [1], [], False, period)
        assert str(exc.value) == message
        doc = {"mode": "plain", "ranks": [1], "period": {"prefix_len": period[0], "period_len": period[1]}}
        with pytest.raises(FormatError) as exc:
            parse_diagram(json.dumps(doc))
        assert str(exc.value) == message

    def test_document_must_be_an_object(self):
        with pytest.raises(FormatError, match="^expected an object at document$"):
            parse_diagram("[]")

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


def parse_or_error(parse, text):
    """``parse(text)``, or the message of the format error it raises."""
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc)


class TestByteOrderMark:
    @pytest.mark.parametrize("path", sorted(FIXTURES.iterdir()), ids=lambda path: path.name)
    def test_fixture_reads_as_without(self, path):
        parse = parse_certificate if path.suffix == ".cert" else parse_diagram
        text = path.read_text()
        assert parse_or_error(parse, "\ufeff" + text) == parse_or_error(parse, text)


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

    @pytest.mark.parametrize("text, stage, vec", [
        ("2:1,-3", 2, [1, -3]),
        ("1:", 1, []),
        ("1: ", 1, []),
        ("+1:+1", 1, [1]),
        (" 3 : 4 , -5 ", 3, [4, -5]),
        ("007:010", 7, [10]),
        ("1:" + "9" * 50, 1, [int("9" * 50)]),
    ])
    def test_decimal_literals(self, text, stage, vec):
        assert parse_element(text) == ColimitElement(stage, vec)

    @pytest.mark.parametrize("text", [
        "1:1_0", "1_0:1", "1:\u0663", "\u0661:1", "1:\uff11", "1:1,\u00b2",
        "1:0x10", "1:1e3", "1:--1", "1:1,,2", "1:1 2", ":1",
    ])
    def test_anything_else_has_non_integer_parts(self, text):
        with pytest.raises(FormatError) as exc:
            parse_element(text)
        assert str(exc.value) == f"element {text!r} has non-integer parts"

    @pytest.mark.parametrize("text", [
        "1:{long}", "{long}:1", "1:2,{long},3", "1: +{zeros}1 ",
    ])
    def test_part_past_the_digit_limit(self, text):
        limit = sys.get_int_max_str_digits()
        text = text.format(long="9" * (limit + 1), zeros="0" * limit)
        with pytest.raises(FormatError) as exc:
            parse_element(text)
        assert str(exc.value).endswith(f"has a part past the {limit}-digit limit")
        assert parse_element(text.replace("9" * (limit + 1), "9" * limit).replace("0", "", 1))
        try:
            sys.set_int_max_str_digits(0)
            assert parse_element(text)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text", [
        "x" * 5000, "1:" + "x" * 5000, "1:" + "9" * 5000, "9" * 5000 + ":1", "1:1," + "2." * 2500,
    ], ids=["no colon", "letters", "long coordinate", "long stage", "floats"])
    def test_errors_quote_a_long_element_short(self, text):
        with pytest.raises(FormatError) as exc:
            parse_element(text)
        quoted = str(exc.value).split("'")[1]
        assert len(quoted) <= 40 and text.startswith(quoted.split("...")[0])


def json_loads(text):
    """What ``_loads`` must give: the value or error of ``json.loads``, on
    a ``str`` past one leading byte-order mark."""
    try:
        return json.loads(text[1:] if isinstance(text, str) and text.startswith("\ufeff") else text)
    except (ValueError, RecursionError) as exc:
        return FormatError(f"not a well-formed document: {exc}")


def json_walk(value):
    """Every value inside a decoded document, in order."""
    yield value
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from json_walk(item)


class TestLoadsIsJsonLoads:
    """``_loads`` returns what plain ``json.loads`` returns, or its error
    text as a format error."""

    @pytest.mark.parametrize("text", [
        '{"mode": "plain", "ranks": [1, 1], "transitions": [[[2]]]}',
        '{"f_mats": [[[1, -2], [3, 4]]], "x": 2.5, "y": [1e3, -0.0], "z": null}',
        "[]", "  7  ", '"\\u00e9"', "\n[1,\t2]\r\n",
        "\ufeff{}", "\ufeff", "\ufeff\ufeff[1]", "{not json", "", "[1,]", '{"a": 1} x', "[1, 2",
        "[" * 100_000 + "]" * 100_000, "[" + "7" * 5000 + "]", "-" + "1" * 4300,
        '{"a": 1}'.encode(), '{"a": [1, 2.5]}'.encode("utf-16"), '{"a": 1}'.encode("utf-32-le"),
        "\ufeff[1]".encode(), b"\xef\xbb\xbf\xef\xbb\xbf[1]", b"[1, \xff]", b"",
    ], ids=lambda text: repr(text[:12]))
    def test_same_value_or_error(self, text):
        want = json_loads(text)
        try:
            got = _loads(text)
        except FormatError as exc:
            got = exc
        if isinstance(want, FormatError):
            assert type(got) is FormatError and str(got) == str(want)
        else:
            assert got == want
            assert [type(x) for x in json_walk(got)] == [type(x) for x in json_walk(want)]


def entry_walk(value, path, empty_width=0):
    """The first fault of a matrix document as the entry walk names it,
    or its rows when it has none; shares no code with ``_matrix``."""
    if not isinstance(value, list):
        return f"expected an array at {path}"
    width = len(value[0]) if value and isinstance(value[0], list) else empty_width
    for r, row in enumerate(value):
        if not isinstance(row, list):
            return f"expected an array at {path}[{r}]"
        if len(row) != width:
            return f"ragged matrix rows at {path}[{r}]"
        for c, x in enumerate(row):
            if isinstance(x, float):
                return f"non-integer entry at {path}[{r}][{c}]"
            if isinstance(x, bool) or not isinstance(x, int):
                return f"expected an integer at {path}[{r}][{c}]"
    return value


FAULTS = [True, False, 2.5, 1e30, "7", None, [1], [], {"a": 1}]


def seeded_matrix_documents(rng, count):
    """JSON texts of matrices, about half of them faulty: a ragged row, a
    row that is not a list, or an entry that is a bool, a float, a string,
    ``null``, a list or an object."""
    for _ in range(count):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        doc = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            if not doc:
                doc = rng.choice([5, "x", None, {}])
                break
            r = rng.randrange(len(doc))
            if not isinstance(doc[r], list):
                continue
            kind = rng.random()
            if kind < 0.25:
                doc[r] = doc[r][1:] if doc[r] and rng.random() < 0.5 else doc[r] + [1]
            elif kind < 0.35:
                doc[r] = rng.choice([5, "row", None, {"r": 1}, 2.5])
            elif doc[r]:
                doc[r][rng.randrange(len(doc[r]))] = rng.choice(FAULTS)
        yield json.dumps(doc)


class TestBulkChecksMatchTheEntryWalk:
    """``_matrix`` and ``_ints`` test a document in bulk and walk it only
    when it is faulty; they accept what the entry walk accepts and name
    the fault it names first."""

    def test_matrices(self):
        rng = random.Random(16)
        faulty = 0
        for text in seeded_matrix_documents(rng, 3000):
            value = _loads(text)
            want = entry_walk(value, "m", 2)
            try:
                got = _matrix(value, "m", 2)
            except FormatError as exc:
                assert str(exc) == want, text
                faulty += 1
            else:
                assert not isinstance(want, str), text
                assert got.to_lists() == want and (got.rows, got.cols) == (len(want), len(want[0]) if want else 2)
        assert 1000 < faulty < 2000

    def test_integer_lists(self):
        rng = random.Random(61)
        faulty = 0
        for _ in range(2000):
            items = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
            if items and rng.random() < 0.5:
                items[rng.randrange(len(items))] = rng.choice(FAULTS)
            value = _loads(json.dumps(items))
            want = entry_walk([value], "ints")
            try:
                got = _ints(value, "ints")
            except FormatError as exc:
                assert str(exc) == want.replace("ints[0]", "ints"), items
                faulty += 1
            else:
                assert not isinstance(want, str) and got == items
        assert 500 < faulty < 1500


def clean_documents(rng, count):
    """``(parse, doc, widths)`` for ``count`` clean decoded documents,
    diagrams and certificates in turn; ``widths[name][n]`` is the width
    the parser gives matrix ``n`` of the array ``name`` when it has no
    rows."""
    for n in range(count):
        mode = ("plain", "simplicial")[n // 2 % 2]
        if n % 2 == 0:
            seq = some_diagram(rng, mode, periodic=rng.random() < 0.3)
            yield parse_diagram, json.loads(emit_diagram(seq)), {"transitions": seq.ranks}
            continue
        depth = rng.randint(1, 4)
        ra, rb = ([rng.randint(0, 3) for _ in range(depth)] for _ in "AB")
        f = [random_matrix(rng, rb[m], ra[m], 2, mode == "simplicial") for m in range(depth)]
        g = [random_matrix(rng, ra[m + 1], rb[m], 2, mode == "simplicial") for m in range(depth - 1)]
        cert = ConfluenceCertificate(range(1, depth + 1), range(1, depth + 1), f, g)
        yield parse_certificate, json.loads(emit_certificate(cert)), {"f_mats": [0] * depth, "g_mats": [0] * depth}


# each fault kind with the values it plants and the message the entry walk gives it
DOCUMENT_FAULTS = {
    "float": ([2.5, 1e30, -0.0, 2.0], "non-integer entry"),
    "true": ([True, False], "expected an integer"),
    "string": (["7", ""], "expected an integer"),
    "null": ([None], "expected an integer"),
    "object": ([{"a": 1}, {}], "expected an integer"),
    "nested list": ([[1], []], "expected an integer"),
    "ragged row": (None, "ragged matrix rows"),
    "non-list row": ([5, "row", None, {"r": 1}, 2.5, True], "expected an array"),
    "non-list matrix": ([5, "x", None, {}, 2.5, True], "expected an array"),
}


def plant(rng, rows, kind):
    """The matrix ``rows`` (a list of lists) with one fault of ``kind``,
    or ``None`` when it has no place for one."""
    values, _ = DOCUMENT_FAULTS[kind]
    if kind == "non-list matrix":
        return rng.choice(values)
    if kind == "non-list row":
        if not rows:
            return [rng.choice(values)]
        rows[rng.randrange(len(rows))] = rng.choice(values)
        return rows
    if kind == "ragged row":
        if not rows:
            return None
        width = len(rows[0])
        ragged = [1] * (width - 1 if width and rng.random() < 0.5 else width + 1)
        rows.insert(rng.randint(1, len(rows)), ragged)
        return rows
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    if not cells:
        return None
    r, c = rng.choice(cells)
    rows[r][c] = rng.choice(values)
    return rows


class TestDocumentFaultsMatchTheEntryWalk:
    """One fault planted in one matrix of a clean diagram or certificate
    document: the parser's error is the entry walk's, under the field
    path ``transitions[n]``, ``f_mats[n]`` or ``g_mats[n]``."""

    def test_one_fault_per_document(self):
        rng = random.Random(36)
        planted = dict.fromkeys(DOCUMENT_FAULTS, 0)
        for n, (parse, doc, widths) in enumerate(clean_documents(rng, 900)):
            kind = list(DOCUMENT_FAULTS)[n % len(DOCUMENT_FAULTS)]
            places = [(name, m) for name in widths for m in range(len(doc[name]))]
            rng.shuffle(places)
            for name, m in places:
                faulty = plant(rng, doc[name][m], kind)
                if faulty is not None:
                    break
            else:
                continue
            doc[name][m] = faulty
            want = entry_walk(faulty, f"{name}[{m}]", widths[name][m])
            assert isinstance(want, str) and want.startswith(DOCUMENT_FAULTS[kind][1] + f" at {name}[{m}]")
            with pytest.raises(FormatError) as exc:
                parse(json.dumps(doc))
            assert str(exc.value) == want
            planted[kind] += 1
        assert min(planted.values()) >= 60, planted


class TestParsedMatricesAreValues:
    """A parsed matrix is a value: it equals and hashes like the checked
    constructor's matrix of the same rows, holds tuples of tuples, and
    keeps none of the decoded lists."""

    def test_clean_documents(self):
        rng = random.Random(63)
        for parse, doc, widths in clean_documents(rng, 200):
            parsed = parse(json.dumps(doc))
            for name, field in widths.items():
                for m, rows in enumerate(doc[name]):
                    want = Matrix(rows, cols=None if rows else field[m])
                    got = getattr(parsed, name)[m], _matrix(rows, f"{name}[{m}]", field[m])
                    for matrix in got:
                        assert matrix == want and hash(matrix) == hash(want)
                        assert type(matrix.entries) is tuple and all(type(row) is tuple for row in matrix.entries)
                    # the decoded lists, edited after _matrix returned
                    for row in rows:
                        row[:] = [x + 1 for x in row] + [0]
                    rows.append([])
                    assert got == (want, want)
