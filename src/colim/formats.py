"""Textual formats for diagrams, certificates, and elements.

Documents are UTF-8 JSON objects with string keys and integer/array
values.  Entries must be decimal integer literals; floats are rejected
with the offending field path.  Parsing a diagram also runs validation,
so a document either yields a clean diagram or a structured error.
"""

from __future__ import annotations

import json
import re

from .colimit import ColimitElement
from .confluence import CertificatePeriod, ConfluenceCertificate
from .diagrams import SequenceDiagram, validate
from .matrices import Matrix


class FormatError(ValueError):
    """Malformed document; the message carries the offending field path."""


class _FloatLiteral(str):
    """Marker for rejected float literals, so errors can carry the path."""


# one decoder for the process: ``json.loads`` with a ``parse_float`` builds
# a fresh decoder and scanner on every call
_DECODER = json.JSONDecoder(parse_float=_FloatLiteral)


def _loads(text: str | bytes) -> object:
    """The JSON value of ``text``, read as ``json.loads`` reads it: bytes
    are decoded by their detected encoding, and text that starts with a
    byte order mark is refused.  Syntax errors, nesting too deep for the
    decoder and integers past the interpreter's digit limit for ``int``
    conversion are all format errors."""
    try:
        if isinstance(text, str):
            if text.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        else:
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"not a well-formed document: {exc}") from None


def _expect_int(value: object, path: str) -> int:
    if isinstance(value, _FloatLiteral):
        raise FormatError(f"non-integer entry at {path}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"expected an integer at {path}")
    return value


def _expect_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"expected an array at {path}")
    return value


def _expect_obj(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"expected an object at {path}")
    return value


def _ints(value: object, path: str) -> list:
    """``value`` as a list of integers; as in :func:`_matrix`, entry
    paths are built only for a faulty list."""
    items = _expect_list(value, path)
    if not all([type(x) is int for x in items]):
        for n, x in enumerate(items):
            _expect_int(x, f"{path}[{n}]")
    return items


def _matrix(value: object, path: str, empty_width: int = 0) -> Matrix:
    """Check the rows in bulk; only a faulty document walks them again,
    entry by entry, to name the first fault's field path.  A matrix
    without rows is written ``[]`` and takes the width ``empty_width``."""
    rows = _expect_list(value, path)
    width = len(rows[0]) if rows and type(rows[0]) is list else empty_width
    if not (
        all([type(row) is list and len(row) == width for row in rows])
        and all([type(x) is int for row in rows for x in row])
    ):
        for r, row in enumerate(rows):
            _expect_list(row, f"{path}[{r}]")
            if len(row) != width:
                raise FormatError(f"ragged matrix rows at {path}[{r}]")
            for c, x in enumerate(row):
                _expect_int(x, f"{path}[{r}][{c}]")
    return Matrix._make(tuple(map(tuple, rows)), width)


def parse_diagram(text: str, check: bool = True) -> SequenceDiagram:
    doc = _expect_obj(_loads(text), "document")
    mode = doc.get("mode")
    if mode not in ("plain", "simplicial"):
        raise FormatError('mode must be "plain" or "simplicial"')
    mono = doc.get("mono", False)
    if not isinstance(mono, bool):
        raise FormatError("mono must be a boolean")
    ranks = _ints(doc.get("ranks"), "ranks")
    if not ranks:
        raise FormatError("ranks must be nonempty")
    # transition n leaves stage n + 1, so a row-less one is ranks[n] wide
    transitions = [
        _matrix(m, f"transitions[{n}]", ranks[n] if n < len(ranks) else 0)
        for n, m in enumerate(_expect_list(doc.get("transitions", []), "transitions"))
    ]
    period = None
    if doc.get("period") is not None:
        obj = _expect_obj(doc["period"], "period")
        period = (
            _expect_int(obj.get("prefix_len"), "period.prefix_len"),
            _expect_int(obj.get("period_len"), "period.period_len"),
        )
    try:
        seq = SequenceDiagram(mode, ranks, transitions, mono, period)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if check:
        report = validate(seq)
        if not report.ok:
            raise FormatError("; ".join(report.violations))
    return seq


def emit_diagram(seq: SequenceDiagram) -> str:
    doc = {
        "mode": seq.mode,
        "mono": seq.mono_required,
        "ranks": list(seq.ranks),
        "transitions": [m.to_lists() for m in seq.transitions],
    }
    if seq.period is not None:
        doc["period"] = {"prefix_len": seq.period[0], "period_len": seq.period[1]}
    return json.dumps(doc, indent=2) + "\n"


def parse_certificate(text: str) -> ConfluenceCertificate:
    doc = _expect_obj(_loads(text), "document")
    i_idx = _ints(doc.get("i_indices"), "i_indices")
    k_idx = _ints(doc.get("k_indices"), "k_indices")
    f_mats = [_matrix(m, f"f_mats[{n}]") for n, m in enumerate(_expect_list(doc.get("f_mats"), "f_mats"))]
    g_mats = [_matrix(m, f"g_mats[{n}]") for n, m in enumerate(_expect_list(doc.get("g_mats"), "g_mats"))]
    periodic = None
    if doc.get("periodic") is not None:
        obj = _expect_obj(doc["periodic"], "periodic")
        periodic = CertificatePeriod(
            _expect_int(obj.get("index_step_a"), "periodic.index_step_a"),
            _expect_int(obj.get("index_step_b"), "periodic.index_step_b"),
            _expect_int(obj.get("period_len"), "periodic.period_len"),
        )
    return ConfluenceCertificate(i_idx, k_idx, f_mats, g_mats, periodic)


def emit_certificate(cert: ConfluenceCertificate) -> str:
    doc = {
        "i_indices": list(cert.i_indices),
        "k_indices": list(cert.k_indices),
        "f_mats": [m.to_lists() for m in cert.f_mats],
        "g_mats": [m.to_lists() for m in cert.g_mats],
    }
    if cert.periodic is not None:
        doc["periodic"] = {
            "index_step_a": cert.periodic.index_step_a,
            "index_step_b": cert.periodic.index_step_b,
            "period_len": cert.periodic.period_len,
        }
    return json.dumps(doc, indent=2) + "\n"


# a decimal literal as ``int`` reads it, without digit separators or
# non-ASCII digits
_DECIMAL = re.compile(r"\s*[+-]?[0-9]+\s*")


def _decimal(part: str) -> int:
    if not _DECIMAL.fullmatch(part):
        raise ValueError(part)
    return int(part)


def parse_element(text: str) -> ColimitElement:
    """Parse ``"i:x1,x2,..."``; an empty coordinate list is allowed for
    rank-0 stages (``"i:"``).  Each part is an ASCII decimal literal."""
    stage_part, sep, vec_part = text.partition(":")
    if not sep:
        raise FormatError(f"element {text!r} is not of the form 'stage:x1,x2,...'")
    try:
        stage = _decimal(stage_part)
        vec = [_decimal(x) for x in vec_part.split(",")] if vec_part.strip() else []
    except ValueError:
        raise FormatError(f"element {text!r} has non-integer parts") from None
    if stage < 1:
        raise FormatError("element stages are 1-based")
    return ColimitElement(stage, vec)


def format_element(e: ColimitElement) -> str:
    return f"{e.stage}:{','.join(str(x) for x in e.vec)}"
