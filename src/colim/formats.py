"""Textual formats for diagrams, certificates, and elements.

Documents are UTF-8 JSON objects with string keys and integer/array
values.  Entries must be decimal integer literals: a float literal, or
the constant ``NaN`` or ``Infinity``, is a non-integer entry, rejected
with the offending field path.  Parsing a diagram also runs validation,
so a document either yields a clean diagram or a structured error.

Each matrix is checked and built in one loop over its rows.  A field
path is formatted only for a faulty document: its faulty matrix is then
walked again, entry by entry, to name the first fault.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys

from .colimit import ColimitElement
from .confluence import CertificatePeriod, ConfluenceCertificate
from .diagrams import SequenceDiagram, validate
from .matrices import Matrix


class FormatError(ValueError):
    """Malformed document; the message carries the offending field path."""


def _loads(text: str | bytes) -> object:
    """The JSON value of ``text``, read past one leading byte-order mark
    (``json.loads`` skips it in ``bytes`` only).  Syntax errors, nesting
    too deep for the decoder and integers past the interpreter's digit
    limit for ``int`` conversion are all format errors."""
    if isinstance(text, str):
        text = text.removeprefix("\ufeff")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"not a well-formed document: {exc}") from None


def _expect_int(value: object, path: str) -> int:
    if type(value) is not int:
        kind = "non-integer entry" if type(value) is float else "expected an integer"
        raise FormatError(f"{kind} at {path}")
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


def _matrix(value: object, path: str, empty_width: int = 0, index: int | None = None) -> Matrix:
    """Check each row's type and width and each entry's type in one loop
    that stops at the first fault, then build the matrix from the checked
    rows.  A faulty matrix goes to :func:`_refuse`, which names its first
    fault; its field path, ``path`` or ``path[index]`` given an index, is
    formatted only then.  A matrix without rows is written ``[]`` and
    takes the width ``empty_width``."""
    if type(value) is not list:
        _refuse(value, path, index, empty_width)
    width = len(value[0]) if value and type(value[0]) is list else empty_width
    for row in value:
        if type(row) is not list or len(row) != width:
            _refuse(value, path, index, empty_width)
        for x in row:
            if type(x) is not int:
                _refuse(value, path, index, empty_width)
    return Matrix._make(tuple(map(tuple, value)), width)


def _refuse(value: object, path: str, index: int | None, empty_width: int) -> None:
    """Raise the format error of a matrix that :func:`_matrix` found
    faulty, walking it entry by entry to name the first fault's path."""
    if index is not None:
        path = f"{path}[{index}]"
    rows = _expect_list(value, path)
    width = len(rows[0]) if rows and type(rows[0]) is list else empty_width
    for r, row in enumerate(rows):
        if len(_expect_list(row, f"{path}[{r}]")) != width:
            raise FormatError(f"ragged matrix rows at {path}[{r}]")
        _ints(row, f"{path}[{r}]")


# the keys of a diagram's ``period`` and a certificate's ``periodic``
# object, in the order they are read, emitted and passed on
_PERIOD = ("prefix_len", "period_len")
_PERIODIC = ("index_step_a", "index_step_b", "period_len")


def _fields(doc: dict, name: str, keys: tuple) -> tuple | None:
    """The integers under ``keys`` of the object ``doc[name]``, or
    ``None`` when it is absent or null."""
    if doc.get(name) is None:
        return None
    obj = _expect_obj(doc[name], name)
    return tuple([_expect_int(obj.get(key), f"{name}.{key}") for key in keys])


def parse_diagram(text: str, check: bool = True) -> SequenceDiagram:
    doc = _expect_obj(_loads(text), "document")
    ranks = _ints(doc.get("ranks"), "ranks")
    # transition n leaves stage n + 1, so a row-less one is ranks[n] wide
    transitions = [
        _matrix(m, "transitions", ranks[n] if n < len(ranks) else 0, n)
        for n, m in enumerate(_expect_list(doc.get("transitions", []), "transitions"))
    ]
    period = _fields(doc, "period", _PERIOD)
    try:
        seq = SequenceDiagram(doc.get("mode"), ranks, transitions, doc.get("mono", False), period)
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
        doc["period"] = dict(zip(_PERIOD, seq.period))
    return json.dumps(doc, indent=2) + "\n"


def parse_certificate(text: str) -> ConfluenceCertificate:
    doc = _expect_obj(_loads(text), "document")
    i_idx = _ints(doc.get("i_indices"), "i_indices")
    k_idx = _ints(doc.get("k_indices"), "k_indices")
    f_mats = [_matrix(m, "f_mats", index=n) for n, m in enumerate(_expect_list(doc.get("f_mats"), "f_mats"))]
    g_mats = [_matrix(m, "g_mats", index=n) for n, m in enumerate(_expect_list(doc.get("g_mats"), "g_mats"))]
    periodic = _fields(doc, "periodic", _PERIODIC)
    return ConfluenceCertificate(i_idx, k_idx, f_mats, g_mats, periodic and CertificatePeriod(*periodic))


def emit_certificate(cert: ConfluenceCertificate) -> str:
    doc = {
        "i_indices": list(cert.i_indices),
        "k_indices": list(cert.k_indices),
        "f_mats": [m.to_lists() for m in cert.f_mats],
        "g_mats": [m.to_lists() for m in cert.g_mats],
    }
    if cert.periodic is not None:
        doc["periodic"] = {key: getattr(cert.periodic, key) for key in _PERIODIC}
    return json.dumps(doc, indent=2) + "\n"


# a decimal literal as ``int`` reads it, without digit separators or
# non-ASCII digits; group 1 holds the digits ``int`` counts against its limit
_DECIMAL = re.compile(r"\s*[+-]?([0-9]+)\s*")


def parse_element(text: str) -> ColimitElement:
    """Parse ``"i:x1,x2,..."``; an empty coordinate list is allowed for
    rank-0 stages (``"i:"``).  Each part is an ASCII decimal literal
    within the interpreter's digit limit for ``int`` conversion.  Errors
    quote ``text`` shortened to 30 characters."""
    stage_part, sep, vec_part = text.partition(":")
    if not sep:
        raise FormatError(f"element {reprlib.repr(text)} is not of the form 'stage:x1,x2,...'")
    parts = [stage_part, *vec_part.split(",")] if vec_part.strip() else [stage_part]
    literals = [_DECIMAL.fullmatch(part) for part in parts]
    if not all(literals):
        raise FormatError(f"element {reprlib.repr(text)} has non-integer parts")
    limit = sys.get_int_max_str_digits()
    if limit and max(len(m[1]) for m in literals) > limit:
        raise FormatError(f"element {reprlib.repr(text)} has a part past the {limit}-digit limit")
    stage, *vec = map(int, parts)
    if stage < 1:
        raise FormatError("element stages are 1-based")
    return ColimitElement(stage, vec)


def format_element(e: ColimitElement) -> str:
    return f"{e.stage}:{','.join(str(x) for x in e.vec)}"
