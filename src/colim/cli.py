"""Command-line driver.

Reports are human-readable ``key: value`` lines so scripts and tests can
assert on exact output.  Exit codes are a total function of the report:

* 0 - success (clean / accepted / found / answered)
* 1 - negative domain outcome (validation violations, rejected certificate)
* 2 - operational error (unknown flag, missing file, parse failure,
  standard output closed by its reader)
* 3 - search budget exhausted
"""

from __future__ import annotations

import argparse
import functools
import os
import reprlib
import sys

from . import colimit, confluence, invariants
from .diagrams import validate
from .formats import (
    _DECIMAL,
    FormatError,
    emit_certificate,
    format_element,
    parse_certificate,
    parse_diagram,
    parse_element,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_EXHAUSTED = 3


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        # decoded here, not by the parser, so that a decoding error's
        # offset counts the file's bytes, also those of a byte-order mark
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 ({exc.reason} at offset {exc.start})") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None


def _load(parse, path: str, **kwargs):
    """``parse`` of the text of the file at ``path``, reporting a
    ``FormatError`` as a user error that names the file."""
    try:
        return parse(_read(path), **kwargs)
    except FormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def _user_call(fn, *args):
    """``fn(*args)``, reporting its ``ValueError`` as a user error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _horizon(args, seq) -> int:
    """``--horizon`` if given, else a default that reaches past the
    stored stages of a periodic diagram."""
    if args.horizon is not None:
        return args.horizon
    if seq.period is not None:
        return max(12, seq.length)
    return seq.length


def _cmd_validate(args) -> int:
    seq = _load(parse_diagram, args.diagram, check=False)
    report = validate(seq)
    print(f"file: {args.diagram}")
    print(f"status: {'clean' if report.ok else 'invalid'}")
    for v in report.violations:
        print(f"violation: {v}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _load_pair(args) -> tuple:
    """The diagrams at ``args.diagram_a`` and ``args.diagram_b``."""
    return _load(parse_diagram, args.diagram_a), _load(parse_diagram, args.diagram_b)


def _verified(args) -> tuple:
    """The diagrams A and B, the certificate, and the
    :func:`~colim.confluence.verify_certificate` report on them."""
    seqA, seqB = _load_pair(args)
    cert = _load(parse_certificate, args.certificate)
    return seqA, seqB, cert, confluence.verify_certificate(seqA, seqB, cert)


def _rejected(report) -> int:
    """Print a rejected certificate's report.  A rejected report has no
    notes: ``verify_certificate`` adds them only after every equation
    holds."""
    print("status: rejected")
    for f in report.failures:
        print(f"failure: {f}")
    return EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    _, _, cert, report = _verified(args)
    if not report.accepted:
        return _rejected(report)
    print("status: accepted")
    print("scope: all levels (periodic certificate accepted)" if report.periodic_accepted
          else f"scope: levels 1..{cert.depth} only, not a proof for the infinite colimits")
    for n in report.notes:
        print(f"note: {n}")
    return EXIT_OK


def _cmd_search(args) -> int:
    seqA, seqB = _load_pair(args)
    budget = _user_call(confluence.SearchBudget, args.depth, args.bound, args.horizon, args.nodes)
    cert = _user_call(confluence.search_confluence, seqA, seqB, budget)
    if cert is None:
        print("status: exhausted")
        print("note: a failed search is not evidence of non-isomorphism; "
              "run `colim invariants` for negative evidence")
        return EXIT_EXHAUSTED
    if args.emit:
        # written before any report line, so a failed write reports nothing found
        _write(args.emit, emit_certificate(cert))
    print("status: found")
    print(f"depth: {cert.depth}")
    print(f"i_indices: {','.join(str(i) for i in cert.i_indices)}")
    print(f"k_indices: {','.join(str(k) for k in cert.k_indices)}")
    if args.emit:
        print(f"emitted: {args.emit}")
    else:
        sys.stdout.write(emit_certificate(cert))
    return EXIT_OK


def _cmd_map(args) -> int:
    seqA, seqB, cert, report = _verified(args)
    if not report.accepted:
        return _rejected(report)
    e = parse_element(args.element)
    direction = confluence.BACKWARD if args.backward else confluence.FORWARD
    image = _user_call(confluence.induced_map, seqA, seqB, cert, direction, e)
    print(f"image: {format_element(image)}")
    return EXIT_OK


def _cmd_query(args) -> int:
    """Ask the colimit query named by ``args.query``, called as
    ``query(diagram, args, horizon)``, and print its ``Trilean``.  The
    query parses its elements, so a malformed one is a user error too."""
    seq = _load(parse_diagram, args.diagram)
    answer = _user_call(args.query, seq, args, _horizon(args, seq))
    print(f"answer: {answer.kind}")
    if answer.kind == "yes":
        print(f"witness: {answer.stage}")
    elif answer.kind == "unknown":
        print(f"horizon: {answer.stage}")
    return EXIT_OK


def _cmd_invariants(args) -> int:
    seqs = [_load(parse_diagram, args.diagram_a)]
    if args.diagram_b is None:
        labels = [""]
        try:
            numbers = [invariants.steinitz(seqs[0])]
        except ValueError as exc:
            numbers = [exc]
    else:
        labels = ["A.", "B."]
        seqs.append(_load(parse_diagram, args.diagram_b))
        report = invariants.noniso_evidence(*seqs)
        # one coprime base for both sides: no element is factored twice
        numbers = report.steinitz()
    for label, seq, s in zip(labels, seqs, numbers):
        try:
            r, stab = invariants.colimit_rank(seq)
        except ValueError as exc:
            print(f"{label}rank: unavailable ({exc})")
        else:
            print(f"{label}rank: {r}")
            print(f"{label}rank_stabilized: {'true' if stab else 'false'}")
        if all(n == 1 for n in seq.ranks):
            print(f"{label}steinitz: {f'unavailable ({s})' if isinstance(s, ValueError) else s}")
    if args.diagram_b is not None:
        if report.empty:
            print("evidence: none")
        for entry in report.entries:
            print(f"evidence: {entry.strength} {entry.message}")
        for note in report.notes:
            print(f"note: {note}")
    for n in sorted({n for s in numbers if not isinstance(s, ValueError) for n in s.unproven}):
        print(f"note: {n} is not proven prime; printed unsplit")
    return EXIT_OK


def _integer(text: str) -> int:
    """The value of an integer option: an ASCII decimal literal, as in an
    element (``int`` alone would also take underscores and other
    scripts' digits).  argparse quotes a value that ``type=int`` refuses
    in full, so a refused one is quoted here through ``reprlib``, with
    the digit limit when a decimal literal is past it."""
    literal = _DECIMAL.fullmatch(text)
    try:
        if literal:
            return int(text)
    except ValueError:  # int refuses a decimal literal only when it is too long
        pass
    past = f" (past the {sys.get_int_max_str_digits()}-digit limit)" if literal else ""
    raise argparse.ArgumentTypeError(f"invalid int value: {reprlib.repr(text)}{past}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colim",
        description="Verify, search for, and exploit confluence certificates "
        "between colimits of free abelian / simplicial group sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, fn, *files, **defaults):
        """The subparser ``name``, taking ``files`` in order and running
        ``fn``; the caller adds its options."""
        p = sub.add_parser(name, help=about)
        for f in files:
            p.add_argument(f)
        p.set_defaults(fn=fn, **defaults)
        return p

    command("validate", "check a diagram file's invariants", _cmd_validate, "diagram")

    command("verify", "verify a confluence certificate", _cmd_verify, "diagram_a", "diagram_b", "certificate")

    p = command("search", "search for a confluence certificate", _cmd_search, "diagram_a", "diagram_b")
    p.add_argument("--depth", type=_integer, default=3, help="certificate depth")
    p.add_argument("--bound", type=_integer, default=4, help="entry bound for candidate maps")
    p.add_argument("--horizon", type=_integer, default=12, help="last stage the search may use")
    p.add_argument("--nodes", type=_integer, default=200000, help="node budget")
    p.add_argument("--emit", metavar="FILE", help="write the certificate to FILE")

    p = command("map", "apply the induced isomorphism to an element", _cmd_map,
                "diagram_a", "diagram_b", "certificate")
    p.add_argument("--element", required=True, help='element as "stage:x1,x2,..."')
    p.add_argument("--backward", action="store_true")

    p = command("equal", "decide equality of two colimit elements", _cmd_query, "diagram",
                query=lambda seq, a, horizon: colimit.equal_at(seq, parse_element(a.e1), parse_element(a.e2), horizon))
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--horizon", type=_integer)

    p = command("cone", "test positive-cone membership (simplicial)", _cmd_query, "diagram",
                query=lambda seq, a, horizon: colimit.cone_member(seq, parse_element(a.element), horizon))
    p.add_argument("--element", required=True)
    p.add_argument("--horizon", type=_integer)

    p = command("divisible", "test divisibility of an element", _cmd_query, "diagram",
                query=lambda seq, a, horizon: colimit.divisible(seq, parse_element(a.element), a.m, horizon))
    p.add_argument("--element", required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--horizon", type=_integer)

    p = command("invariants", "print rank/Steinitz invariants and evidence", _cmd_invariants, "diagram_a")
    p.add_argument("diagram_b", nargs="?")

    return parser


# built on the first ``main`` call, not at import; parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows up here, not at exit
        return code
    except (CliError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader went away: what is still buffered goes to devnull, so
        # the interpreter's flush at exit has nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
