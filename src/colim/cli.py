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
import sys
from pathlib import Path

from . import colimit, confluence, invariants
from .diagrams import validate
from .formats import (
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
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
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


def _cmd_verify(args) -> int:
    seqA = _load(parse_diagram, args.diagram_a)
    seqB = _load(parse_diagram, args.diagram_b)
    cert = _load(parse_certificate, args.certificate)
    report = confluence.verify_certificate(seqA, seqB, cert)
    print(f"status: {'accepted' if report.accepted else 'rejected'}")
    if report.accepted:
        print("scope: all levels (periodic certificate accepted)" if report.periodic_accepted
              else f"scope: levels 1..{cert.depth} only, not a proof for the infinite colimits")
    for f in report.failures:
        print(f"failure: {f}")
    for n in report.notes:
        print(f"note: {n}")
    return EXIT_OK if report.accepted else EXIT_NEGATIVE


def _cmd_search(args) -> int:
    seqA = _load(parse_diagram, args.diagram_a)
    seqB = _load(parse_diagram, args.diagram_b)
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
    seqA = _load(parse_diagram, args.diagram_a)
    seqB = _load(parse_diagram, args.diagram_b)
    cert = _load(parse_certificate, args.certificate)
    report = confluence.verify_certificate(seqA, seqB, cert)
    if not report.accepted:
        print("status: rejected")
        for f in report.failures:
            print(f"failure: {f}")
        return EXIT_NEGATIVE
    e = parse_element(args.element)
    direction = confluence.BACKWARD if args.backward else confluence.FORWARD
    image = _user_call(confluence.induced_map, seqA, seqB, cert, direction, e)
    print(f"image: {format_element(image)}")
    return EXIT_OK


def _print_trilean(answer) -> int:
    print(f"answer: {answer.kind}")
    if answer.kind == "yes":
        print(f"witness: {answer.stage}")
    elif answer.kind == "unknown":
        print(f"horizon: {answer.stage}")
    return EXIT_OK


def _cmd_equal(args) -> int:
    seq = _load(parse_diagram, args.diagram)
    horizon = _horizon(args, seq)
    e1, e2 = parse_element(args.e1), parse_element(args.e2)
    return _print_trilean(_user_call(colimit.equal_at, seq, e1, e2, horizon))


def _cmd_cone(args) -> int:
    seq = _load(parse_diagram, args.diagram)
    horizon = _horizon(args, seq)
    e = parse_element(args.element)
    return _print_trilean(_user_call(colimit.cone_member, seq, e, horizon))


def _cmd_divisible(args) -> int:
    seq = _load(parse_diagram, args.diagram)
    horizon = _horizon(args, seq)
    e = parse_element(args.element)
    return _print_trilean(_user_call(colimit.divisible, seq, e, args.m, horizon))


def _print_single_invariants(label: str, seq, s) -> None:
    """Print the rank and Steinitz lines of ``seq``; ``s`` is its Steinitz
    invariant or the ``ValueError`` that says why it has none, for a pair as
    ``EvidenceReport.steinitz`` gives it over the pair's one coprime base."""
    prefix = f"{label}." if label else ""
    try:
        r, stab = invariants.colimit_rank(seq)
    except ValueError as exc:
        print(f"{prefix}rank: unavailable ({exc})")
    else:
        print(f"{prefix}rank: {r}")
        print(f"{prefix}rank_stabilized: {'true' if stab else 'false'}")
    if isinstance(s, ValueError):
        s = f"unavailable ({s})"
    if all(n == 1 for n in seq.ranks):
        print(f"{prefix}steinitz: {s}")


def _print_unproven_notes(numbers) -> None:
    """Note each factor not proven prime of the Steinitz invariants among
    ``numbers`` (the others are the errors that say why a side has none)."""
    unproven = {n for s in numbers if not isinstance(s, ValueError) for n in s.unproven}
    for n in sorted(unproven):
        print(f"note: {n} is not proven prime; printed unsplit")


def _cmd_invariants(args) -> int:
    seq = _load(parse_diagram, args.diagram_a)
    if args.diagram_b is None:
        try:
            s = invariants.steinitz(seq)
        except ValueError as exc:
            s = exc
        _print_single_invariants("", seq, s)
        _print_unproven_notes([s])
        return EXIT_OK
    seqs = (seq, _load(parse_diagram, args.diagram_b))
    report = invariants.noniso_evidence(*seqs)
    numbers = report.steinitz()
    for label, seq, s in zip("AB", seqs, numbers):
        _print_single_invariants(label, seq, s)
    if report.empty:
        print("evidence: none")
    for entry in report.entries:
        print(f"evidence: {entry.strength} {entry.message}")
    for note in report.notes:
        print(f"note: {note}")
    _print_unproven_notes(numbers)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colim",
        description="Verify, search for, and exploit confluence certificates "
        "between colimits of free abelian / simplicial group sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file's invariants")
    p.add_argument("diagram")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("verify", help="verify a confluence certificate")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    p.add_argument("certificate")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("search", help="search for a confluence certificate")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    p.add_argument("--depth", type=int, default=3, help="certificate depth")
    p.add_argument("--bound", type=int, default=4, help="entry bound for candidate maps")
    p.add_argument("--horizon", type=int, default=12, help="last stage the search may use")
    p.add_argument("--nodes", type=int, default=200000, help="node budget")
    p.add_argument("--emit", metavar="FILE", help="write the certificate to FILE")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("map", help="apply the induced isomorphism to an element")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    p.add_argument("certificate")
    p.add_argument("--element", required=True, help='element as "stage:x1,x2,..."')
    p.add_argument("--backward", action="store_true")
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("equal", help="decide equality of two colimit elements")
    p.add_argument("diagram")
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--horizon", type=int)
    p.set_defaults(fn=_cmd_equal)

    p = sub.add_parser("cone", help="test positive-cone membership (simplicial)")
    p.add_argument("diagram")
    p.add_argument("--element", required=True)
    p.add_argument("--horizon", type=int)
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("divisible", help="test divisibility of an element")
    p.add_argument("diagram")
    p.add_argument("--element", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--horizon", type=int)
    p.set_defaults(fn=_cmd_divisible)

    p = sub.add_parser("invariants", help="print rank/Steinitz invariants and evidence")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b", nargs="?")
    p.set_defaults(fn=_cmd_invariants)

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
