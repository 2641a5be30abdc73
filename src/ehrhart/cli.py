"""Command-line front end.

Four batch subcommands: ``delta`` (delta-vector of a polytope file),
``check`` (inequality report and realizability verdict), ``realize``
(witness construction), ``enumerate`` (candidate table for a dimension).
Output is line-oriented ``key value`` text, or under ``--json`` the same
information as one JSON document on one line.  Exit codes are fixed per
failure class:

    0 ok, 1 invalid-input, 2 not-realizable, 3 out-of-scope,
    4 budget-exceeded, 5 internal-inconsistency

The table lives in ``errors``: every package error carries its code as
``exit_code``, and ``main`` reports whatever error ends a command by that
code.  A usage error (a missing or malformed argument) is invalid input.  A
standard-library module that only some commands need, such as ``json``, is
imported where it is used, so that a fresh ``check`` does not load it.  For
the same reason a call builds only the arguments of the command it parses:
``build_parser`` makes the program's parser and all four command parsers,
and each command parser declares its arguments when it first parses
(``_Parser``).  Help and error texts are those of a parser that declared
everything up front.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .classifier import Verdict, enumerate_candidates, is_realizable
from .engine import DEFAULT_BUDGET, delta_vector, ehrhart_coefficients, ehrhart_counts
from .errors import (
    DegenerateSimplexError,
    DimensionError,
    EhrhartError,
    InternalInconsistencyError,
    InvalidInputError,
    NotRealizableError,
    OutOfScopeError,
)
from .realizer import realize
from .simplex import _write_json, dump_simplex, load_simplex

# The status line's word for each exit code.
_STATUS = ("ok", "invalid-input", "not-realizable", "out-of-scope", "budget-exceeded", "internal-inconsistency")
_VERDICT_CODE = {Verdict.YES: 0, Verdict.NO: NotRealizableError.exit_code, Verdict.OUT_OF_SCOPE: OutOfScopeError.exit_code}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as invalid input instead of exiting with 2, and
    declares its arguments on its first parse.

    ``declare``, if given, is a function that adds the parser's arguments.
    ``parse_known_args`` runs it once, before the first parse, so a command
    that is not parsed never gets its arguments built.  argparse parses a
    command's arguments, ``-h`` included, by calling ``parse_known_args`` of
    the command's parser, and ``add_parser`` passes ``declare`` on to it."""

    def __init__(self, *args, declare=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._declare = declare

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            declare, self._declare = self._declare, None
            declare(self)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        raise InvalidInputError(f"{self.prog}: {message}")


@contextlib.contextmanager
def _no_digit_limit():
    """Lift Python's limit on int-to-str conversion (from 3.10.7 and 3.11)
    while the CLI computes and formats numbers of its own.  Input parsing
    keeps the limit, so an oversized number in argv or a polytope file stays
    invalid input."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(payload: dict, as_json: bool) -> None:
    """Write the payload: ``key value`` lines (an empty list is its key
    alone), a witness's ``vertices`` a row at a time, or with ``as_json`` the
    line that ``_write_json`` writes."""
    write = sys.stdout.write
    if as_json:
        _write_json(payload, write)
        return
    for key, value in payload.items():
        if key == "vertices":
            write(key)
            for row in value:
                write(f" {list(row)}")
            write("\n")
        elif value == []:
            print(key)
        elif isinstance(value, list) and isinstance(value[0], dict):
            for row in value:
                print(f"{key} " + " ".join(str(v) for v in row.values()))
        elif isinstance(value, list):
            print(f"{key} " + " ".join(str(v) for v in value))
        else:
            print(f"{key} {value}")


def _parse_delta_args(tokens: list[str]) -> tuple[int, ...]:
    try:
        entries = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise InvalidInputError(f"delta entries must be integers: {exc}")
    if not entries:
        raise InvalidInputError("empty delta sequence")
    return entries


def cmd_check(args) -> tuple[dict, int]:
    entries = _parse_delta_args(args.delta)
    decision = is_realizable(entries)
    report = decision.report
    payload: dict = {"delta": list(entries), "dimension": len(entries) - 1, "sum": sum(entries)}
    for name, res in zip(report._fields, report):
        if res.ok:
            payload[name] = "pass"
        elif res.witness is None:
            payload[name] = "fail"
        else:
            payload[name] = f"fail at i={res.witness}"
    payload["verdict"] = decision.verdict.value
    payload["reason"] = decision.reason
    return payload, _VERDICT_CODE[decision.verdict]


def cmd_delta(args) -> tuple[dict, int]:
    # ValueError covers bad JSON, non-UTF-8 bytes and the digit limit.
    try:
        simplex = load_simplex(args.polytope)
    except (OSError, ValueError, RecursionError, DimensionError, DegenerateSimplexError) as exc:
        raise InvalidInputError(f"cannot read polytope file: {exc}")
    # Past the file, every number is computed, even one that a budget
    # refusal's message shows.
    with _no_digit_limit():
        d = simplex.dim
        delta = delta_vector(simplex, args.method, args.budget)
        coeffs = ehrhart_coefficients(delta)
        counts, interior = ehrhart_counts(delta)
        payload = {
            "dimension": d,
            "method": args.method,
            "delta": list(delta.entries),
            "normalized_volume": delta.normalized_volume,
            "volume": str(coeffs[-1]),
            "ehrhart_coeffs": [str(c) for c in coeffs],
            "counts": [{"n": n, "i": counts[n], "i_star": interior[n]} for n in range(1, d + 1)],
        }
        return payload, 0


def cmd_realize(args) -> tuple[dict, int]:
    entries = _parse_delta_args(args.delta)
    simplex, plan = realize(entries)
    payload = {"delta": list(entries), "dimension": simplex.dim, "plan": plan.describe(), "verified": "yes"}
    if args.out is not None:
        try:
            dump_simplex(simplex, args.out, plan=plan.describe())
        except OSError as exc:
            raise InvalidInputError(f"cannot write witness file: {exc}")
        payload["out"] = args.out
    else:
        payload["vertices"] = simplex.vertices
    return payload, 0


def cmd_enumerate(args) -> tuple[dict, int]:
    # A size refusal's message may show a count past the digit limit.
    with _no_digit_limit():
        candidates = enumerate_candidates(args.dim, args.max_sum)
    rows = []
    yes = 0
    verified = 0
    failures = 0
    for cand, decision in candidates:
        row = {"delta": " ".join(str(x) for x in cand), "verdict": decision.verdict.value}
        if decision.verdict is Verdict.YES:
            yes += 1
            if args.realize_all:
                try:
                    realize(cand)
                    verified += 1
                    row["realized"] = "ok"
                except InternalInconsistencyError:
                    failures += 1
                    row["realized"] = "FAILED"
        rows.append(row)
    payload: dict = {"dimension": args.dim, "max_sum": args.max_sum, "candidates": rows, "yes_count": yes}
    if args.realize_all:
        payload["realized_ok"] = verified
        payload["realized_failed"] = failures
        if failures:
            return payload, InternalInconsistencyError.exit_code
    return payload, 0


def _budget(text: str) -> int:
    """The type of ``--budget``: an int, and not a negative one.  A text that
    is no int gets the message argparse gives for ``type=int``, which would
    otherwise name this function."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be nonnegative, got {value}")
    return value


def _delta_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("polytope", help="path to a JSON polytope file")
    p.add_argument("--method", choices=("box", "counts", "both"), default="box")
    p.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET,
        help="work budget: most box points (normalized volume) for the box method, "
        "most bounding-box candidates per dilate for the counting method",
    )
    p.set_defaults(func=cmd_delta)


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("delta", nargs="+", help="delta entries starting with delta_0")
    p.set_defaults(func=cmd_check)


def _realize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("delta", nargs="+", help="delta entries starting with delta_0")
    p.add_argument("--out", help="write the witness polytope file here")
    p.set_defaults(func=cmd_realize)


def _enumerate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-sum", type=int, default=3)
    p.add_argument("--realize-all", action="store_true")
    p.set_defaults(func=cmd_enumerate)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the program and its four commands."""
    parser = _Parser(
        prog="ehrhart",
        description="Exact delta-vector computation, checking, and realization for lattice simplices.",
    )
    parser.add_argument("--json", action="store_true", help="emit a one-line JSON document instead of key/value lines")
    # Without prog, argparse formats the top-level usage only to derive it.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    sub.add_parser("delta", help="delta-vector and Ehrhart data of a polytope file", declare=_delta_arguments)
    sub.add_parser("check", help="inequality report and realizability verdict", declare=_check_arguments)
    sub.add_parser("realize", help="construct a witness simplex for a YES candidate", declare=_realize_arguments)
    sub.add_parser("enumerate", help="tabulate all candidates for a dimension", declare=_enumerate_arguments)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # Parsing fills this namespace as it goes, so ``--json`` given before the
    # subcommand is known even when a later argument is a usage error.
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
        payload, code = args.func(args)
    except EhrhartError as exc:
        payload, code = {"error": str(exc)}, exc.exit_code
    except ValueError as exc:
        payload, code = {"error": str(exc)}, InvalidInputError.exit_code
    out = {"status": _STATUS[code], **payload, "exit_code": code}
    try:
        with _no_digit_limit():
            _emit(out, args.json)
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone, e.g. ``| head``.  Point stdout at the null
        # device so that the interpreter's flush at exit fails no more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
