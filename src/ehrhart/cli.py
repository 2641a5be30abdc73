"""Command-line front end.

Four batch subcommands: ``delta`` (delta-vector of a polytope file),
``check`` (inequality report and realizability verdict), ``realize``
(witness construction), ``enumerate`` (candidate table for a dimension).
Output is line-oriented ``key value`` text, or a JSON document with the same
information under ``--json``.  Exit codes are fixed per failure class:

    0 ok, 1 invalid-input, 2 not-realizable, 3 out-of-scope,
    4 budget-exceeded, 5 internal-inconsistency

A usage error (a missing or malformed argument) is invalid input.  A
standard-library module that only some commands need, such as ``json``, is
imported where it is used, so that a fresh ``check`` does not load it.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

from .classifier import Verdict, enumerate_candidates, is_realizable
from .engine import (
    DEFAULT_BUDGET,
    count_points,
    delta_from_box,
    delta_from_counts,
    ehrhart_coefficients,
    evaluate_ehrhart,
    evaluate_interior,
)
from .errors import (
    BudgetExceededError,
    DegenerateSimplexError,
    DimensionError,
    InconsistentCountsError,
    InternalInconsistencyError,
    NotRealizableError,
    OutOfScopeError,
    ParameterError,
)
from .realizer import realize
from .simplex import dump_simplex, load_simplex

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NOT_REALIZABLE = 2
EXIT_OUT_OF_SCOPE = 3
EXIT_BUDGET_EXCEEDED = 4
EXIT_INTERNAL_INCONSISTENCY = 5

_STATUS = {
    EXIT_OK: "ok",
    EXIT_INVALID_INPUT: "invalid-input",
    EXIT_NOT_REALIZABLE: "not-realizable",
    EXIT_OUT_OF_SCOPE: "out-of-scope",
    EXIT_BUDGET_EXCEEDED: "budget-exceeded",
    EXIT_INTERNAL_INCONSISTENCY: "internal-inconsistency",
}


class CommandFailure(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as invalid input instead of exiting with 2."""

    def error(self, message: str):
        raise CommandFailure(EXIT_INVALID_INPUT, f"{self.prog}: {message}")


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
    if as_json:
        import json

        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
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
        raise CommandFailure(EXIT_INVALID_INPUT, f"delta entries must be integers: {exc}")
    if not entries:
        raise CommandFailure(EXIT_INVALID_INPUT, "empty delta sequence")
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
    if decision.verdict is Verdict.YES:
        code = EXIT_OK
    elif decision.verdict is Verdict.NO:
        code = EXIT_NOT_REALIZABLE
    else:
        code = EXIT_OUT_OF_SCOPE
    return payload, code


def cmd_delta(args) -> tuple[dict, int]:
    import json

    try:
        simplex = load_simplex(args.polytope)
    except (OSError, json.JSONDecodeError, RecursionError, DimensionError, DegenerateSimplexError) as exc:
        raise CommandFailure(EXIT_INVALID_INPUT, f"cannot read polytope file: {exc}")
    # Past the file, every number is computed, even one that a budget
    # refusal's message shows.
    with _no_digit_limit():
        d = simplex.dim
        deltas = {}
        if args.method in ("box", "both"):
            deltas["box"] = delta_from_box(simplex, budget=args.budget)
        if args.method in ("counts", "both"):
            counts = [count_points(simplex, n, budget=args.budget) for n in range(1, d + 1)]
            deltas["counts"] = delta_from_counts(counts, d)
        if len(deltas) == 2 and deltas["box"].entries != deltas["counts"].entries:
            raise CommandFailure(
                EXIT_INTERNAL_INCONSISTENCY,
                f"box method gave {deltas['box'].entries}, counts gave {deltas['counts'].entries}",
            )
        delta = next(iter(deltas.values()))
        coeffs = ehrhart_coefficients(delta)
        payload = {
            "dimension": d,
            "method": args.method,
            "delta": list(delta.entries),
            "normalized_volume": delta.normalized_volume,
            "volume": str(coeffs[-1]),
            "ehrhart_coeffs": [str(c) for c in coeffs],
            "counts": [
                {"n": n, "i": evaluate_ehrhart(delta, n), "i_star": evaluate_interior(delta, n)}
                for n in range(1, d + 1)
            ],
        }
        return payload, EXIT_OK


def cmd_realize(args) -> tuple[dict, int]:
    entries = _parse_delta_args(args.delta)
    simplex, plan = realize(entries)
    payload = {"delta": list(entries), "dimension": simplex.dim, "plan": plan.describe(), "verified": "yes"}
    if args.out:
        try:
            dump_simplex(simplex, args.out, plan=plan.describe())
        except OSError as exc:
            raise CommandFailure(EXIT_INVALID_INPUT, f"cannot write witness file: {exc}")
        payload["out"] = args.out
    else:
        payload["vertices"] = [list(v) for v in simplex.vertices]
    return payload, EXIT_OK


def cmd_enumerate(args) -> tuple[dict, int]:
    if args.dim < 3:
        raise CommandFailure(EXIT_OUT_OF_SCOPE, f"dimension {args.dim} < 3 is outside the classified range")
    if args.max_sum > 3:
        raise CommandFailure(EXIT_OUT_OF_SCOPE, f"max sum {args.max_sum} > 3 is outside the classified range")
    rows = []
    yes = 0
    verified = 0
    failures = 0
    for cand, decision in enumerate_candidates(args.dim, args.max_sum):
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
            return payload, EXIT_INTERNAL_INCONSISTENCY
    return payload, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ehrhart",
        description="Exact delta-vector computation, checking, and realization for lattice simplices.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON document instead of key/value lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="delta-vector and Ehrhart data of a polytope file")
    p.add_argument("polytope", help="path to a JSON polytope file")
    p.add_argument("--method", choices=("box", "counts", "both"), default="box")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="work budget: most box points (normalized volume) for the box method, "
        "most bounding-box candidates per dilate for the counting method",
    )
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("check", help="inequality report and realizability verdict")
    p.add_argument("delta", nargs="+", help="delta entries starting with delta_0")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="construct a witness simplex for a YES candidate")
    p.add_argument("delta", nargs="+", help="delta entries starting with delta_0")
    p.add_argument("--out", help="write the witness polytope file here")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("enumerate", help="tabulate all candidates for a dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-sum", type=int, default=3)
    p.add_argument("--realize-all", action="store_true")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # Parsing fills this namespace as it goes, so ``--json`` given before the
    # subcommand is known even when a later argument is a usage error.
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
        payload, code = args.func(args)
    except CommandFailure as exc:
        payload, code = {"error": str(exc)}, exc.exit_code
    except BudgetExceededError as exc:
        payload, code = {"error": str(exc)}, EXIT_BUDGET_EXCEEDED
    except NotRealizableError as exc:
        payload, code = {"error": str(exc)}, EXIT_NOT_REALIZABLE
    except OutOfScopeError as exc:
        payload, code = {"error": str(exc)}, EXIT_OUT_OF_SCOPE
    except (InconsistentCountsError, InternalInconsistencyError) as exc:
        payload, code = {"error": str(exc)}, EXIT_INTERNAL_INCONSISTENCY
    except (DimensionError, DegenerateSimplexError, ParameterError, ValueError) as exc:
        payload, code = {"error": str(exc)}, EXIT_INVALID_INPUT
    out = {"status": _STATUS[code]}
    out.update(payload)
    out["exit_code"] = code
    with _no_digit_limit():
        _emit(out, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
