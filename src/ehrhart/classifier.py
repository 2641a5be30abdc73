"""Inequality checks on candidate delta-vectors and the sum <= 3 decision.

Candidates are plain integer sequences; nothing is assumed beyond shape.  The
decision procedure is complete exactly for coordinate sum at most 3 in
dimension at least 3, so anything outside that range gets a distinct
out-of-scope verdict instead of a yes/no.
"""
from __future__ import annotations

import itertools
import math
from enum import Enum
from operator import index
from typing import Iterator, NamedTuple, Sequence

from .engine import DEFAULT_BUDGET
from .errors import BudgetExceededError, OutOfScopeError

# The classified range: d >= MIN_DIM and coordinate sum <= MAX_SUM.
MIN_DIM = 3
MAX_SUM = 3


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    OUT_OF_SCOPE = "out-of-scope"


class CheckResult(NamedTuple):
    ok: bool
    witness: int | None = None
    reason: str = ""


class InequalityReport(NamedTuple):
    basic: CheckResult
    stanley: CheckResult
    hibi: CheckResult
    lower_bound: CheckResult

    @property
    def all_ok(self) -> bool:
        return self.basic.ok and self.stanley.ok and self.hibi.ok


class Decision(NamedTuple):
    verdict: Verdict
    reason: str
    report: InequalityReport | None = None


def check_basic(entries: Sequence[int]) -> CheckResult:
    """delta_0 = 1, nonnegativity, delta_1 >= delta_d, and the interior lower
    bound delta_1 <= delta_i (only binding when delta_d != 0)."""
    d = len(entries) - 1
    if entries[0] != 1:
        return CheckResult(False, 0, f"delta_0 = {entries[0]}, must be 1")
    for i, e in enumerate(entries):
        if e < 0:
            return CheckResult(False, i, f"delta_{i} = {e} is negative")
    d1 = entries[1] if d >= 1 else 0
    dd = entries[d] if d >= 1 else 0
    if d >= 1 and d1 < dd:
        return CheckResult(False, d, f"delta_1 = {d1} < delta_d = {dd}")
    lower = check_lower_bound(entries)
    return lower if not lower.ok else CheckResult(True)


def check_stanley(entries: Sequence[int]) -> CheckResult:
    """delta_0 + ... + delta_i <= delta_s + ... + delta_{s-i} for i <= s//2."""
    if all(e == 0 for e in entries):
        raise ValueError("all-zero sequence has no top nonzero index")
    s = max(i for i, e in enumerate(entries) if e != 0)
    lhs = rhs = 0
    for i in range(s // 2 + 1):
        lhs += entries[i]
        rhs += entries[s - i]
        if lhs > rhs:
            return CheckResult(False, i, f"sum delta_0..delta_{i} = {lhs} > sum delta_{s - i}..delta_{s} = {rhs}")
    return CheckResult(True)


def check_hibi(entries: Sequence[int]) -> CheckResult:
    """delta_{d-1} + ... + delta_{d-i} <= delta_2 + ... + delta_{i+1} for
    1 <= i <= (d-1)//2; vacuous for d <= 2."""
    d = len(entries) - 1
    lhs = rhs = 0
    for i in range(1, (d - 1) // 2 + 1):
        lhs += entries[d - i]
        rhs += entries[i + 1]
        if lhs > rhs:
            return CheckResult(False, i, f"sum delta_{d - i}..delta_{d - 1} = {lhs} > sum delta_2..delta_{i + 1} = {rhs}")
    return CheckResult(True)


def check_lower_bound(entries: Sequence[int]) -> CheckResult:
    """delta_1 <= delta_i for 1 <= i < d whenever delta_d != 0; reported on
    its own and as the last step of ``check_basic``."""
    d = len(entries) - 1
    if d < 1 or entries[d] == 0:
        return CheckResult(True, reason="vacuous (delta_d = 0)")
    for i in range(1, d):
        if entries[1] > entries[i]:
            return CheckResult(False, i, f"delta_1 = {entries[1]} > delta_{i} = {entries[i]} with delta_d != 0")
    return CheckResult(True)


def inequality_report(entries: Sequence[int]) -> InequalityReport:
    if all(e == 0 for e in entries):
        stanley = CheckResult(False, None, "all-zero sequence: top nonzero index undefined")
    else:
        stanley = check_stanley(entries)
    return InequalityReport(
        basic=check_basic(entries),
        stanley=stanley,
        hibi=check_hibi(entries),
        lower_bound=check_lower_bound(entries),
    )


def is_realizable(entries: Sequence[int]) -> Decision:
    """Decide whether the candidate is the delta-vector of some integral
    polytope of dimension d = len - 1; complete only for sum <= 3, d >= 3.

    Raises TypeError for an entry that is not an integer (``operator.index``:
    0.5 or '3' is refused, never truncated or parsed)."""
    entries = tuple(map(index, entries))
    d = len(entries) - 1
    total = sum(entries)
    report = inequality_report(entries) if entries else None
    if d < MIN_DIM:
        return Decision(Verdict.OUT_OF_SCOPE, f"dimension {d} < {MIN_DIM} is outside the classified range", report)
    if any(e < 0 for e in entries):
        return Decision(Verdict.NO, report.basic.reason, report)
    if total > MAX_SUM:
        return Decision(
            Verdict.OUT_OF_SCOPE,
            f"coordinate sum {total} > {MAX_SUM}: the inequalities are necessary but not sufficient there",
            report,
        )
    if report.all_ok:
        return Decision(Verdict.YES, "passes all inequality families", report)
    # Prefer the Stanley/Hibi witness in the reason (shape problems like a bad
    # delta_0 still surface as basic failures first).
    if entries[0] != 1:
        return Decision(Verdict.NO, f"basic check fails: {report.basic.reason}", report)
    name, res = next(
        (name, res)
        for name, res in (("stanley", report.stanley), ("hibi", report.hibi), ("basic", report.basic))
        if not res.ok
    )
    return Decision(Verdict.NO, f"{name} check fails: {res.reason}", report)


def enumerate_candidates(d: int, max_sum: int = MAX_SUM) -> Iterator[tuple[tuple[int, ...], Decision]]:
    """All length-(d+1) candidates with delta_0 = 1 and sum <= max_sum, in
    lexicographic order, each paired with its decision.  Before any work,
    raises OutOfScopeError outside the classified range and
    BudgetExceededError past ``DEFAULT_BUDGET`` candidate entries."""
    if d < MIN_DIM:
        raise OutOfScopeError(f"dimension {d} < {MIN_DIM} is outside the classified range")
    if max_sum > MAX_SUM:
        raise OutOfScopeError(f"max sum {max_sum} > {MAX_SUM} is outside the classified range")
    # The extras of a candidate with sum 1 + k form a k-multiset of {1..d}.
    needed = sum(math.comb(d + k - 1, k) for k in range(max_sum)) * (d + 1)
    if needed > DEFAULT_BUDGET:
        raise BudgetExceededError(needed, DEFAULT_BUDGET)
    cands = []
    for extra in range(max_sum):
        for positions in itertools.combinations_with_replacement(range(1, d + 1), extra):
            cand = [1] + [0] * d
            for p in positions:
                cand[p] += 1
            cands.append(tuple(cand))
    return ((cand, is_realizable(cand)) for cand in sorted(cands))
