"""Witness constructions for every realizable candidate with sum <= 3.

Four explicit vertex families cover the base cases; pyramid lifting pads a
trailing zero per application, so ``realize`` dispatches to the right family
and lifts up to the requested dimension.  Every construction here is meant to
be re-verified by the engine; nothing relies on the formulas being right.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .classifier import Decision, Verdict, is_realizable
from .engine import delta_from_box
from .errors import InternalInconsistencyError, NotRealizableError, OutOfScopeError, ParameterError
from .simplex import LatticeSimplex, unit_simplex


@dataclass(frozen=True)
class ConstructionPlan:
    family: str
    parameters: dict = field(default_factory=dict)
    lifts: int = 0

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        base = f"{self.family}({params})" if params else self.family
        return f"{base} lifted {self.lifts}x" if self.lifts else base


def _unit(i: int, d: int) -> list[int]:
    e = [0] * d
    e[i - 1] = 1
    return e


def construct_section2(d: int) -> LatticeSimplex:
    """Volume-2 simplex in odd dimension d: delta has its single extra 1 at
    position (d+1)/2."""
    if d < 3 or d % 2 == 0:
        raise ParameterError(f"needs odd d >= 3, got {d}")
    verts = [[0] * d]
    for i in range(1, d):
        v = [0] * d
        v[i - 1] = 1
        v[i] = 1
        verts.append(v)
    last = [0] * d
    last[0] = 1
    last[d - 1] = 1
    verts.append(last)
    return LatticeSimplex(verts)


def construct_section3_two(d: int) -> LatticeSimplex:
    """Volume-3 variant of the section-2 family: delta_{(d+1)/2} = 2."""
    if d < 3 or d % 2 == 0:
        raise ParameterError(f"needs odd d >= 3, got {d}")
    verts = [[0] * d]
    for i in range(1, d):
        v = [0] * d
        v[i - 1] = 1
        v[i] = 1
        verts.append(v)
    last = [0] * d
    last[0] = 2
    last[d - 1] = 1
    verts.append(last)
    return LatticeSimplex(verts)


def construct_segment(volume: int) -> LatticeSimplex:
    """conv{0, volume} on the line; delta = (1, volume - 1)."""
    if volume not in (2, 3):
        raise ParameterError(f"segment volume must be 2 or 3, got {volume}")
    return LatticeSimplex([[0], [volume]])


def construct_triangle_111() -> LatticeSimplex:
    """Triangle with delta = (1, 1, 1): one interior point, volume 3."""
    return LatticeSimplex([[0, 0], [2, 1], [1, 2]])


def construct_lemma_first(k: int) -> LatticeSimplex:
    """Volume-3 simplex in dimension 3k+2 with delta ones at k+1 and 2k+2."""
    if k < 1:
        raise ParameterError("needs k >= 1; k = 0 is the triangle construction")
    d = 3 * k + 2
    verts = [[0] * d]
    for i in range(1, d - 1):
        v = [0] * d
        v[i - 1] = 1
        v[i] = 1
        v[i + 1] = 1
        verts.append(v)
    v = [0] * d
    v[0] = 1
    v[d - 2] = 1
    v[d - 1] = 1
    verts.append(v)
    v = [0] * d
    v[0] = 1
    v[1] = 1
    v[d - 1] = 1
    verts.append(v)
    return LatticeSimplex(verts)


def construct_lemma_second(k: int, ell: int) -> LatticeSimplex:
    """Volume-3 simplex in dimension 3k+2+2*ell with delta ones at k+ell+1
    and 2k+ell+2."""
    if ell < 1:
        raise ParameterError("needs ell >= 1; ell = 0 is the first-family construction")
    if k < 0:
        raise ParameterError("needs k >= 0")
    if k == 0:
        d = 2 * ell + 2
        verts = [[0] * d]
        v = [0] * d
        v[0] = 2
        v[1] = 1
        verts.append(v)
        v = [0] * d
        v[1] = 2
        v[2] = 1
        verts.append(v)
        for i in range(3, 2 * ell + 2):
            v = [0] * d
            v[i - 1] = 1
            v[i] = 1
            verts.append(v)
        v = [0] * d
        v[0] = 1
        v[d - 1] = 1
        verts.append(v)
        return LatticeSimplex(verts)

    d = 3 * k + 2 + 2 * ell

    def vec(ones: list[int], tail: list[int]) -> list[int]:
        # tail covers positions 3k+3 .. d (length 2*ell)
        v = [0] * d
        for p in ones:
            v[p - 1] = 1
        for off, x in enumerate(tail):
            v[3 * k + 2 + off] = x
        return v

    ones_tail = [1] * (2 * ell)
    alt_tail = [1 if t % 2 == 0 else 0 for t in range(2 * ell)]
    verts = [[0] * d]
    verts.append(vec([1, 2, 3], ones_tail))
    verts.append(vec([2, 3, 4], ones_tail))
    for i in range(3, 3 * k + 1):
        verts.append(vec([i, i + 1, i + 2], alt_tail))
    verts.append(vec([1, 3 * k + 1, 3 * k + 2], alt_tail))
    verts.append(vec([1, 2, 3 * k + 2], alt_tail))
    for j in range(1, ell + 1):
        # i = 3k + 2j + 1: single 1 then the tail 0,(1,0) repeated
        i = 3 * k + 2 * j + 1
        v = [0] * d
        v[i - 1] = 1
        pos = i + 1
        v[pos - 1 : d] = [0] + [1, 0] * (ell - j)
        verts.append(v)
        # i = 3k + 2j + 2: two adjacent 1s then (1,0) repeated
        i = 3 * k + 2 * j + 2
        v = [0] * d
        v[i - 1] = 1
        if i < d:
            v[i : d] = [1, 0] * (ell - j)
        verts.append(v)
    # Interleave back into vertex order v_0, v_1, ..., v_d
    ordered = verts[: 3 * k + 3]
    extra = verts[3 * k + 3 :]
    return LatticeSimplex(ordered + extra)


def _lift(s: LatticeSimplex, times: int) -> LatticeSimplex:
    """``times`` iterated pyramids in one construction: pad every vertex with
    ``times`` zeros and append the apexes e_(N+1), ..., e_(N+times)."""
    if times == 0:
        return s
    n = s.ambient_dim
    verts = [v + (0,) * times for v in s.vertices]
    for t in range(times):
        apex = [0] * (n + times)
        apex[n + t] = 1
        verts.append(apex)
    return LatticeSimplex(verts)


def realize(entries, verify: bool = True) -> tuple[LatticeSimplex, ConstructionPlan]:
    """Build a full-dimensional witness simplex for a YES candidate.

    With verify=True (default) the delta-vector is recomputed from the witness
    and must match the candidate exactly.
    """
    entries = tuple(int(e) for e in entries)
    decision = is_realizable(entries)
    if decision.verdict is Verdict.OUT_OF_SCOPE:
        raise OutOfScopeError(decision.reason)
    if decision.verdict is Verdict.NO:
        raise NotRealizableError(decision.reason)

    d = len(entries) - 1
    total = sum(entries)
    support = [i for i in range(1, d + 1) if entries[i] != 0]

    if total == 1:
        base = unit_simplex(d)
        plan = ConstructionPlan("unit", {"dim": d}, 0)
    elif total == 2:
        (i,) = support
        if i == 1:
            base = construct_segment(2)
            plan = ConstructionPlan("segment", {"volume": 2}, d - 1)
        else:
            base = construct_section2(2 * i - 1)
            plan = ConstructionPlan("section2", {"d": 2 * i - 1}, d - (2 * i - 1))
    elif len(support) == 1:
        # total == 3 with a single entry equal to 2
        (i,) = support
        if i == 1:
            base = construct_segment(3)
            plan = ConstructionPlan("segment", {"volume": 3}, d - 1)
        else:
            base = construct_section3_two(2 * i - 1)
            plan = ConstructionPlan("section3_two", {"d": 2 * i - 1}, d - (2 * i - 1))
    else:
        m, n = support
        if m == 1:
            # Stanley forces delta_2 = 1 here, so (1,1,1,0,...) is the only shape.
            base = construct_triangle_111()
            plan = ConstructionPlan("triangle_111", {}, d - 2)
        else:
            p, q = m - 1, n - m - 1
            if p == q:
                base = construct_lemma_first(q)
                plan = ConstructionPlan("lemma_first", {"k": q}, d - (3 * q + 2))
            else:
                ell = p - q
                base = construct_lemma_second(q, ell)
                plan = ConstructionPlan("lemma_second", {"k": q, "ell": ell}, d - (3 * q + 2 + 2 * ell))

    if plan.lifts < 0:
        raise InternalInconsistencyError(f"base dimension exceeds target for {entries}")
    simplex = _lift(base, plan.lifts)
    if verify:
        recomputed = delta_from_box(simplex)
        if tuple(recomputed.entries) != entries:
            raise InternalInconsistencyError(
                f"witness verification failed: got {recomputed.entries}, wanted {entries}"
            )
    return simplex, plan
