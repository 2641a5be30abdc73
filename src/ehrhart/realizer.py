"""Witnesses for every realizable candidate with sum <= 3, and the paper's
explicit vertex families.

``realize`` builds one Hermite-normal-form simplex conv(0, e_1, ..., e_(d-1),
(b, V)) straight from the candidate's cyclic box group.  The families
(volume-2 chain, its volume-3 variant, segments, the one-interior-point
triangle and the two lemma families) are the paper's constructions, kept as
tested artifacts.  ``realize`` re-verifies every witness it builds by
recomputing its delta-vector; nothing relies on the formulas being right.
"""
from __future__ import annotations

from operator import index
from typing import Iterator, NamedTuple

from .classifier import Verdict, is_realizable
from .engine import DEFAULT_BUDGET, delta_from_box
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    NotRealizableError,
    OutOfScopeError,
    ParameterError,
)
from .simplex import LatticeSimplex


class ConstructionPlan(NamedTuple):
    """How a witness was built: a family name and its parameters.  ``lifts``
    counts pyramid steps; the cyclic witness that ``realize`` builds has none.
    ``parameters`` has no default, so no two plans share one dict."""

    family: str
    parameters: dict
    lifts: int = 0

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        return f"{self.family}({params})" if params else self.family


def _unit(i: int, d: int) -> list[int]:
    e = [0] * d
    e[i - 1] = 1
    return e


def _chain(d: int, corner: int) -> LatticeSimplex:
    """conv(0, e_1 + e_2, ..., e_(d-1) + e_d, corner * e_1 + e_d) for odd d."""
    if d < 3 or d % 2 == 0:
        raise ParameterError(f"needs odd d >= 3, got {d}")
    verts = [[0] * d]
    for i in range(1, d):
        v = _unit(i, d)
        v[i] = 1
        verts.append(v)
    last = _unit(d, d)
    last[0] = corner
    verts.append(last)
    return LatticeSimplex(verts)


def construct_section2(d: int) -> LatticeSimplex:
    """Volume-2 simplex in odd dimension d: delta has its single extra 1 at
    position (d+1)/2."""
    return _chain(d, 1)


def construct_section3_two(d: int) -> LatticeSimplex:
    """Volume-3 variant of the section-2 family: delta_{(d+1)/2} = 2."""
    return _chain(d, 2)


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
    return LatticeSimplex(verts)


def hnf_vertices(b: list[int], volume: int) -> Iterator[list[int]]:
    """The vertices 0, e_1, ..., e_(d-1), (b, volume) of Z^d, d = len(b) + 1,
    one at a time, so that only the simplex's copy of them is ever whole."""
    d = len(b) + 1
    yield [0] * d
    for k in range(1, d):
        yield _unit(k, d)
    yield b + [volume]


def realize(entries) -> tuple[LatticeSimplex, ConstructionPlan]:
    """Build a full-dimensional witness simplex for a YES candidate.

    With sum <= 3 the normalized volume V = sum(entries) is 1, 2 or 3, so the
    box group is trivial or cyclic of prime order, generated by a / V for some
    a in {0..V-1}^(d+1) with sum(a) = 0 mod V.  The degrees of its nonzero
    elements are the positions of the extra entries, which fixes how many
    entries of a equal 1 (n1) and 2 (n2).  The witness is the Hermite normal
    form simplex conv(0, e_1, ..., e_(d-1), (b, V)) whose box group is
    generated by a / V: b_i = -a_i * a_d^-1 mod V.

    The delta-vector is always recomputed from the witness by the box route
    and must match the candidate exactly; a mismatch raises
    InternalInconsistencyError.  A NO candidate raises NotRealizableError,
    one outside the classified range OutOfScopeError, a YES candidate whose
    witness has more than ``DEFAULT_BUDGET`` vertex entries, (d + 1)^2,
    BudgetExceededError before it is built, and an entry that is not an
    integer TypeError (``operator.index``: 0.5 or '3' is refused, never
    truncated or parsed).
    """
    entries = tuple(map(index, entries))
    decision = is_realizable(entries)
    if decision.verdict is Verdict.OUT_OF_SCOPE:
        raise OutOfScopeError(decision.reason)
    if decision.verdict is Verdict.NO:
        raise NotRealizableError(decision.reason)

    d = len(entries) - 1
    if (d + 1) ** 2 > DEFAULT_BUDGET:
        raise BudgetExceededError((d + 1) ** 2, DEFAULT_BUDGET, "witness", "vertex entries")
    volume = sum(entries)
    positions = [i for i in range(1, d + 1) for _ in range(entries[i])]
    if volume == 1:
        n1, n2 = 0, 0
    elif volume == 2:
        (i,) = positions
        n1, n2 = 2 * i, 0
    else:
        i, j = positions
        # Degrees (n1 + 2 n2) / 3 = i and (2 n1 + n2) / 3 = j.
        n1, n2 = 2 * j - i, 2 * i - j
    if n2 < 0 or n1 + n2 > d + 1:
        raise InternalInconsistencyError(f"no cyclic box group of order {volume} has delta {entries}")
    # For V > 1, n1 >= 1, so a ends in a_d = 1 and b_i = -a_i mod V.
    a = [0] * (d + 1 - n1 - n2) + [2] * n2 + [1] * n1
    b = [-x % volume for x in a[1:d]]
    simplex = LatticeSimplex(hnf_vertices(b, volume))
    plan = ConstructionPlan("cyclic", {"volume": volume, "b": b})
    recomputed = delta_from_box(simplex)
    if tuple(recomputed.entries) != entries:
        raise InternalInconsistencyError(f"witness verification failed: got {recomputed.entries}, wanted {entries}")
    return simplex, plan
