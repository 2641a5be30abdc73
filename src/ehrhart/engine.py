"""Delta-vector computation and Ehrhart counting.

Two independent routes are provided on purpose:

* ``delta_from_box`` enumerates the integer points of the half-open
  fundamental parallelepiped of the lifted simplex, reading their weights
  off the left transform of the Smith normal form of the lifted vertex
  matrix with integer arithmetic only.  It scales with the normalized
  volume, not the dimension, so it handles the large-d constructed simplices.
  Each numerator vector of the box group is one packed int, w =
  D_max.bit_length() + 1 bits per coordinate, so a step to the next box
  point is one add, one mask and one popcount, whatever d is.
* ``count_points`` counts the lattice points of a dilate without the Smith
  normal form: one fraction-free elimination gives integer forms for the
  barycentric weights, and the bounding box is scanned one line along the
  last coordinate at a time, each line adding the length of one integer
  interval.  With ``delta_from_counts`` it forms the independent oracle used
  for cross-checking.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, InconsistentCountsError, InternalInconsistencyError
from .intlinalg import smith_normal_form
from .simplex import LatticeSimplex

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_BUDGET = 10**8


class DeltaVector:
    """The sequence (delta_0, ..., delta_d); always starts with 1, never negative.

    Immutable: ``entries`` is set once, and instances compare and hash by it.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        if not entries:
            raise InconsistentCountsError("empty delta vector")
        if entries[0] != 1:
            raise InconsistentCountsError(f"delta_0 = {entries[0]}, must be 1")
        if any(e < 0 for e in entries):
            raise InconsistentCountsError(f"negative entry in {entries}")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"DeltaVector(entries={self.entries!r})"

    def __reduce__(self):
        return DeltaVector, (self.entries,)

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    @property
    def normalized_volume(self) -> int:
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)


class BoxPoint(NamedTuple):
    """Integer point of the half-open parallelepiped over the lifted simplex.

    ``coefficients`` are the barycentric weights in [0, 1); ``degree`` is the
    last coordinate of the point, equal to the integer sum of the weights.
    """

    point: tuple[int, ...]
    degree: int
    coefficients: tuple[Fraction, ...]


def _box_walk(s: LatticeSimplex, budget: int) -> tuple[int, int, Iterator[tuple[int, int]]]:
    """(D_max, w, walk): the walk yields, lazily, every box point as its
    numerator vector c packed into one int, with the sum of its fields.

    The box group is Z^(d+1) modulo the row lattice of the lifted matrix m.
    With ``U m V = D`` its weight vectors are frac(sum_i (w_i / D_i) U_i) for
    w_i in [0, D_i) (Beck-Robins, ch. 3), so each numerator is an integer sum
    of the rows (D_max / D_i) U_i taken modulo D_max, and the box point's
    weights are c / D_max.  Only invariant factors D_i > 1 contribute.  The
    group order is the normalized volume kept from construction, refused
    above the budget before the Smith normal form runs; the invariant
    factors must multiply to it.

    Coordinate c_j sits in bits [j w, (j + 1) w) of the packed int, with
    w = D_max.bit_length() + 1, one bit more than a field in [0, D_max)
    needs (see ``_walk``).
    """
    volume = s.normalized_volume
    if volume > budget:
        raise BudgetExceededError(volume, budget)
    m = s.lifted_matrix()
    snf = smith_normal_form(m)
    if math.prod(snf.diag) != volume:
        raise InternalInconsistencyError(f"invariant factors {snf.diag} do not multiply to |det| = {volume}")
    dmax = snf.diag[-1]
    w = dmax.bit_length() + 1
    levels = []
    for row, di in zip(snf.left, snf.diag):
        if di > 1:
            g = {j: dmax // di * u % dmax for j, u in row.items()}
            # Membership: c m = 0 (mod D_max), so that the point c m / D_max
            # is integral.  It is linear in c, so checking the generators
            # covers every numerator they generate.
            point = [0] * len(m)
            for j, x in g.items():
                point = [p + x * y for p, y in zip(point, m[j])]
            if any(p % dmax for p in point):
                raise InternalInconsistencyError(f"weight generator {g}/{dmax} is not a box point")
            levels.append((sum(x << j * w for j, x in g.items()), sum(g.values()), di))
    ones = ((1 << w * len(m)) - 1) // ((1 << w) - 1)
    k = ones * ((1 << w - 1) - dmax)
    high = ones << w - 1
    # Without invariant factors > 1 the group is trivial: one level of one
    # step walks its one point, c = 0.
    return dmax, w, _walk(levels or [(0, 0, 1)], 0, 0, 0, dmax, k, high)


def _walk(
    levels: list[tuple[int, int, int]], level: int, c: int, total: int, dmax: int, k: int, high: int
) -> Iterator[tuple[int, int]]:
    """Yield (c, sum of the fields of c) for every point of the box group
    from ``level`` on, starting at c.  ``levels`` holds one (packed
    generator g, sum(g), order) per invariant factor > 1.

    One step adds g, whose fields are below D_max, so every field stays
    below 2 D_max <= 2^w and no carry crosses fields.  Adding
    k = 2^(w-1) - D_max to every field sets bit w - 1 exactly in the fields
    that reached D_max; the mask ``high`` picks those bits, and D_max is
    taken off every such field at once.  The field sum moves by sum(g) less
    D_max per field reduced.  A level is back at its start after its
    ``order`` steps, since order * g = 0 (mod D_max); anything else is an
    arithmetic fault.  Each level but the innermost recurses into the next
    once per step; the innermost yields from a plain loop, so no generator
    is made per point.
    """
    g, step, order = levels[level]
    inner = level + 1 < len(levels)
    shift = dmax.bit_length()
    start = c, total
    for _ in range(order):
        if inner:
            yield from _walk(levels, level + 1, c, total, dmax, k, high)
        else:
            yield c, total
        c += g
        h = (c + k) & high
        c -= (h >> shift) * dmax
        total += step - dmax * h.bit_count()
    if (c, total) != start:
        raise InternalInconsistencyError(f"box walk level {level} is not back at its start after {order} steps")


def _degree(total: int, dmax: int) -> int:
    degree, rest = divmod(total, dmax)
    if rest:
        raise InternalInconsistencyError(f"weights summing to {total}/{dmax} do not sum to an integer")
    return degree


def box_points(s: LatticeSimplex, budget: int = DEFAULT_BUDGET) -> list[BoxPoint]:
    """All integer points of the fundamental parallelepiped, sorted by
    (degree, point).

    Raises BudgetExceededError when the normalized volume exceeds ``budget``.
    """
    from fractions import Fraction

    dmax, w, walk = _box_walk(s, budget)
    mask = (1 << w) - 1
    columns = list(zip(*s.lifted_matrix()))
    pts = []
    for packed, total in walk:
        c = [packed >> j * w & mask for j in range(len(columns))]
        point = []
        for col in columns:
            x, rest = divmod(sum(a * b for a, b in zip(c, col)), dmax)
            if rest:
                raise InternalInconsistencyError(f"weights {c}/{dmax} give a non-integer point")
            point.append(x)
        pts.append(
            BoxPoint(
                point=tuple(point),
                degree=_degree(total, dmax),
                coefficients=tuple(Fraction(x, dmax) for x in c),
            )
        )
    pts.sort(key=lambda b: (b.degree, b.point))
    return pts


def delta_from_box(s: LatticeSimplex, budget: int = DEFAULT_BUDGET) -> DeltaVector:
    """delta_i = number of parallelepiped points of degree i.

    Raises BudgetExceededError when the normalized volume exceeds ``budget``.
    """
    dmax, _, walk = _box_walk(s, budget)
    entries = [0] * (s.dim + 1)
    for _, total in walk:
        entries[_degree(total, dmax)] += 1
    return DeltaVector(tuple(entries))


def _line_count(
    bases: list[int], slopes: tuple[int, ...], lo: int, hi: int, n_weights: int, least: int
) -> int:
    """Integers x in [lo, hi] with base + slope * x >= least for the first
    ``n_weights`` forms and == 0 for the rest."""
    for i, (b, c) in enumerate(zip(bases, slopes)):
        if i < n_weights:
            if c > 0:
                lo = max(lo, -((b - least) // c))
            elif c < 0:
                hi = min(hi, (b - least) // -c)
            elif b < least:
                return 0
        elif c:
            x, rest = divmod(-b, c)
            if rest:
                return 0
            lo, hi = max(lo, x), min(hi, x)
        elif b:
            return 0
        if lo > hi:
            return 0
    return hi - lo + 1


def _scan(
    j: int, bases: list[int], slopes: list[tuple[int, ...]], lo: list[int], hi: list[int], n_weights: int, least: int
) -> int:
    """Points of the box lo..hi from coordinate j on, every form at base."""
    if j == len(slopes) - 1:
        return _line_count(bases, slopes[j], lo[j], hi[j], n_weights, least)
    return sum(
        _scan(j + 1, [b + c * x for b, c in zip(bases, slopes[j])], slopes, lo, hi, n_weights, least)
        for x in range(lo[j], hi[j] + 1)
    )


def count_points(
    s: LatticeSimplex, n: int, strict: bool = False, budget: int = DEFAULT_BUDGET
) -> int:
    """|nP ∩ Z^N| by bounding-box scan; strict counts the interior dilate.

    A point p is in nP when every weight form of ``s.weight_forms()`` is
    >= 0 at (p, n) (>= 1 for the interior) and every equality form is 0.  The
    scan fixes all coordinates but the last; on that line each form is
    base + slope * x, so the line contributes one integer interval.
    Refuses (rather than truncates) when the bounding box holds more than
    ``budget`` candidates.
    """
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    lo = [min(n * v[j] for v in s.vertices) for j in range(s.ambient_dim)]
    hi = [max(n * v[j] for v in s.vertices) for j in range(s.ambient_dim)]
    total = 1
    for a, b in zip(lo, hi):
        total *= b - a + 1
    if total > budget:
        raise BudgetExceededError(total, budget)
    wf = s.weight_forms()
    forms = wf.forms + wf.equalities
    n_weights = len(wf.forms)
    least = 1 if strict else 0
    bases = [f[-1] * n for f in forms]
    if s.ambient_dim == 0:
        # The one point of Z^0 is a line of length 1 on which every form is constant.
        return _line_count(bases, (0,) * len(forms), 0, 0, n_weights, least)
    slopes = [tuple(f[j] for f in forms) for j in range(s.ambient_dim)]
    return _scan(0, bases, slopes, lo, hi, n_weights, least)


def delta_from_counts(counts: Sequence[int], d: int) -> DeltaVector:
    """Invert the generating-function relation from i(P, 1..d) to delta.

    delta_i = sum_{j=0..i} (-1)^j C(d+1, j) i(P, i-j), with i(P, 0) = 1.
    A negative entry means the input was not the counting sequence of an
    integral polytope.
    """
    if len(counts) != d:
        raise InconsistentCountsError(f"need {d} counts i(P,1..d), got {len(counts)}")
    ivals = [1] + [int(c) for c in counts]
    entries = []
    for i in range(d + 1):
        e = sum((-1) ** j * math.comb(d + 1, j) * ivals[i - j] for j in range(i + 1))
        if e < 0:
            raise InconsistentCountsError(f"delta_{i} = {e} < 0 for counts {list(counts)}")
        entries.append(e)
    return DeltaVector(tuple(entries))


def binomial_poly(a: int, d: int) -> int:
    """C(a, d) as the polynomial a(a-1)...(a-d+1)/d!, valid for negative a,
    where C(a, d) = (-1)^d C(d-1-a, d)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return math.comb(a, d) if a >= 0 else (-1) ** d * math.comb(d - 1 - a, d)


def evaluate_ehrhart(delta: DeltaVector, n: int) -> int:
    """i(P, n) = sum_i delta_i * C(n + d - i, d), for any integer n."""
    d = delta.d
    return sum(e * binomial_poly(n + d - i, d) for i, e in enumerate(delta.entries) if e)


def evaluate_interior(delta: DeltaVector, n: int) -> int:
    """i*(P, n) = sum_i delta_i * C(n - 1 + i, d); n must be positive."""
    if n < 1:
        raise ValueError("interior evaluation needs n >= 1")
    d = delta.d
    return sum(e * math.comb(n - 1 + i, d) for i, e in enumerate(delta.entries) if e)


def ehrhart_coefficients(delta: DeltaVector) -> list[Fraction]:
    """Coefficients of i(P, n) as a polynomial in n, constant term first.

    d! C(n + d - i, d) is the product of (n + r) for r = 1-i..d-i; the
    products for the nonzero delta_i are expanded and summed in integers,
    and only the sum is divided by d!.
    """
    from fractions import Fraction

    d = delta.d
    total = [0] * (d + 1)
    for i, e in enumerate(delta.entries):
        if not e:
            continue
        poly = [1]
        for r in range(1 - i, d - i + 1):
            # poly * (n + r), coefficients constant term first
            poly = [r * a + b for a, b in zip(poly + [0], [0] + poly)]
        total = [t + e * c for t, c in zip(total, poly)]
    scale = math.factorial(d)
    return [Fraction(c, scale) for c in total]
