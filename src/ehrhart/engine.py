"""Delta-vector computation and Ehrhart counting.

Two independent routes are provided on purpose:

* ``delta_from_box`` enumerates the integer points of the half-open
  fundamental parallelepiped of the lifted simplex, reading their weights
  off the left transform of the Smith normal form of the lifted vertex
  matrix, given as sparse rows, with integer arithmetic only.  It scales
  with the normalized volume, not the dimension, so it handles the large-d
  constructed simplices.
  Each numerator vector of the box group is one packed int, w =
  D_max.bit_length() + 1 bits per coordinate, so a step to the next box
  point is one add, one mask and one popcount, whatever d is.
* ``count_points`` counts the lattice points of a dilate without the Smith
  normal form: one fraction-free elimination gives integer forms for the
  barycentric weights, and the bounding box is scanned one line along the
  last coordinate at a time, each line adding the length of one integer
  interval.  With ``delta_from_counts`` it forms the independent oracle
  used for cross-checking.  The forms are sorted once per call by their
  slope along the line, so a line takes two minima over fixed groups of
  forms, and the forms flat along the line bound which lines count once per
  run of lines.

``delta_vector`` is the one entry point that picks the routes: it charges
each route it will run against the budget (``charge_volume``,
``bounding_box``) before any of them starts, and checks that they agree.
"""
from __future__ import annotations

import math
from operator import add, floordiv, mul
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


def charge_volume(s: LatticeSimplex, budget: int) -> int:
    """The normalized volume, the box route's group order and number of box
    points, read from the construction; refused above ``budget``."""
    volume = s.normalized_volume
    if volume > budget:
        raise BudgetExceededError(volume, budget)
    return volume


def _box_walk(s: LatticeSimplex, budget: int) -> tuple[int, int, Iterator[tuple[int, int]]]:
    """(D_max, w, walk): the walk yields, lazily, every box point as its
    numerator vector c packed into one int, with the sum of its fields.

    The box group is Z^(d+1) modulo the row lattice of the lifted matrix m,
    whose sparse rows the Smith normal form works on in place.
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
    volume = charge_volume(s, budget)
    snf = smith_normal_form(s.lifted_matrix())
    n = s.dim + 1
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
            point = s.lifted_combination(g.items())
            if any(p % dmax for p in point):
                raise InternalInconsistencyError(f"weight generator {g}/{dmax} is not a box point")
            levels.append((sum(x << j * w for j, x in g.items()), sum(g.values()), di))
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
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
    n = s.dim + 1
    pts = []
    for packed, total in walk:
        c = [packed >> j * w & mask for j in range(n)]
        point = []
        for y in s.lifted_combination(enumerate(c)):
            x, rest = divmod(y, dmax)
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


def bounding_box(s: LatticeSimplex, n: int, budget: int) -> tuple[list[int], list[int]]:
    """(lo, hi): the least and greatest value of each coordinate over nP,
    for n >= 0.  Refuses (rather than truncates) when the box holds more
    than ``budget`` integer points.  The box grows with n, so a budget that
    admits the box of n = d admits that of every smaller dilate."""
    lo, hi = [], []
    total = 1
    # One coordinate's values at a time, so no transpose of the vertices is held.
    for column in zip(*s.vertices):
        a, b = n * min(column), n * max(column)
        lo.append(a)
        hi.append(b)
        total *= b - a + 1
    if total > budget:
        raise BudgetExceededError(total, budget)
    return lo, hi


def _line_count(bases: list[int], step: list[int], lines: int, rising: list[int], falling: list[int]) -> int:
    """Points on ``lines`` parallel lines along the last coordinate x, the
    forms taking the values ``bases`` at x = 0 on the first line and moving
    by ``step`` from one line to the next.  A point counts where every form
    is >= 0.

    ``bases`` holds the rising forms, then the falling ones, then the flat
    ones; ``rising`` and ``falling`` hold the magnitudes of their slopes in
    x.  On a line, a rising form needs x >= -(b // c) and a falling one
    x <= b // c.  A flat form is constant on each line, so it bounds which
    of the lines count, once for the whole run.
    """
    r = len(rising)
    f = r + len(falling)
    first, end = 0, lines
    for b, c in zip(bases[f:], step[f:]):
        if c > 0:
            first = max(first, -(b // c))
        elif c < 0:
            end = min(end, b // -c + 1)
        elif b < 0:
            return 0
    # From here on the flat forms are done with: the maps stop at the shorter
    # of their lists, so stepping the rising and falling forms drops the rest.
    step = step[:f]
    if first:
        bases = [b + c * first for b, c in zip(bases, step)]
    total = 0
    for _ in range(end - first):
        # x runs from -min(rising quotients) to min(falling quotients).
        length = min(map(floordiv, bases[r:], falling)) + min(map(floordiv, bases, rising)) + 1
        if length > 0:
            total += length
        bases = [*map(add, bases, step)]
    return total


def _scan(
    j: int, bases: list[int], steps: list[list[int]], sizes: list[int], rising: list[int], falling: list[int]
) -> int:
    """Points of the box from coordinate j on, where the forms take the
    values ``bases`` with coordinates j on at the box's low corner and the
    last one at 0.  Coordinate j takes ``sizes[j]`` values, and a step along
    it adds ``steps[j]`` to the forms; the last coordinate is the line of
    ``_line_count``, with ``rising`` and ``falling`` as there."""
    step = steps[j]
    if j + 1 == len(steps):
        return _line_count(bases, step, sizes[j], rising, falling)
    total = 0
    for _ in range(sizes[j]):
        total += _scan(j + 1, bases, steps, sizes, rising, falling)
        bases = [*map(add, bases, step)]
    return total


def count_points(
    s: LatticeSimplex, n: int, strict: bool = False, budget: int = DEFAULT_BUDGET
) -> int:
    """|nP ∩ Z^N| by bounding-box scan; strict counts the interior dilate.

    A point p is in nP when every weight form of ``s.weight_forms()`` is
    >= 0 at (p, n) (>= 1 for the interior) and every equality form is 0; an
    equality g = 0 is taken as the two forms g >= 0 and -g >= 0.  The scan
    fixes all coordinates but the last; on that line each form is
    base + slope * x, so the line contributes one integer interval.  The
    forms are sorted once per call by the sign of their slope along the line
    (rising, falling, flat), so that a line takes each bound over one group,
    with no branch per form, and the scan moves from line to line by adding
    the slopes.  The forms cut out nP exactly, so the interval needs no clamp
    to the box; and nP is bounded, so some form rises and some falls.
    Refuses (rather than truncates) when the bounding box holds more than
    ``budget`` candidates.
    """
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    lo, hi = bounding_box(s, n, budget)
    wf = s.weight_forms()
    least = 1 if strict else 0
    bounds = [(g, least) for g in wf.forms]
    bounds += [(g, 0) for e in wf.equalities for g in (e, tuple(-x for x in e))]
    if not lo:
        # The one point of Z^0: every form is constant.
        return int(all(g[-1] * n >= shift for g, shift in bounds))
    last = len(lo) - 1
    rising = [b for b in bounds if b[0][last] > 0]
    falling = [b for b in bounds if b[0][last] < 0]
    if not rising or not falling:
        raise InternalInconsistencyError(f"the weight forms of {n}P do not bound coordinate {last}")
    forms = rising + falling + [b for b in bounds if not b[0][last]]
    # Each form at the box's low corner in every coordinate but the line's.
    corner = lo[:last]
    bases = [g[-1] * n - shift + sum(map(mul, g, corner)) for g, shift in forms]
    rises = [g[last] for g, _ in rising]
    falls = [-g[last] for g, _ in falling]
    steps = [[g[j] for g, _ in forms] for j in range(last)]
    # With N = 1 the one line is a run of one line, with a step of zeros.
    sizes = [b - a + 1 for a, b in zip(lo, hi[:last])] or [1]
    return _scan(0, bases, steps or [[0] * len(forms)], sizes, rises, falls)


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


def delta_vector(s: LatticeSimplex, method: str = "box", budget: int = DEFAULT_BUDGET) -> DeltaVector:
    """delta of ``s`` by the box route, the counting route or ``both``; two
    routes must agree, and the box route's delta is returned.

    Every route is charged before any of them runs, in the order they run:
    the box route's group order, then the bounding box of each dilate.  The
    box of nP grows with n, so the first dilate refused here is the first
    one the scan would reach.
    """
    if method not in ("box", "counts", "both"):
        raise ValueError(f"unknown method {method!r}, expected box, counts or both")
    d = s.dim
    box = method != "counts"
    counting = method != "box"
    if box:
        charge_volume(s, budget)
    if counting:
        for n in range(1, d + 1):
            bounding_box(s, n, budget)
    deltas = []
    if box:
        deltas.append(delta_from_box(s, budget))
    if counting:
        deltas.append(delta_from_counts([count_points(s, n, budget=budget) for n in range(1, d + 1)], d))
    if deltas[0] != deltas[-1]:
        raise InternalInconsistencyError(f"box method gave {deltas[0].entries}, counts gave {deltas[-1].entries}")
    return deltas[0]


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
