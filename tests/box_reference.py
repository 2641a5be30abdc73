"""The tests' reference box-group walk, kept apart from the package.

This is the walk ``ehrhart.engine`` used before it packed the numerator
vectors into one integer: each numerator is a tuple, and a step adds a
generator coordinate by coordinate modulo D_max.  It shares the Smith normal
form with the engine but none of the packed arithmetic, so the tests use it
as their reference for ``box_points`` and ``delta_from_box``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from ehrhart.engine import BoxPoint
from ehrhart.intlinalg import smith_normal_form
from matrices import lifted_dense


def reference_numerators(s) -> tuple[int, list[tuple[int, ...]]]:
    """(D_max, every numerator c) with the box points' weights equal to c / D_max."""
    n = s.dim + 1
    snf = smith_normal_form(s.lifted_matrix())
    dmax = snf.diag[-1]
    orders = []
    gens = []
    for i, di in enumerate(snf.diag):
        if di > 1:
            orders.append(di)
            gens.append(tuple(dmax // di * snf.left[i].get(j, 0) % dmax for j in range(n)))

    def walk(level: int, c: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if level == len(gens):
            yield c
            return
        g = gens[level]
        for _ in range(orders[level]):
            yield from walk(level + 1, c)
            c = tuple((a + b) % dmax for a, b in zip(c, g))

    return dmax, list(walk(0, (0,) * n))


def reference_box_points(s) -> list[BoxPoint]:
    """Every box point, sorted by (degree, point)."""
    dmax, numerators = reference_numerators(s)
    columns = list(zip(*lifted_dense(s)))
    pts = []
    for c in numerators:
        degree, rest = divmod(sum(c), dmax)
        assert rest == 0
        point = []
        for col in columns:
            x, rest = divmod(sum(a * b for a, b in zip(c, col)), dmax)
            assert rest == 0
            point.append(x)
        pts.append(BoxPoint(tuple(point), degree, tuple(Fraction(x, dmax) for x in c)))
    pts.sort(key=lambda b: (b.degree, b.point))
    return pts


def reference_delta(s) -> tuple[int, ...]:
    """delta_i = number of box points of degree i."""
    dmax, numerators = reference_numerators(s)
    entries = [0] * (s.dim + 1)
    for c in numerators:
        entries[sum(c) // dmax] += 1
    return tuple(entries)
