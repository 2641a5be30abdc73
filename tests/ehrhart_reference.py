"""The tests' reference Ehrhart polynomial, kept apart from the package.

This is the expansion ``ehrhart.engine.ehrhart_coefficients`` used before it
read the forward differences of i(P, n) off prefix sums of delta: for each
nonzero delta_i, d! C(n + d - i, d) is expanded as the product of (n + r)
for r = 1-i..d-i, and the products are summed in integers.  It shares no
arithmetic with the engine's Horner pass, so the tests use it as their
reference for ``ehrhart_coefficients``.
"""
from __future__ import annotations

import math
from fractions import Fraction


def reference_coefficients(entries: tuple[int, ...]) -> list[Fraction]:
    """Coefficients of i(P, n) = sum_i delta_i C(n + d - i, d) as a
    polynomial in n, constant term first."""
    d = len(entries) - 1
    total = [0] * (d + 1)
    for i, e in enumerate(entries):
        if not e:
            continue
        poly = [1]
        for r in range(1 - i, d - i + 1):
            # poly * (n + r), coefficients constant term first
            poly = [r * a + b for a, b in zip(poly + [0], [0] + poly)]
        total = [t + e * c for t, c in zip(total, poly)]
    scale = math.factorial(d)
    return [Fraction(c, scale) for c in total]
