"""The tests' exact rational solver, kept apart from the package.

``solve_rational`` is a textbook Gauss-Jordan elimination over
``fractions.Fraction``.  It shares no elimination with ``ehrhart.intlinalg``,
whose one routine is fraction-free, so the tests use it as their reference
for exact solutions.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ehrhart.errors import DimensionError, SingularMatrixError

if TYPE_CHECKING:
    from fractions import Fraction

# A dense matrix: its rows, each a sequence of integers.
Rows = Sequence[Sequence[int]]


def require_square(m: Rows, what: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError(f"{what} needs a square matrix, got rows of lengths {[len(r) for r in m]}")
    return n


def solve_rational(m: Rows, b: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve m @ x = b exactly over the rationals.

    Raises SingularMatrixError when the matrix has no inverse.
    """
    from fractions import Fraction

    n = require_square(m, "solve")
    if len(b) != n:
        raise DimensionError(f"rhs has length {len(b)}, expected {n}")
    a = [[Fraction(x) for x in m[i]] + [Fraction(b[i])] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(a[i][n] for i in range(n))
