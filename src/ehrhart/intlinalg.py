"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers and
``fractions.Fraction``, so intermediate growth can never overflow.  The
workhorses are a fraction-free Bareiss determinant, a fraction-free
Gauss-Jordan elimination (the column rank profile, and integer forms that
read off exact solutions and membership in the column space), a Smith normal
form with both unimodular transforms, and an exact rational solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, SingularMatrixError


class IntegerMatrix:
    """Immutable dense integer matrix stored row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence[int]], cols: int | None = None):
        rows = [tuple(int(x) for x in row) for row in data]
        if rows:
            width = len(rows[0])
        else:
            width = 0 if cols is None else cols
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows")
        self.rows = len(rows)
        self.cols = width
        self._data = tuple(rows)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntegerMatrix(
            [
                [
                    sum(self._data[i][k] * other._data[k][j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            cols=other.cols,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerMatrix) and self._data == other._data and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntegerMatrix({[list(r) for r in self._data]!r})"

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form: left @ original @ right is diagonal.

    ``diag`` holds the nonnegative invariant factors, each dividing the next,
    with any zeros trailing.  Both transforms are unimodular.
    """

    left: IntegerMatrix
    diag: tuple[int, ...]
    right: IntegerMatrix


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    The 0x0 determinant is 1, which keeps 1-dimensional constructions uniform.
    """
    if not m.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division is guaranteed by the Bareiss identity.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _gauss_jordan(a: list[Sequence[int]], k: int) -> tuple[list[int], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the rows ``a`` on their
    first k columns, replacing the items of ``a`` (no row is mutated).

    Each step replaces every other row by (p * row - f * pivot_row) / prev,
    where p is the new pivot, f the row's entry in the pivot column and prev
    the previous pivot.  By Sylvester's identity the division is exact and
    every entry stays a minor of the input, so entries never grow beyond
    them.  A column with no nonzero entry outside the pivot rows depends on
    the columns before it and gets no pivot.  At the end every pivot row
    reads ``last * e_c`` on the first k columns, ``last`` being the last
    pivot, and every other row is zero there.  Returns (pivot columns, their
    rows, last pivot).
    """
    free = list(range(len(a)))
    pivots = []
    pivot_rows = []
    prev = 1
    for c in range(k):
        r = next((i for i in free if a[i][c] != 0), None)
        if r is None:
            continue
        free.remove(r)
        top = a[r]
        p = top[c]
        for i, row in enumerate(a):
            if i == r:
                continue
            f = row[c]
            if f != 0:
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                a[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
        pivot_rows.append(r)
    return pivots, pivot_rows, prev


def column_pivots(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The columns of the matrix with these rows that are independent of the
    columns before them."""
    width = len(rows[0]) if rows else 0
    return tuple(_gauss_jordan(list(rows), width)[0])


@dataclass(frozen=True)
class ColumnForms:
    """Integer forms for the column space of a matrix A with independent
    columns: every x = A y has ``forms[i] . x = den * y[i]`` with den > 0,
    and ``equalities[j] . x`` is zero for every j exactly when x lies in the
    column space.
    """

    den: int
    forms: tuple[tuple[int, ...], ...]
    equalities: tuple[tuple[int, ...], ...]


def column_forms(rows: Sequence[Sequence[int]]) -> ColumnForms:
    """Forms of the matrix m with these rows, from one fraction-free
    elimination of ``[m | I]``.

    The elimination multiplies ``[m | I]`` on the left by an invertible T
    with T m = (den * I; 0) up to the order of the rows, so the identity part
    of the pivot rows gives the forms and that of the other rows the
    equalities.  Raises SingularMatrixError when the columns are dependent.
    """
    size = len(rows)
    width = len(rows[0]) if rows else 0
    a = [list(r) + [int(i == j) for j in range(size)] for i, r in enumerate(rows)]
    pivots, pivot_rows, last = _gauss_jordan(a, width)
    if len(pivots) < width:
        raise SingularMatrixError("columns are linearly dependent")
    sign = -1 if last < 0 else 1
    return ColumnForms(
        den=sign * last,
        forms=tuple(tuple(sign * x for x in a[r][width:]) for r in pivot_rows),
        equalities=tuple(tuple(a[i][width:]) for i in range(size) if i not in pivot_rows),
    )


def solve_rational(m: IntegerMatrix, b: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve m @ x = b exactly over the rationals.

    Raises SingularMatrixError when the matrix has no inverse.
    """
    if not m.is_square:
        raise DimensionError(f"solve needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if len(b) != n:
        raise DimensionError(f"rhs has length {len(b)}, expected {n}")
    a = [[Fraction(x) for x in m.row(i)] + [Fraction(b[i])] for i in range(n)]
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


def smith_normal_form(m: IntegerMatrix) -> SnfDecomposition:
    """Diagonalize by unimodular row and column operations.

    Returns (left, diag, right) with left @ m @ right diagonal, the diagonal
    entries nonnegative with each dividing the next and zeros trailing.
    """
    if not m.is_square:
        raise DimensionError(f"smith_normal_form needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = m.to_lists()
    left = IntegerMatrix.identity(n).to_lists()
    right = IntegerMatrix.identity(n).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        # row[dst] += f * row[src]
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in right:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    for t in range(n):
        while True:
            # Move a nonzero entry of smallest magnitude to the pivot slot.
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            piv = a[t][t]
            done = True
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // piv
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        done = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // piv
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        done = False
            if not done:
                continue
            # Pivot must divide every remaining entry; if not, fold the
            # offending row in and restart the reduction at this slot.
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < n and a[t][t] < 0:
            negate_row(t)

    diag = tuple(a[i][i] for i in range(n))
    return SnfDecomposition(
        left=IntegerMatrix(left, cols=n),
        diag=diag,
        right=IntegerMatrix(right, cols=n),
    )
