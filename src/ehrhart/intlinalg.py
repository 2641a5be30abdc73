"""Exact integer linear algebra.

Everything here runs on Python's arbitrary-precision integers, so
intermediate growth can never overflow.  Matrices are plain sequences of
integer rows.  The one elimination is a fraction-free Gauss-Jordan
elimination; its views give the column rank profile with the last pivot, and
integer forms that read off exact solutions and membership in the column
space.  Beside it sits a Smith normal form that keeps only its left
transform.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import DimensionError, SingularMatrixError


Rows = Sequence[Sequence[int]]


def _require_square(m: Rows, what: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError(f"{what} needs a square matrix, got rows of lengths {[len(r) for r in m]}")
    return n


class SnfDecomposition(NamedTuple):
    """Smith normal form: left @ original = diag @ W for a unimodular W.

    ``diag`` holds the nonnegative invariant factors, each dividing the next,
    with any zeros trailing.  ``left`` is unimodular, given as its rows; the
    right transform is not kept.
    """

    left: list[list[int]]
    diag: tuple[int, ...]


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


def column_pivots(rows: Rows) -> tuple[tuple[int, ...], int]:
    """The columns of the matrix with these rows that are independent of the
    columns before them, and the last pivot: ± the determinant when the
    matrix is square and nonsingular."""
    width = len(rows[0]) if rows else 0
    pivots, _, last = _gauss_jordan(list(rows), width)
    return tuple(pivots), last


class ColumnForms(NamedTuple):
    """Integer forms for the column space of a matrix A with independent
    columns: every x = A y has ``forms[i] . x = den * y[i]`` with den > 0,
    and ``equalities[j] . x`` is zero for every j exactly when x lies in the
    column space.
    """

    den: int
    forms: tuple[tuple[int, ...], ...]
    equalities: tuple[tuple[int, ...], ...]


def column_forms(rows: Rows) -> ColumnForms:
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


def smith_normal_form(m: Rows) -> SnfDecomposition:
    """Diagonalize by unimodular row and column operations.

    Returns (left, diag) with left @ m @ right diagonal for some unimodular
    right, the diagonal entries nonnegative with each dividing the next and
    zeros trailing.  Only the row operations are recorded.

    Each pivot is the first nonzero entry of least magnitude, in row-major
    order, of the remaining submatrix.  No nonzero entry is smaller than a
    unit, so the search stops at the first +-1: that is the entry a full
    scan would pick, and ``left`` and ``diag`` do not depend on the
    shortcut.  A unit pivot divides everything (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4): the row operations clear
    its column exactly, after which the column operations would only zero
    the rest of its row, and the divisibility pass has nothing to fold in.
    So the unit step is the row operations and a zeroed row tail.
    """
    n = _require_square(m, "smith_normal_form")
    a = [list(row) for row in m]
    left = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        # row[dst] += f * row[src]
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    for t in range(n):
        while True:
            # Move the first nonzero entry of least magnitude to the pivot slot.
            best = None
            least = 0
            for i in range(t, n):
                row = a[i]
                for j in range(t, n):
                    x = abs(row[j])
                    if x and (best is None or x < least):
                        best, least = (i, j), x
                        if x == 1:
                            break
                if least == 1:
                    break
            if best is None:
                break
            bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            piv = a[t][t]
            if least == 1:
                for i in range(t + 1, n):
                    if a[i][t] != 0:
                        add_row(t, i, -a[i][t] * piv)
                a[t][t + 1 :] = [0] * (n - t - 1)
                break
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

    return SnfDecomposition(left=left, diag=tuple(a[i][i] for i in range(n)))
