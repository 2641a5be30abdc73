"""The tests' reference construction elimination, kept apart from the package.

This is the fraction-free Gauss-Jordan elimination that
``ehrhart.intlinalg.column_pivots`` ran before it swept only the rows that
hold no pivot yet: every step rewrites every other row, pivot rows
included.  It shares no code with the package, so the tests use it as their
reference for the pivots, the last pivot and the column forms.
"""
from __future__ import annotations


def reference_gauss_jordan(rows, k: int):
    """(pivot columns, their rows, last pivot, the eliminated rows) of a
    fraction-free Gauss-Jordan elimination of ``rows`` on their first k
    columns."""
    a = [list(row) for row in rows]
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
    return pivots, pivot_rows, prev, a


def reference_column_pivots(rows) -> tuple[tuple[int, ...], int]:
    """``column_pivots`` by a Gauss-Jordan sweep of every row."""
    width = len(rows[0]) if rows else 0
    pivots, _, last, _ = reference_gauss_jordan(rows, width)
    return tuple(pivots), last


def reference_column_forms(rows) -> tuple[int, tuple, tuple]:
    """(den, forms, equalities) of ``column_forms`` for rows of full column
    rank, read off the Gauss-Jordan elimination of ``[m | I]``."""
    size = len(rows)
    width = len(rows[0]) if rows else 0
    augmented = [list(r) + [int(i == j) for j in range(size)] for i, r in enumerate(rows)]
    pivots, pivot_rows, last, a = reference_gauss_jordan(augmented, width)
    assert len(pivots) == width, "reference_column_forms needs full column rank"
    sign = -1 if last < 0 else 1
    forms = tuple(tuple(sign * x for x in a[r][width:]) for r in pivot_rows)
    equalities = tuple(tuple(a[i][width:]) for i in range(size) if i not in pivot_rows)
    return sign * last, forms, equalities
