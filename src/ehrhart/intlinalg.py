"""Exact integer linear algebra.

Everything here runs on Python's arbitrary-precision integers, so
intermediate growth can never overflow.  Matrices are sequences of sparse
rows ``{column: value}`` that leave their zeros out, so they take memory in
their nonzero entries only.  The one elimination is fraction-free (Bareiss).
Its views give the column rank profile with the last pivot, from a sweep of
the rows that hold no pivot yet, and integer forms that read off exact
solutions and membership in the column space, from a Gauss-Jordan sweep of
every row.  Beside it sits a Smith normal form that keeps only its left
transform.
"""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import DimensionError, SingularMatrixError


# A matrix as its rows {column: value}, which leave every zero entry out.
SparseRows = Iterable[Mapping[int, int]]


class SnfDecomposition(NamedTuple):
    """Smith normal form: left @ original = diag @ W for a unimodular W.

    ``diag`` holds the nonnegative invariant factors, each dividing the next,
    with any zeros trailing.  ``left`` is unimodular, given as its rows in
    sparse form ``{column: value}``, zeros left out; the right transform is
    not kept.
    """

    left: list[dict[int, int]]
    diag: tuple[int, ...]


def _eliminate(a: list[dict[int, int]], k: int, jordan: bool) -> tuple[list[int], list[int], int]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the
    sparse rows ``a`` on their columns below k, in place: a row is updated
    or its item of ``a`` replaced.

    Each step takes the first free row, one that holds no pivot yet, with an
    entry in the column as the pivot row, and replaces every other swept row
    by (p * row - f * pivot_row) / prev, where p is the new pivot, f the
    row's entry in the pivot column and prev the previous pivot.  By
    Sylvester's identity the division is exact and every entry stays a minor
    of the input, so entries never grow beyond them.  A column with no entry
    in a free row depends on the columns before it and gets no pivot.
    Returns (pivot columns, their rows, last pivot).

    The swept rows are the free rows, and with ``jordan`` also the pivot
    rows.  A free row gets the same updates either way, so the pivots and
    the last pivot do not depend on ``jordan``.  With it (Gauss-Jordan) every
    pivot row reads ``last * e_c`` on the columns below k at the end, and
    every other row is zero there; without it the pivot rows are left as
    they were when they took their pivot.

    Each step finds the rows with an entry in its column by one dict lookup
    per free row.  When p = prev, as unit pivots give, a row with no entry
    there is unchanged, and a row with one becomes row - (f / prev) *
    pivot_row, exact entry by entry: the update touches the pivot row's
    entries only.
    Otherwise every other swept row is rewritten, the rows with no entry in
    the column rescaled by p / prev.
    """
    free = list(range(len(a)))
    pivots = []
    pivot_rows = []
    prev = 1
    for c in range(k):
        here = [i for i in free if c in a[i]]
        if not here:
            continue
        r = here[0]
        free.remove(r)
        top = a[r]
        p = top[c]
        if p == prev:
            swept = here[1:]
            if jordan:
                swept += [i for i in pivot_rows if c in a[i]]
        else:
            swept = pivot_rows + free if jordan else free
        for i in swept:
            row = a[i]
            f = row.get(c)
            if p == prev:
                for j, y in top.items():
                    v = row.get(j, 0) - f * y // prev
                    if v:
                        row[j] = v
                    else:
                        del row[j]
            elif f:
                keys = row.keys() | top.keys()
                a[i] = {j: v for j in keys if (v := (p * row.get(j, 0) - f * top.get(j, 0)) // prev)}
            else:
                a[i] = {j: p * x // prev for j, x in row.items()}
        prev = p
        pivots.append(c)
        pivot_rows.append(r)
    return pivots, pivot_rows, prev


def column_pivots(rows: Iterable[dict[int, int]], width: int) -> tuple[tuple[int, ...], int]:
    """The columns, below ``width``, of the matrix with these rows that are
    independent of the columns before them, and the last pivot: ± the
    determinant when the matrix is square and nonsingular.  Only the free
    rows are swept: nothing here reads the pivot rows afterwards.  The rows,
    distinct dicts, are the working rows and are changed."""
    pivots, _, last = _eliminate(list(rows), width, jordan=False)
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


def column_forms(rows: SparseRows, width: int) -> ColumnForms:
    """Forms of the matrix m with these rows and ``width`` columns, from one
    fraction-free Gauss-Jordan elimination of ``[m | I]``.

    The elimination multiplies ``[m | I]`` on the left by an invertible T
    with T m = (den * I; 0) up to the order of the rows, so the identity part
    of the pivot rows gives the forms and that of the other rows the
    equalities; both are returned dense.  Raises SingularMatrixError when the
    columns are dependent.
    """
    a = [{**row, width + i: 1} for i, row in enumerate(rows)]
    size = len(a)
    pivots, pivot_rows, last = _eliminate(a, width, jordan=True)
    if len(pivots) < width:
        raise SingularMatrixError("columns are linearly dependent")
    sign = -1 if last < 0 else 1
    identity = range(width, width + size)
    return ColumnForms(
        den=sign * last,
        forms=tuple(tuple(sign * a[r].get(j, 0) for j in identity) for r in pivot_rows),
        equalities=tuple(tuple(a[i].get(j, 0) for j in identity) for i in range(size) if i not in pivot_rows),
    )


def _axpy(out: dict, src: dict, f: int) -> None:
    """out += f * src on sparse rows, dropping the entries that cancel."""
    for c, y in src.items():
        v = out.get(c, 0) + f * y
        if v:
            out[c] = v
        else:
            del out[c]


def smith_normal_form(m: Iterable[dict[int, int]]) -> SnfDecomposition:
    """Diagonalize by unimodular row and column operations.

    Returns (left, diag) with left @ m @ right diagonal for some unimodular
    right, the diagonal entries nonnegative with each dividing the next and
    zeros trailing.  Only the row operations are recorded.

    Each pivot is the first nonzero entry of least magnitude, in row-major
    order, of the remaining submatrix.  No nonzero entry is smaller than a
    unit, so the search stops at the first +-1: that is the entry a full
    scan would pick.  Every pivot takes one step: row operations reduce its
    column modulo the pivot, column operations its row, and an entry the
    pivot does not divide has its row folded in.  A unit pivot divides
    everything (Cohen, A Course in Computational Algebraic Number Theory,
    2.4): the row operations clear its column exactly, after which the
    column operations would only zero the rest of its row, and the
    divisibility pass has nothing to fold in.  So a unit pivot ends its slot
    after the row operations.  Its row keeps the entries the column
    operations would zero: no later step reads a row before its slot, and
    the diagonal is read at the pivot's column.

    ``m`` is n sparse rows, distinct dicts, with columns in 0..n-1.  They
    are the working rows and are changed; ``left`` is returned as such
    rows.  Columns keep their original keys:
    ``perm[p]`` is the column at position p and ``pos`` its inverse, so a
    column swap touches two entries.  Rows from slot t on are zero at every
    position before t, so a row's entries are exactly its remaining
    submatrix entries; ties within a row go to the least position, never to
    dict order.
    """
    a = list(m)
    n = len(a)
    columns = set().union(*a)
    if columns and (min(columns) < 0 or max(columns) >= n):
        raise DimensionError(f"smith_normal_form needs a square matrix, got {n} rows with columns outside 0..{n - 1}")
    left = [{i: 1} for i in range(n)]
    perm = list(range(n))
    pos = list(range(n))

    for t in range(n):
        while True:
            # Move the first nonzero entry of least magnitude to the pivot slot.
            best = None
            least = 0
            for i in range(t, n):
                row = a[i]
                if not row:
                    continue
                x = min(map(abs, row.values()))
                if best is None or x < least:
                    least = x
                    best = i
                    if x == 1:
                        break
            if best is None:
                break
            if best != t:
                a[t], a[best] = a[best], a[t]
                left[t], left[best] = left[best], left[t]
            top = a[t]
            bj = min(pos[c] for c, y in top.items() if y == least or y == -least)
            if bj != t:
                perm[t], perm[bj] = perm[bj], perm[t]
                pos[perm[t]], pos[perm[bj]] = t, bj
            ct = perm[t]
            piv = top[ct]
            ltop = left[t]
            done = True
            for i in [i for i in range(t + 1, n) if ct in a[i]]:
                row = a[i]
                f = -(row[ct] // piv)
                _axpy(row, top, f)
                _axpy(left[i], ltop, f)
                if ct in row:
                    done = False
            if least == 1:
                # A unit divides everything: nothing is left to reduce or fold.
                break
            # Column cj -= (f // piv) * column ct for each entry f of row t
            # leaves row t with the remainders f % piv, and changes only the
            # other rows that hold ct.
            if len(top) > 1:
                cols = {cj: -(f // piv) for cj, f in top.items() if cj != ct}
                rest = {cj: r for cj, f in top.items() if cj != ct and (r := f % piv)}
                if rest:
                    done = False
                rest[ct] = piv
                a[t] = top = rest
                for row in a[t + 1 :]:
                    y = row.get(ct)
                    if y:
                        _axpy(row, cols, y)
            if not done:
                continue
            # Pivot must divide every remaining entry; if not, fold the
            # offending row in and restart the reduction at this slot.
            offender = next((i for i in range(t + 1, n) if any(x % piv for x in a[i].values())), None)
            if offender is None:
                break
            _axpy(top, a[offender], 1)
            _axpy(ltop, left[offender], 1)
        if a[t].get(perm[t], 0) < 0:
            a[t] = {c: -x for c, x in a[t].items()}
            left[t] = {c: -x for c, x in left[t].items()}

    return SnfDecomposition(left=left, diag=tuple(a[i].get(perm[i], 0) for i in range(n)))
