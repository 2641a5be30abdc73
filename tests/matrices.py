"""Dense test matrices and the package's sparse rows ``{column: value}``.

The tests write their matrices dense, as lists of integer rows, and their
reference implementations work on them that way; ``ehrhart.intlinalg``
takes and returns sparse rows that leave the zeros out.
"""
from __future__ import annotations


def sparse(row) -> dict[int, int]:
    return {j: x for j, x in enumerate(row) if x}


def sparse_rows(m) -> list[dict[int, int]]:
    return [sparse(row) for row in m]


def dense(rows, width: int) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def lifted_dense(s) -> list[list[int]]:
    """The rows (v_i, 1) of a simplex's lifted matrix, dense."""
    return [[*v, 1] for v in s.vertices]
