"""Integral lattice simplices: validation, membership, pyramid lifting, IO.

A simplex is stored as its vertex list; membership in a dilate is decided by
solving the barycentric system exactly over the rationals, so there is no
H-representation anywhere.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateSimplexError, DimensionError
from .intlinalg import IntegerMatrix

Point = tuple[int, ...]


class LatticeSimplex:
    """d+1 integer vertices in Z^N spanning an affine d-space."""

    __slots__ = ("ambient_dim", "vertices", "dim")

    def __init__(self, vertices: Sequence[Sequence[int]]):
        if len(vertices) < 1:
            raise DimensionError("a simplex needs at least one vertex")
        verts = tuple(tuple(int(x) for x in v) for v in vertices)
        n = len(verts[0])
        if any(len(v) != n for v in verts):
            raise DimensionError("vertices have mixed ambient dimensions")
        self.ambient_dim = n
        self.vertices = verts
        self.dim = len(verts) - 1
        self._check_affine_independence()

    def _check_affine_independence(self):
        # Incremental rank over the difference vectors; the first vertex whose
        # difference fails to extend the rank is reported.
        basis: list[list[Fraction]] = []
        v0 = self.vertices[0]
        for idx, v in enumerate(self.vertices[1:], start=1):
            vec = [Fraction(a - b) for a, b in zip(v, v0)]
            for b in basis:
                lead = next((j for j, x in enumerate(b) if x != 0), None)
                if lead is not None and vec[lead] != 0:
                    f = vec[lead] / b[lead]
                    vec = [x - f * y for x, y in zip(vec, b)]
            if all(x == 0 for x in vec):
                raise DegenerateSimplexError(idx)
            basis.append(vec)

    def barycentric(self, p: Sequence[int], n: int) -> tuple[Fraction, ...] | None:
        """Coefficients r with sum(r) = n and sum(r_i * v_i) = p, or None.

        The system is overdetermined when the simplex is not full-dimensional;
        inconsistency means p is outside the affine span of n * vertices.
        """
        if len(p) != self.ambient_dim:
            raise DimensionError(f"point has {len(p)} coordinates, expected {self.ambient_dim}")
        k = self.dim + 1
        # Rows: one per ambient coordinate plus the normalization sum(r) = n.
        rows = [
            [Fraction(self.vertices[j][i]) for j in range(k)] + [Fraction(p[i])]
            for i in range(self.ambient_dim)
        ]
        rows.append([Fraction(1)] * k + [Fraction(n)])
        pivots = []
        r = 0
        for c in range(k):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        if any(rows[i][k] != 0 for i in range(r, len(rows))):
            return None
        sol = [Fraction(0)] * k
        for i, c in enumerate(pivots):
            sol[c] = rows[i][k]
        return tuple(sol)

    def contains(self, p: Sequence[int], n: int, strict: bool = False) -> bool:
        """Whether p lies in nP (strict=False) or in n(P - boundary)."""
        coeffs = self.barycentric(p, n)
        if coeffs is None:
            return False
        if strict:
            return all(r > 0 for r in coeffs)
        return all(r >= 0 for r in coeffs)

    def pyramid(self) -> "LatticeSimplex":
        """One-higher pyramid: base at last coordinate 0, apex (0,...,0,1)."""
        base = [v + (0,) for v in self.vertices]
        apex = (0,) * self.ambient_dim + (1,)
        return LatticeSimplex(base + [apex])

    def lifted_matrix(self) -> IntegerMatrix:
        """The (d+1)x(d+1) matrix with rows (v_i, 1); full-dimensional only."""
        if self.ambient_dim != self.dim:
            raise DimensionError(
                f"lifted matrix needs a full-dimensional simplex (N={self.ambient_dim}, d={self.dim})"
            )
        return IntegerMatrix([list(v) + [1] for v in self.vertices])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeSimplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticeSimplex({[list(v) for v in self.vertices]!r})"


def unit_simplex(d: int) -> LatticeSimplex:
    """conv{0, e_1, ..., e_d} in Z^d."""
    verts = [[0] * d]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        verts.append(e)
    return LatticeSimplex(verts)


def simplex_to_dict(s: LatticeSimplex, plan: str | None = None) -> dict:
    doc = {"ambient_dim": s.ambient_dim, "vertices": [list(v) for v in s.vertices]}
    if plan is not None:
        doc["plan"] = plan
    return doc


def dump_simplex(s: LatticeSimplex, path: str, plan: str | None = None) -> None:
    """Write the polytope file: JSON with ambient_dim and integer vertices.

    Python's json emits integers in plain decimal, so arbitrary-precision
    coordinates round-trip exactly.
    """
    with open(path, "w") as fh:
        json.dump(simplex_to_dict(s, plan), fh, indent=2)
        fh.write("\n")


def _is_json_int(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(x, int) and not isinstance(x, bool)


def load_simplex(path: str) -> LatticeSimplex:
    """Read a polytope file; extra fields (e.g. a plan note) are ignored."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "ambient_dim" not in doc or "vertices" not in doc:
        raise DimensionError("polytope file must contain ambient_dim and vertices")
    n = doc["ambient_dim"]
    verts = doc["vertices"]
    if not _is_json_int(n) or not isinstance(verts, list):
        raise DimensionError("malformed polytope file")
    for v in verts:
        if not isinstance(v, list) or len(v) != n or not all(_is_json_int(x) for x in v):
            raise DimensionError("each vertex must be a list of ambient_dim integers")
    return LatticeSimplex(verts)
