"""Integral lattice simplices: validation, membership, pyramid lifting, IO.

A simplex is stored as its vertex list.  Its construction eliminates the
vertex columns (v_j, 1) once, fraction-free and sweeping only the rows that
hold no pivot yet, to check affine independence; the last pivot is ± the
normalized volume.  On first use the same columns beside an identity,
eliminated Gauss-Jordan, give integer linear forms, kept, whose values at
(p, n) are the barycentric weights of p in the dilate nP times a common
positive denominator, plus equalities that cut out the affine span;
membership in a dilate is a sign test on integer dot products.
"""
from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, Sequence

from .errors import DegenerateSimplexError, DimensionError
from .intlinalg import ColumnForms, column_forms, column_pivots

if TYPE_CHECKING:
    from fractions import Fraction


class LatticeSimplex:
    """d+1 integer vertices in Z^N spanning an affine d-space."""

    __slots__ = ("ambient_dim", "vertices", "dim", "_volume", "_forms")

    def __init__(self, vertices: Sequence[Sequence[int]]):
        """Raises DimensionError for no vertices or mixed lengths,
        DegenerateSimplexError for affinely dependent vertices, and TypeError
        for an entry that is not an integer (``operator.index``: 0.5 or '3'
        is refused, never truncated or parsed)."""
        if len(vertices) < 1:
            raise DimensionError("a simplex needs at least one vertex")
        verts = tuple(tuple(map(index, v)) for v in vertices)
        n = len(verts[0])
        if any(len(v) != n for v in verts):
            raise DimensionError("vertices have mixed ambient dimensions")
        self.ambient_dim = n
        self.vertices = verts
        self.dim = len(verts) - 1
        # Pivot columns come in ascending order, so the first position i with
        # no pivot i is the first vertex in the affine span of those before it.
        k = len(verts)
        pivots, last = column_pivots(self._weight_rows())
        if len(pivots) < k:
            raise DegenerateSimplexError(next(i for i, c in enumerate(pivots + (k,)) if i != c))
        self._volume = abs(last)
        self._forms = None

    def _weight_rows(self) -> list[list[int]]:
        # The matrix whose column j is (v_j, 1).  map, not a comprehension:
        # zip reuses its row tuple only when nothing else still holds it.
        return list(map(list, zip(*self.vertices))) + [[1] * len(self.vertices)]

    def weight_forms(self) -> ColumnForms:
        """Integer forms for the barycentric weights of points of dilates.

        For p in the affine span of nP with weights r (sum(r) = n,
        sum(r_i * v_i) = p), ``forms[i] . (p, n) = den * r_i``; the
        ``equalities`` vanish on (p, n) exactly when p lies in that span,
        which only constrains simplices with d < N.  Built on first use and kept.
        """
        if self._forms is None:
            self._forms = column_forms(self._weight_rows())
        return self._forms

    def _weight_numerators(self, p: Sequence[int], n: int) -> tuple[int, list[int]] | None:
        if len(p) != self.ambient_dim:
            raise DimensionError(f"point has {len(p)} coordinates, expected {self.ambient_dim}")
        wf = self.weight_forms()
        x = (*p, n)
        if any(sum(a * b for a, b in zip(e, x)) for e in wf.equalities):
            return None
        return wf.den, [sum(a * b for a, b in zip(w, x)) for w in wf.forms]

    def barycentric(self, p: Sequence[int], n: int) -> tuple[Fraction, ...] | None:
        """Coefficients r with sum(r) = n and sum(r_i * v_i) = p, or None.

        None means p is outside the affine span of n * vertices, which can
        only happen when the simplex is not full-dimensional.
        """
        from fractions import Fraction

        weights = self._weight_numerators(p, n)
        if weights is None:
            return None
        den, numerators = weights
        return tuple(Fraction(x, den) for x in numerators)

    def contains(self, p: Sequence[int], n: int, strict: bool = False) -> bool:
        """Whether p lies in nP (strict=False) or in n(P - boundary)."""
        weights = self._weight_numerators(p, n)
        if weights is None:
            return False
        least = 1 if strict else 0
        return all(x >= least for x in weights[1])

    def pyramid(self) -> "LatticeSimplex":
        """One-higher pyramid: base at last coordinate 0, apex (0,...,0,1)."""
        base = [v + (0,) for v in self.vertices]
        apex = (0,) * self.ambient_dim + (1,)
        return LatticeSimplex(base + [apex])

    def _require_full_dimensional(self) -> None:
        if self.ambient_dim != self.dim:
            raise DimensionError(f"lifted matrix needs a full-dimensional simplex (N={self.ambient_dim}, d={self.dim})")

    @property
    def normalized_volume(self) -> int:
        """|det| of the lifted matrix, kept from construction; full-dimensional only."""
        self._require_full_dimensional()
        return self._volume

    def lifted_matrix(self) -> list[list[int]]:
        """The rows (v_i, 1) of the (d+1)x(d+1) lifted matrix; full-dimensional only."""
        self._require_full_dimensional()
        return [[*v, 1] for v in self.vertices]

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


def dump_simplex(s: LatticeSimplex, path: str, plan: str | None = None) -> None:
    """Write the polytope file: JSON with ambient_dim and integer vertices.

    Python's json emits integers in plain decimal, so arbitrary-precision
    coordinates round-trip exactly.
    """
    import json

    doc = {"ambient_dim": s.ambient_dim, "vertices": [list(v) for v in s.vertices]}
    if plan is not None:
        doc["plan"] = plan
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_simplex(path: str) -> LatticeSimplex:
    """Read a polytope file; extra fields (e.g. a plan note) are ignored."""
    import json

    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "ambient_dim" not in doc or "vertices" not in doc:
        raise DimensionError("polytope file must contain ambient_dim and vertices")
    n = doc["ambient_dim"]
    verts = doc["vertices"]
    # JSON integers load as exact int; true/false load as bool, a subclass.
    if type(n) is not int or not isinstance(verts, list):
        raise DimensionError("malformed polytope file")
    for v in verts:
        if not isinstance(v, list) or len(v) != n or not all(type(x) is int for x in v):
            raise DimensionError("each vertex must be a list of ambient_dim integers")
    return LatticeSimplex(verts)
