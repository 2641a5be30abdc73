"""Integral lattice simplices: validation, membership, pyramid lifting, IO.

A simplex is stored as its vertex tuples, the one dense copy of it, and the
positions of their nonzero entries, read once.  Every matrix built from them
is given as sparse rows ``{column: value}``, made in time and memory
proportional to the nonzero entries.  Construction eliminates the
vertex columns (v_j, 1) once, fraction-free and sweeping only the rows that
hold no pivot yet, to check affine independence; the last pivot is ± the
normalized volume.  On first use the same columns beside an identity,
eliminated Gauss-Jordan, give integer linear forms, kept, whose values at
(p, n) are the barycentric weights of p in the dilate nP times a common
positive denominator, plus equalities that cut out the affine span;
membership in a dilate is a sign test on integer dot products.
"""
from __future__ import annotations

from itertools import compress
from operator import index
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DegenerateSimplexError, DimensionError
from .intlinalg import ColumnForms, column_forms, column_pivots

if TYPE_CHECKING:
    from fractions import Fraction


class LatticeSimplex:
    """d+1 integer vertices in Z^N spanning an affine d-space."""

    __slots__ = ("ambient_dim", "vertices", "dim", "_support", "_volume", "_forms")

    def __init__(self, vertices: Iterable[Iterable[int]]):
        """Raises DimensionError for no vertices or mixed lengths,
        DegenerateSimplexError for affinely dependent vertices, and TypeError
        for an entry that is not an integer (``operator.index``: 0.5 or '3'
        is refused, never truncated or parsed).

        The vertices are read once, in order, so an iterator that makes each
        vertex as it is read keeps only the simplex's own tuples alive."""
        verts = tuple(tuple(map(index, v)) for v in vertices)
        if not verts:
            raise DimensionError("a simplex needs at least one vertex")
        n = len(verts[0])
        if any(len(v) != n for v in verts):
            raise DimensionError("vertices have mixed ambient dimensions")
        self.ambient_dim = n
        self.vertices = verts
        self.dim = len(verts) - 1
        # The positions of each vertex's nonzero entries; a vertex with no
        # zero entry shares the one range of all positions.
        coordinates = range(n)
        self._support = [coordinates if all(v) else tuple(compress(coordinates, v)) for v in verts]
        # Pivot columns come in ascending order, so the first position i with
        # no pivot i is the first vertex in the affine span of those before it.
        # The all-ones row goes first: it takes the pivot of column 0, a unit,
        # whose updates turn the coordinate rows into the edges v_j - v_0, and
        # as a pivot row it is not swept again.
        k = len(verts)
        rows = self._weight_rows()
        pivots, last = column_pivots([rows[-1], *rows[:-1]], k)
        if len(pivots) < k:
            raise DegenerateSimplexError(next(i for i, c in enumerate(pivots + (k,)) if i != c))
        self._volume = abs(last)
        self._forms = None

    def _weight_rows(self) -> list[dict[int, int]]:
        """The sparse rows of the matrix whose column j is (v_j, 1)."""
        rows = [{} for _ in range(self.ambient_dim)]
        for j, (v, support) in enumerate(zip(self.vertices, self._support)):
            for i in support:
                rows[i][j] = v[i]
        rows.append(dict.fromkeys(range(len(self.vertices)), 1))
        return rows

    def weight_forms(self) -> ColumnForms:
        """Integer forms for the barycentric weights of points of dilates.

        For p in the affine span of nP with weights r (sum(r) = n,
        sum(r_i * v_i) = p), ``forms[i] . (p, n) = den * r_i``; the
        ``equalities`` vanish on (p, n) exactly when p lies in that span,
        which only constrains simplices with d < N.  Built on first use and kept.
        """
        if self._forms is None:
            self._forms = column_forms(self._weight_rows(), len(self.vertices))
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

    def lifted_matrix(self) -> list[dict[int, int]]:
        """The rows (v_i, 1) of the (d+1)x(d+1) lifted matrix as sparse rows,
        new on every call and made from the nonzero positions;
        full-dimensional only."""
        self._require_full_dimensional()
        n = self.ambient_dim
        rows = []
        for v, support in zip(self.vertices, self._support):
            row = {j: v[j] for j in support}
            row[n] = 1
            rows.append(row)
        return rows

    def lifted_combination(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """The sum of x * (v_j, 1) over the pairs (j, x), a combination of
        the rows of the lifted matrix, dense, read off the nonzero positions
        of the vertices."""
        n = self.ambient_dim
        out = [0] * (n + 1)
        for j, x in pairs:
            v = self.vertices[j]
            for c in self._support[j]:
                out[c] += x * v[c]
            out[n] += x
        return out

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


def _write_json(doc: dict, write) -> None:
    """Write the line that ``json.dumps(doc)`` gives, and a newline: the one
    JSON writer, for ``--json`` output and polytope files.  Each key and each
    value is encoded on its own, so the longest string built is one value's,
    not the whole document's; a witness's ``vertices`` is written a row at a
    time, each row as ``str(list(row))``, which is its ``json.dumps``."""
    import json

    encode = json.JSONEncoder().encode
    write("{")
    sep = ""
    for key, value in doc.items():
        write(f"{sep}{encode(key)}: ")
        if key == "vertices":
            write("[")
            row_sep = ""
            for row in value:
                write(row_sep + str(list(row)))
                row_sep = ", "
            write("]")
        else:
            write(encode(value))
        sep = ", "
    write("}\n")


def dump_simplex(s: LatticeSimplex, path: str, plan: str | None = None) -> None:
    """Write the polytope file: ambient_dim and integer vertices, one JSON line.

    Python's json emits integers in plain decimal, so arbitrary-precision
    coordinates round-trip exactly.
    """
    doc = {"ambient_dim": s.ambient_dim, "vertices": s.vertices}
    if plan is not None:
        doc["plan"] = plan
    with open(path, "w") as fh:
        _write_json(doc, fh.write)


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
