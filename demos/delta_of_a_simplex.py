"""Compute the delta-vector of a lattice simplex two independent ways.

The fast route enumerates the integer points of the half-open fundamental
parallelepiped over the lifted simplex (via Smith normal form); the slow
route counts lattice points in the first d dilates and inverts the
generating-function relation.  They must agree.
"""

from ehrhart import (
    LatticeSimplex,
    box_points,
    count_points,
    delta_from_box,
    delta_from_counts,
    ehrhart_coefficients,
    evaluate_ehrhart,
    evaluate_interior,
)

# A 3-simplex of normalized volume 2: the classic volume-2 construction.
simplex = LatticeSimplex([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]])
d = simplex.dim

print("vertices:", [list(v) for v in simplex.vertices])

delta = delta_from_box(simplex)
print("delta via box enumeration:", list(delta.entries))

for bp in box_points(simplex):
    print(f"  box point {bp.point} at degree {bp.degree}, weights {bp.coefficients}")

counts = [count_points(simplex, n) for n in range(1, d + 1)]
print("lattice point counts i(P,1..d):", counts)
print("delta via counting oracle:   ", list(delta_from_counts(counts, d).entries))

print("Ehrhart polynomial coefficients (constant first):",
      [str(c) for c in ehrhart_coefficients(delta)])
for n in range(1, 5):
    print(f"  i(P,{n}) = {evaluate_ehrhart(delta, n):3d}   "
          f"i*(P,{n}) = {evaluate_interior(delta, n)}")
