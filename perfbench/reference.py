"""Reference answers the benchmark checks the CLI against.

Nothing here imports ``ehrhart``: every expected value is derived from a
closed form or from exact integer arithmetic written for the benchmark.

* Cyclic simplices ``conv(0, e_1, ..., e_{d-1}, (b, V))`` in Hermite normal
  form have the box group Z/V.  For k in 0..V-1 the weights are
  ``lambda_i = frac(-k b_i / V)``, ``lambda_d = k / V`` and ``lambda_0``
  completes the sum to an integer; delta counts the sums by degree.
* The free join of two lattice simplices has the product of their
  delta-polynomials, padded with one trailing zero because the join has
  dimension a + b + 1.
* For coordinate sum <= 3 the realizable candidates are exactly the box
  groups of order <= 3: order 2 gives one extra 1 at a/2 for an even number
  a of half-weights, order 3 gives extra 1s at (n1 + 2 n2)/3 and
  (2 n1 + n2)/3 with n1 + 2 n2 = 0 (mod 3).
* A witness simplex is checked by its lifted determinant and by the delta of
  its box group, found as the kernel of the lifted matrix modulo a prime.
"""
from __future__ import annotations

import itertools
import math


def cyclic_delta(b: list[int], volume: int) -> tuple[int, ...]:
    """delta of conv(0, e_1..e_{d-1}, (b, volume)) with d = len(b) + 1."""
    d = len(b) + 1
    delta = [0] * (d + 1)
    for k in range(volume):
        # Weights times volume: (-k b_i) mod V for i < d, and k for i = d.
        numer = sum((-k * bi) % volume for bi in b) + k
        delta[(numer + (-numer) % volume) // volume] += 1
    return tuple(delta)


def cyclic_vertices(b: list[int], volume: int) -> list[list[int]]:
    d = len(b) + 1
    verts = [[0] * d]
    for i in range(d - 1):
        verts.append([1 if j == i else 0 for j in range(d)])
    verts.append(list(b) + [volume])
    return verts


def join_vertices(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
    """conv(P x 0 x 0, 0 x Q x 1) in Z^(a + b + 1)."""
    a, b = len(p[0]), len(q[0])
    return [list(v) + [0] * b + [0] for v in p] + [[0] * a + list(w) + [1] for w in q]


def join_delta(dp: tuple[int, ...], dq: tuple[int, ...]) -> tuple[int, ...]:
    prod = [0] * (len(dp) + len(dq) - 1)
    for i, x in enumerate(dp):
        for j, y in enumerate(dq):
            prod[i + j] += x * y
    return tuple(prod) + (0,)


def unit_candidate(d: int, *positions: int) -> tuple[int, ...]:
    entries = [1] + [0] * d
    for p in positions:
        entries[p] += 1
    return tuple(entries)


def yes_candidates(d: int) -> set[tuple[int, ...]]:
    """Every delta-vector of a d-simplex with coordinate sum <= 3."""
    yes = {unit_candidate(d)}
    for halves in range(2, d + 2, 2):
        yes.add(unit_candidate(d, halves // 2))
    for n1 in range(d + 2):
        for n2 in range(d + 2 - n1):
            if n1 + n2 and (n1 + 2 * n2) % 3 == 0:
                yes.add(unit_candidate(d, (n1 + 2 * n2) // 3, (2 * n1 + n2) // 3))
    return yes


def all_candidates(d: int, total: int) -> list[tuple[int, ...]]:
    """Candidates with delta_0 = 1 and coordinate sum exactly ``total``."""
    return sorted(
        unit_candidate(d, *positions)
        for positions in itertools.combinations_with_replacement(range(1, d + 1), total - 1)
    )


def determinant(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _left_kernel_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {y : y @ rows = 0 (mod p)} for a prime p."""
    n = len(rows)
    # Row-reduce the images y @ rows, carrying the vectors y along; the y
    # whose images reduce to zero span the kernel.
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    images = [[x % p for x in row] for row in rows]
    pivot_row = 0
    for c in range(len(images[0])):
        piv = next((i for i in range(pivot_row, n) if images[i][c]), None)
        if piv is None:
            continue
        images[pivot_row], images[piv] = images[piv], images[pivot_row]
        basis[pivot_row], basis[piv] = basis[piv], basis[pivot_row]
        inv = pow(images[pivot_row][c], -1, p)
        for i in range(n):
            if i != pivot_row and images[i][c]:
                f = images[i][c] * inv % p
                images[i] = [(x - f * y) % p for x, y in zip(images[i], images[pivot_row])]
                basis[i] = [(x - f * y) % p for x, y in zip(basis[i], basis[pivot_row])]
        pivot_row += 1
    return basis[pivot_row:]


def prime_volume_delta(vertices: list[list[int]], volume: int) -> tuple[int, ...]:
    """delta of a full-dimensional simplex whose normalized volume is 1 or a prime."""
    d = len(vertices) - 1
    delta = [1] + [0] * d
    if volume == 1:
        return tuple(delta)
    kernel = _left_kernel_mod([list(v) + [1] for v in vertices], volume)
    if len(kernel) != 1:
        raise ValueError(f"box group of order {volume} is not cyclic of prime order")
    for k in range(1, volume):
        delta[sum(k * y % volume for y in kernel[0]) // volume] += 1
    return tuple(delta)


def witness_error(vertices, candidate: tuple[int, ...]) -> str | None:
    """Why ``vertices`` do not realize ``candidate`` (sum <= 3), or None."""
    d = len(candidate) - 1
    if not isinstance(vertices, list) or len(vertices) != d + 1:
        return f"witness needs {d + 1} vertices"
    for v in vertices:
        if not isinstance(v, list) or len(v) != d or not all(type(x) is int for x in v):
            return f"witness vertex {v!r} is not a point of Z^{d}"
    volume = abs(determinant([v + [1] for v in vertices]))
    if volume != sum(candidate):
        return f"witness has normalized volume {volume}, candidate sum is {sum(candidate)}"
    got = prime_volume_delta(vertices, volume)
    if got != candidate:
        return f"witness has delta {list(got)}"
    return None


def bounding_box_size(vertices: list[list[int]], n: int) -> int:
    """Number of integer points in the bounding box of the n-th dilate."""
    return math.prod(n * (max(c) - min(c)) + 1 for c in zip(*vertices))
