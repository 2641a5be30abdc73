"""Engine tests: box enumeration against a brute-force oracle, counting,
binomial transforms, reciprocity."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrhart import engine
from ehrhart.engine import (
    binomial_poly,
    box_points,
    count_points,
    delta_from_box,
    delta_from_counts,
    ehrhart_coefficients,
    evaluate_ehrhart,
    evaluate_interior,
    DeltaVector,
)
from ehrhart.errors import (
    BudgetExceededError,
    DegenerateSimplexError,
    DimensionError,
    InconsistentCountsError,
    SingularMatrixError,
)
from ehrhart.intlinalg import smith_normal_form
from ehrhart.realizer import construct_lemma_first, construct_section2
from ehrhart.simplex import LatticeSimplex, unit_simplex
from rational_oracle import solve_rational


def brute_force_box_points(s):
    """Independent oracle: scan the bounding box of the half-open
    parallelepiped and keep points whose weights all land in [0, 1).

    The weights are r = z (m^T)^-1; the inverse comes from ``solve_rational``
    on the unit vectors, scaled to integers by a common denominator."""
    m = s.lifted_matrix()
    k = s.dim + 1
    mt = [list(col) for col in zip(*m)]
    lo = [sum(min(0, x) for x in col) for col in mt]
    hi = [sum(max(0, x) for x in col) for col in mt]
    columns = [solve_rational(mt, [int(i == j) for i in range(k)]) for j in range(k)]
    den = math.lcm(*(x.denominator for col in columns for x in col))
    inverse = [[int(columns[j][i] * den) for j in range(k)] for i in range(k)]
    found = []
    for z in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if all(0 <= sum(a * b for a, b in zip(row, z)) < den for row in inverse):
            found.append((z, z[-1]))
    return sorted(found)


def brute_force_counts(s, n):
    """Independent oracle: (closed, interior) point counts of nP from
    ``solve_rational`` on a nonsingular square part of the barycentric system
    at every bounding-box point, checking the remaining rows by hand."""
    k = s.dim + 1
    rows = [[v[i] for v in s.vertices] for i in range(s.ambient_dim)] + [[1] * k]
    for chosen in itertools.combinations(range(len(rows)), k):
        square = [rows[i] for i in chosen]
        try:
            solve_rational(square, [0] * k)
            break
        except SingularMatrixError:
            continue
    ranges = [
        range(min(n * v[j] for v in s.vertices), max(n * v[j] for v in s.vertices) + 1)
        for j in range(s.ambient_dim)
    ]
    closed = interior = 0
    for p in itertools.product(*ranges):
        x = (*p, n)
        r = solve_rational(square, [x[i] for i in chosen])
        if any(sum(a * b for a, b in zip(row, r)) != xi for row, xi in zip(rows, x)):
            continue
        closed += all(w >= 0 for w in r)
        interior += all(w > 0 for w in r)
    return closed, interior


def interior_series(delta, n):
    """Coefficient of t^n in sum_i delta_i t^(d+1-i) / (1-t)^(d+1)."""
    return sum(e * math.comb(n + i - 1, delta.d) for i, e in enumerate(delta.entries))


def section2_d3():
    return LatticeSimplex([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]])


def random_simplex(draw_verts):
    try:
        return LatticeSimplex(draw_verts)
    except DegenerateSimplexError:
        return None


simplices = st.integers(2, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 3), min_size=d, max_size=d),
        min_size=d + 1,
        max_size=d + 1,
        unique_by=tuple,
    )
)


def test_box_points_unit_simplex():
    pts = box_points(unit_simplex(4))
    assert len(pts) == 1
    assert pts[0].degree == 0
    assert pts[0].point == (0, 0, 0, 0, 0)


def test_box_points_section2_matches_oracle():
    s = section2_d3()
    pts = box_points(s)
    assert sorted((p.point, p.degree) for p in pts) == brute_force_box_points(s)
    assert sorted(p.degree for p in pts) == [0, 2]
    assert any(p.point == (1, 1, 1, 2) for p in pts)


def test_box_points_lemma31_degrees():
    pts = box_points(construct_lemma_first(1))
    assert sorted(p.degree for p in pts) == [0, 2, 4]


@given(simplices)
@settings(max_examples=60, deadline=None)
def test_box_points_match_oracle_on_random_simplices(verts):
    s = random_simplex(verts)
    assume(s is not None)
    pts = box_points(s)
    assert sorted((p.point, p.degree) for p in pts) == brute_force_box_points(s)
    assert pts == sorted(pts, key=lambda p: (p.degree, p.point))
    m = s.lifted_matrix()
    for p in pts:
        assert all(0 <= r < 1 for r in p.coefficients)
        assert tuple(sum(r * x for r, x in zip(p.coefficients, col)) for col in zip(*m)) == p.point


def hnf_cyclic_simplex(b, volume):
    """conv(0, e_1, ..., e_(d-1), (b, volume)) in Z^d, d = len(b) + 1."""
    d = len(b) + 1
    verts = [[0] * d]
    for i in range(d - 1):
        verts.append([1 if j == i else 0 for j in range(d)])
    verts.append(list(b) + [volume])
    return LatticeSimplex(verts)


def hnf_cyclic_delta(b, volume):
    """Closed form: the k-th box point has weights frac(-k b_i / V) on e_i,
    k / V on the last vertex, and whatever completes an integer sum on 0."""
    entries = [0] * (len(b) + 2)
    for k in range(volume):
        numerator = sum(-k * bi % volume for bi in b) + k
        entries[-(-numerator // volume)] += 1
    return tuple(entries)


HNF_CASES = [
    (d, volume, seed)
    for d in range(2, 7)
    for volume, seed in ((7, 1), (60, 2), (211, 3), (500, 4))
]


@pytest.mark.parametrize("d,volume,seed", HNF_CASES)
def test_delta_from_box_matches_hnf_closed_form(d, volume, seed):
    rng = random.Random(f"hnf/{d}/{volume}/{seed}")
    b = [rng.randrange(volume) for _ in range(d - 1)]
    s = hnf_cyclic_simplex(b, volume)
    expected = hnf_cyclic_delta(b, volume)
    assert sum(expected) == volume
    assert delta_from_box(s).entries == expected
    assert Counter(p.degree for p in box_points(s)) == Counter(
        {i: e for i, e in enumerate(expected) if e}
    )


def join(p_verts, q_verts):
    """conv(P x {0} x {0}, {0} x Q x {1}): the free join of two simplices."""
    a, b = len(p_verts[0]), len(q_verts[0])
    return LatticeSimplex(
        [list(v) + [0] * b + [0] for v in p_verts] + [[0] * a + list(w) + [1] for w in q_verts]
    )


def poly_mul(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, c in enumerate(y):
            out[i + j] += a * c
    return out


@pytest.mark.parametrize(
    "p_verts,q_verts",
    [
        ([[0], [2]], [[0], [2]]),
        ([[0], [2]], [[0], [4]]),
        ([[0], [3]], [[0], [3]]),
        ([[0, 0], [2, 1], [1, 2]], [[0], [6]]),
    ],
    ids=["Z2xZ2", "Z2xZ4", "Z3xZ3", "Z3xZ6"],
)
def test_delta_from_box_of_join_with_two_invariant_factors(p_verts, q_verts):
    s = join(p_verts, q_verts)
    factors = [x for x in smith_normal_form(s.lifted_matrix()).diag if x > 1]
    assert len(factors) == 2
    delta_p = delta_from_box(LatticeSimplex(p_verts)).entries
    delta_q = delta_from_box(LatticeSimplex(q_verts)).entries
    expected = tuple(poly_mul(delta_p, delta_q)) + (0,)
    assert delta_from_box(s).entries == expected
    assert sorted((p.point, p.degree) for p in box_points(s)) == brute_force_box_points(s)


def test_box_route_budget_is_enforced():
    s = hnf_cyclic_simplex([0, 0], 10**12)
    with pytest.raises(BudgetExceededError) as info:
        delta_from_box(s)
    assert info.value.needed == 10**12
    with pytest.raises(BudgetExceededError):
        box_points(section2_d3(), budget=1)
    assert len(box_points(section2_d3(), budget=2)) == 2
    assert delta_from_box(section2_d3(), budget=2).entries == (1, 0, 1, 0)


def test_box_route_refuses_on_the_volume_before_the_smith_normal_form(monkeypatch):
    def no_snf(m):
        raise AssertionError("the Smith normal form ran before the budget check")

    monkeypatch.setattr(engine, "smith_normal_form", no_snf)
    for s in (section2_d3(), construct_lemma_first(1), hnf_cyclic_simplex([3, 5, 0], 211)):
        volume = s.normalized_volume
        with pytest.raises(BudgetExceededError) as info:
            delta_from_box(s, budget=volume - 1)
        assert info.value.needed == volume
        with pytest.raises(BudgetExceededError):
            box_points(s, budget=volume - 1)


def test_delta_from_box_unit_simplex():
    assert delta_from_box(unit_simplex(3)).entries == (1, 0, 0, 0)


def test_delta_from_box_section2():
    assert delta_from_box(section2_d3()).entries == (1, 0, 1, 0)


def test_count_points_unit_triangle():
    assert count_points(unit_simplex(2), 2) == 6


def test_count_points_section2():
    s = section2_d3()
    assert count_points(s, 1) == 4
    assert count_points(s, 1, strict=True) == 0
    assert count_points(s, 0) == 1


def test_count_points_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        count_points(unit_simplex(3), 100, budget=1000)


def test_count_points_budget_edge():
    # The bounding box of 2 * conv(0, 2e_1, e_2) is 5 x 3 = 15 candidates.
    s = LatticeSimplex([[0, 0], [2, 0], [0, 1]])
    with pytest.raises(BudgetExceededError) as info:
        count_points(s, 2, budget=14)
    assert info.value.needed == 15
    assert count_points(s, 2, budget=15) == brute_force_counts(s, 2)[0] == 9


def random_count_cases():
    """Two seeded random simplices for each d <= N <= 3, coordinates in [-2, 2]."""
    rng = random.Random("count-oracle")
    cases = {}
    for d, ambient in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)] * 2:
        s = None
        while s is None:
            s = random_simplex([[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(d + 1)])
        cases[f"random{len(cases)}-d{d}-Z{ambient}"] = s
    return cases


COUNT_CASES = {
    "point-Z0": LatticeSimplex([[]]),
    "point-Z2": LatticeSimplex([[3, -2]]),
    "segment-Z3": LatticeSimplex([[1, -1, 0], [-1, 2, 1]]),
    "triangle-Z3": LatticeSimplex([[0, 0, 0], [2, 0, -1], [0, -2, 1]]),
    "triangle-negative": LatticeSimplex([[-1, -1], [1, -2], [0, 1]]),
    "section2-d3": section2_d3(),
    "tetrahedron-negative": LatticeSimplex([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 2]]),
    **random_count_cases(),
}


@pytest.mark.parametrize("name", COUNT_CASES)
def test_count_points_matches_brute_force(name):
    s = COUNT_CASES[name]
    if s.dim == s.ambient_dim:
        assert s.normalized_volume == math.prod(smith_normal_form(s.lifted_matrix()).diag)
    else:
        with pytest.raises(DimensionError):
            s.normalized_volume
    for n in range(4):
        closed, interior = brute_force_counts(s, n)
        assert count_points(s, n) == closed
        assert count_points(s, n, strict=True) == interior
        if s.dim == 0:
            assert closed == 1 and interior == (n > 0)


def test_delta_from_counts_unit_simplex():
    assert delta_from_counts([4, 10, 20], 3).entries == (1, 0, 0, 0)


def test_delta_from_counts_section2():
    s = section2_d3()
    counts = [count_points(s, n) for n in (1, 2, 3)]
    assert counts == [4, 11, 24]
    assert delta_from_counts(counts, 3).entries == (1, 0, 1, 0)


def test_delta_from_counts_reeve_type():
    s = LatticeSimplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 3]])
    counts = [count_points(s, n) for n in (1, 2, 3)]
    assert counts == [4, 12, 28]
    assert delta_from_counts(counts, 3).entries == (1, 0, 2, 0)
    assert delta_from_box(s).entries == (1, 0, 2, 0)


def test_delta_from_counts_rejects_non_ehrhart_sequence():
    with pytest.raises(InconsistentCountsError):
        delta_from_counts([4, 9, 20], 3)


def test_evaluate_ehrhart_unit_simplex():
    assert evaluate_ehrhart(DeltaVector((1, 0, 0, 0)), 5) == 56


def test_evaluate_ehrhart_section2():
    delta = DeltaVector((1, 0, 1, 0))
    assert evaluate_ehrhart(delta, 2) == 11
    assert evaluate_ehrhart(delta, -1) == 0


def test_evaluate_interior():
    assert evaluate_interior(DeltaVector((1, 0, 0, 0)), 4) == 1
    assert evaluate_interior(DeltaVector((1, 0, 1, 0)), 2) == 1
    assert evaluate_interior(DeltaVector((1, 1, 1)), 1) == 1


def test_interior_of_triangle_by_counting():
    s = LatticeSimplex([[0, 0], [2, 1], [1, 2]])
    assert count_points(s, 1, strict=True) == 1


def test_binomial_poly_negative_arguments():
    assert binomial_poly(-1, 3) == -1
    assert binomial_poly(2, 3) == 0
    assert binomial_poly(8, 3) == 56


def test_ehrhart_coefficients_section2():
    coeffs = ehrhart_coefficients(DeltaVector((1, 0, 1, 0)))
    d = len(coeffs) - 1
    for n in range(-3, 6):
        assert sum(c * n**i for i, c in enumerate(coeffs)) == evaluate_ehrhart(
            DeltaVector((1, 0, 1, 0)), n
        )
    assert coeffs[d] * 6 == 2  # leading coefficient = normalized volume / d!


def test_ehrhart_data_on_random_deltas():
    """The coefficients, the closed-form i(P, n) and i*(P, n) agree with one
    another: polynomial evaluation, reciprocity and the leading term."""
    rng = random.Random(20)
    for d in range(41):
        for _ in range(3):
            delta = DeltaVector((1,) + tuple(rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(d)))
            coeffs = ehrhart_coefficients(delta)
            assert len(coeffs) == d + 1
            for n in range(-d - 1, d + 2):
                assert sum(c * n**k for k, c in enumerate(coeffs)) == evaluate_ehrhart(delta, n)
            for n in range(1, d + 3):
                assert evaluate_interior(delta, n) == (-1) ** d * evaluate_ehrhart(delta, -n)
            assert coeffs[-1] * math.factorial(d) == delta.normalized_volume


def test_ehrhart_coefficients_section2_large_d():
    d = 201
    delta = DeltaVector(tuple(int(i in (0, (d + 1) // 2)) for i in range(d + 1)))
    coeffs = ehrhart_coefficients(delta)
    assert coeffs[0] == 1  # i(P, 0) = 1
    assert sum(coeffs) == 202  # i(P, 1) = d + 1 lattice points


@given(simplices)
@settings(max_examples=40, deadline=None)
def test_method_agreement_and_reciprocity(verts):
    s = random_simplex(verts)
    assume(s is not None and s.ambient_dim == s.dim)
    delta = delta_from_box(s)
    counts = [count_points(s, n) for n in range(1, s.dim + 1)]
    assert delta_from_counts(counts, s.dim).entries == delta.entries
    for n in range(1, 4):
        assert count_points(s, n, strict=True) == (-1) ** s.dim * evaluate_ehrhart(delta, -n)
    # Interior counts against the interior generating function of the box delta.
    for n in range(1, s.dim + 2):
        assert count_points(s, n, strict=True) == interior_series(delta, n)
    # Degree bound: top nonzero index + first interior dilate = d + 1.
    first_interior = next(n for n in range(1, s.dim + 2) if evaluate_interior(delta, n) > 0)
    top_index = max(i for i, e in enumerate(delta.entries) if e)
    assert top_index + first_interior == s.dim + 1
    # Boundary identities for delta_1 and delta_d.
    assert delta.entries[1] == counts[0] - (s.dim + 1)
    assert delta.entries[s.dim] == count_points(s, 1, strict=True)


def test_count_points_strictly_increasing():
    s = section2_d3()
    values = [count_points(s, n) for n in range(1, 5)]
    assert all(a < b for a, b in zip(values, values[1:]))
