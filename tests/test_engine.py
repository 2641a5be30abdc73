"""Engine tests: box enumeration against a brute-force oracle, counting,
binomial transforms, reciprocity."""

import gc
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from box_reference import reference_box_points, reference_delta
from count_reference import reference_count
from ehrhart import engine
from ehrhart.classifier import Verdict, enumerate_candidates
from ehrhart.cli import main
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
    InternalInconsistencyError,
    SingularMatrixError,
)
from ehrhart.intlinalg import SnfDecomposition, smith_normal_form
from ehrhart.realizer import construct_lemma_first, construct_section2, realize
from ehrhart.simplex import LatticeSimplex, dump_simplex, unit_simplex
from matrices import lifted_dense
from rational_oracle import solve_rational


def brute_force_box_points(s):
    """Independent oracle: scan the bounding box of the half-open
    parallelepiped and keep points whose weights all land in [0, 1).

    The weights are r = z (m^T)^-1; the inverse comes from ``solve_rational``
    on the unit vectors, scaled to integers by a common denominator."""
    m = lifted_dense(s)
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


def assert_box_route_matches_the_reference(s):
    pts = box_points(s)
    assert pts == reference_box_points(s)
    assert delta_from_box(s).entries == reference_delta(s)
    return pts


def test_box_points_unit_simplex():
    pts = assert_box_route_matches_the_reference(unit_simplex(4))
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
    pts = assert_box_route_matches_the_reference(s)
    assert sorted((p.point, p.degree) for p in pts) == brute_force_box_points(s)
    assert pts == sorted(pts, key=lambda p: (p.degree, p.point))
    m = lifted_dense(s)
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
    assert sorted((p.point, p.degree) for p in assert_box_route_matches_the_reference(s)) == brute_force_box_points(s)


# Joins beyond test_delta_from_box_of_join_with_two_invariant_factors.
JOINS = {
    "Z4xZ12": (join(hnf_cyclic_simplex([1], 4).vertices, hnf_cyclic_simplex([5], 12).vertices), 2),
    "Z2xZ2xZ2": (join(join([[0], [2]], [[0], [2]]).vertices, [[0], [2]]), 3),
    "Z2xZ4xZ8": (join(join([[0], [2]], [[0], [4]]).vertices, hnf_cyclic_simplex([3], 8).vertices), 3),
    "Z3xZ3xZ9": (join(join([[0, 0], [2, 1], [1, 2]], [[0], [3]]).vertices, [[0], [9]]), 3),
}


@pytest.mark.parametrize("name", JOINS)
def test_box_route_matches_the_reference_walk_on_joins(name):
    s, levels = JOINS[name]
    assert sum(x > 1 for x in smith_normal_form(s.lifted_matrix()).diag) == levels
    assert_box_route_matches_the_reference(s)


def all_equal_generator_simplex(dmax, sign):
    """A d = dmax - 1 simplex whose box group is generated by the weights
    (1, ..., 1) / dmax; the reflected copy (sign -1) gets the generator
    (dmax - 1, ..., dmax - 1) / dmax from the Smith normal form."""
    d = dmax - 1
    verts = [[0] * d] + [[int(j == i) for j in range(d)] for i in range(d - 1)] + [[dmax - 1] * (d - 1) + [dmax]]
    return LatticeSimplex([[sign * x for x in v] for v in verts])


# D_max = 2^1 - 1 = 1, the trivial group, is test_box_points_unit_simplex.
FIELD_EDGES = sorted({e for k in range(1, 7) for e in (2**k - 1, 2**k, 2**k + 1)} - {1})


@pytest.mark.parametrize("dmax", FIELD_EDGES)
def test_box_route_matches_the_reference_walk_at_field_width_edges(dmax):
    """D_max at and next to powers of two, where w = D_max.bit_length() + 1
    changes: every field of the packed vector reaches D_max at once."""
    for sign, top in ((1, 1), (-1, dmax - 1)):
        s = all_equal_generator_simplex(dmax, sign)
        snf = smith_normal_form(s.lifted_matrix())
        assert snf.diag[-1] == dmax and math.prod(snf.diag) == dmax
        assert set(snf.left[-1].get(j, 0) % dmax for j in range(dmax)) == {top}
        pts = assert_box_route_matches_the_reference(s)
        assert len(pts) == dmax
        assert any(set(p.coefficients) == {Fraction(dmax - 1, dmax)} for p in pts)
    # Two cyclic simplices with random generators and the same D_max.
    rng = random.Random(f"edges/{dmax}")
    for d in (2, 5):
        assert_box_route_matches_the_reference(hnf_cyclic_simplex([rng.randrange(dmax) for _ in range(d - 1)], dmax))


@pytest.mark.parametrize("d", range(3, 41))
def test_box_route_matches_the_reference_walk_on_every_witness(d):
    for cand, decision in enumerate_candidates(d):
        if decision.verdict is Verdict.YES:
            assert_box_route_matches_the_reference(realize(cand)[0])


def test_box_route_matches_the_reference_walk_at_d40_volume_100003():
    rng = random.Random("large")
    s = hnf_cyclic_simplex([rng.randrange(100_003) for _ in range(39)], 100_003)
    expected = reference_delta(s)
    assert delta_from_box(s).entries == expected
    assert sum(expected) == 100_003


@pytest.mark.parametrize(
    "s",
    [hnf_cyclic_simplex([3, 5, 0], 211), JOINS["Z4xZ12"][0]],
    ids=["cyclic", "two-factor-join"],
)
def test_box_route_leaves_no_reference_cycle(s):
    gc.collect()
    gc.disable()
    try:
        delta_from_box(s)
        after_delta = gc.collect()
        box_points(s)
        after_points = gc.collect()
    finally:
        gc.enable()
    assert (after_delta, after_points) == (0, 0)


def wrong_product(snf):
    return SnfDecomposition(snf.left, snf.diag[:-1] + (2 * snf.diag[-1],))


def generator_off_the_box(snf):
    """The first row with an invariant factor > 1, plus the first unit vector:
    the last column of the lifted matrix is all ones, so the generator's
    weights no longer sum to an integer."""
    i = next(i for i, x in enumerate(snf.diag) if x > 1)
    left = [dict(row) for row in snf.left]
    left[i][0] = left[i].get(0, 0) + 1
    return SnfDecomposition(left, snf.diag)


def orders_off_the_generators(snf):
    """Z/6 read as Z/2 x Z/3 with both generators from the order-6 row: the
    factors still multiply to the volume and the generators are box points
    mod 3, but two steps of the order-2 level do not bring it back."""
    assert snf.diag[-2:] == (1, 6)
    left = [dict(row) for row in snf.left]
    left[-2] = dict(left[-1])
    return SnfDecomposition(left, snf.diag[:-2] + (2, 3))


# Each tampering is caught by its own check, not by a later one: a generator
# off the box would also fail the walk's integrality check.
CAUGHT_BY = {
    wrong_product: "do not multiply to",
    generator_off_the_box: "is not a box point",
    orders_off_the_generators: "is not back at its start",
}


@pytest.mark.parametrize("tamper", CAUGHT_BY)
def test_box_route_consistency_checks(monkeypatch, tmp_path, capsys, tamper):
    s = hnf_cyclic_simplex([1, 2], 6)
    assert delta_from_box(s).entries == reference_delta(s)
    monkeypatch.setattr(engine, "smith_normal_form", lambda m: tamper(smith_normal_form(m)))
    with pytest.raises(InternalInconsistencyError, match=CAUGHT_BY[tamper]):
        delta_from_box(s)
    with pytest.raises(InternalInconsistencyError, match=CAUGHT_BY[tamper]):
        box_points(s)
    path = tmp_path / "cyclic.json"
    dump_simplex(s, str(path))
    capsys.readouterr()
    assert main(["delta", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out.startswith("status internal-inconsistency\n")
    assert "Traceback" not in captured.out + captured.err


def test_delta_from_box_of_the_sum3_witness_at_d1404_peaks_below_25_mib():
    # The lifted matrix is read as sparse rows, 4,212 nonzeros: the box route
    # peaks below 1 MiB, where one dense (d + 1)^2 matrix, a dense left
    # transform or a transpose would each take about 17 MiB.
    s = realize([1] + [int(i in (468, 936)) for i in range(1, 1405)])[0]
    tracemalloc.start()
    try:
        delta = delta_from_box(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta.entries == (1,) + tuple(int(i in (468, 936)) for i in range(1, 1405))
    assert peak <= 2 * 2**20


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


def test_bounding_box_of_the_d702_witness_holds_one_column_at_a_time():
    # The charge of a dilate reads the vertices a coordinate at a time: a
    # transpose of the 703 x 702 vertex tuples would take about 4 MiB.
    s = realize([1] + [int(i in (234, 468)) for i in range(1, 703)])[0]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as info:
            engine.bounding_box(s, 1, engine.DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.needed > 3**234 and peak <= 2**17


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


# Simplices with d <= N <= 4 and coordinates in [-3, 3].  Those with d < N
# have equality forms, and small coordinates often give a form a zero slope
# along the last coordinate.
count_simplices = st.integers(0, 4).flatmap(
    lambda ambient: st.integers(0, ambient).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-3, 3), min_size=ambient, max_size=ambient), min_size=d + 1, max_size=d + 1
        )
    )
)


@given(count_simplices, st.integers(0, 3))
@example([[]], 0)  # the point of Z^0
@example([[]], 2)
@example([[0], [3]], 2)  # a segment in Z^1: one line, with no coordinate to step
@example([[3, -2]], 1)  # a point in Z^2: every weight form flat
@example([[1, -1, 0], [-1, 2, 1]], 3)  # a segment in Z^3: equalities with and without a slope
@example([[0, 0], [1, 0], [0, 1]], 3)  # the form x_1 is flat along x_2
@example([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 2]], 2)
@settings(max_examples=300, deadline=None)
def test_count_points_matches_the_reference_scan(verts, n):
    s = random_simplex(verts)
    assume(s is not None)
    for strict in (False, True):
        assert count_points(s, n, strict) == reference_count(s, n, strict)


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


def forbid_any_work(monkeypatch):
    """Make the Smith normal form and the counting scan fail if called."""

    def forbidden(*args):
        raise AssertionError("a route ran before every budget was charged")

    for name in ("smith_normal_form", "_scan", "_line_count"):
        monkeypatch.setattr(engine, name, forbidden)


@pytest.mark.parametrize("method", ["box", "counts", "both"])
def test_delta_vector_by_every_method(method):
    assert engine.delta_vector(section2_d3(), method).entries == (1, 0, 1, 0)


def test_delta_vector_refuses_an_unknown_method(monkeypatch):
    forbid_any_work(monkeypatch)
    with pytest.raises(ValueError, match="unknown method 'hnf'"):
        engine.delta_vector(section2_d3(), "hnf", budget=0)


def test_delta_vector_charges_the_volume_first_before_any_work(monkeypatch):
    # Normalized volume 2 and a box of 8 points at n = 1, both over budget 1:
    # the box route's charge comes first, as its route does.
    forbid_any_work(monkeypatch)
    with pytest.raises(BudgetExceededError) as info:
        engine.delta_vector(section2_d3(), "both", budget=1)
    assert (info.value.needed, info.value.budget) == (2, 1)


@pytest.mark.parametrize("method", ["both", "counts"])
@pytest.mark.parametrize("budget, needed", [(7, 8), (26, 27), (63, 64)])
def test_delta_vector_names_the_first_dilate_over_budget_before_any_work(monkeypatch, method, budget, needed):
    # The boxes of the section-2 witness at n = 1, 2, 3 hold 8, 27 and 64
    # points, and its normalized volume is 2.
    forbid_any_work(monkeypatch)
    with pytest.raises(BudgetExceededError) as info:
        engine.delta_vector(section2_d3(), method, budget)
    assert (info.value.needed, info.value.budget) == (needed, budget)


def test_delta_vector_refuses_routes_that_disagree(monkeypatch):
    monkeypatch.setattr(engine, "delta_from_counts", lambda counts, d: DeltaVector((1,) + (0,) * d))
    with pytest.raises(InternalInconsistencyError) as info:
        engine.delta_vector(section2_d3(), "both")
    assert str(info.value) == "box method gave (1, 0, 1, 0), counts gave (1, 0, 0, 0)"


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
