"""The fraction-free elimination's views (column pivots with the last pivot,
column forms) and the Smith normal form against small oracles: cofactor
determinants and ranks, the tests' rational solver, the Gauss-Jordan
reference elimination and a reference SNF."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrhart.classifier import Verdict, enumerate_candidates
from ehrhart.errors import DimensionError, SingularMatrixError
from ehrhart.intlinalg import (
    ColumnForms,
    SnfDecomposition,
    column_forms,
    column_pivots,
    smith_normal_form,
)
from ehrhart.realizer import realize
from ehrhart.simplex import unit_simplex
from elimination_reference import reference_column_forms, reference_column_pivots
from matrices import dense, lifted_dense, sparse, sparse_rows
from rational_oracle import require_square, solve_rational

# Edge matrices of the two volume constructions (vertex rows with v_0 = 0).
SECTION2_D3 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
LEMMA31_K1 = [
    [1, 1, 1, 0, 0],
    [0, 1, 1, 1, 0],
    [0, 0, 1, 1, 1],
    [1, 0, 0, 1, 1],
    [1, 1, 0, 0, 1],
]
LIFTED_S2_D3 = [[0, 0, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


# The package takes sparse rows; the tests write their matrices dense.
def pivots_of(m):
    return column_pivots(sparse_rows(m), len(m[0]) if m else 0)


def forms_of(m):
    return column_forms(sparse_rows(m), len(m[0]) if m else 0)


def snf_of(m):
    return smith_normal_form(sparse_rows(m))


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def cofactor_det(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)

# Mostly zeros, so the elimination often finds its pivots in rows out of order.
sparse_entry = st.tuples(st.integers(0, 3), st.integers(-5, 5)).map(lambda t: t[1] if t[0] == 0 else 0)
sparse_matrix = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(sparse_entry, min_size=n, max_size=n), min_size=n, max_size=n)
)


# The determinant tests read |det| off ``column_pivots``: a square matrix has
# full column rank exactly when det != 0, and then the last pivot is +-det.


def test_determinant_identity():
    assert pivots_of(identity(5)) == ((0, 1, 2, 3, 4), 1)


def test_determinant_empty_matrix_is_one():
    assert pivots_of([]) == ((), 1)


def test_determinant_section2_edge_matrix():
    pivots, last = pivots_of(SECTION2_D3)
    assert len(pivots) == 3 and abs(last) == 2


def test_determinant_lemma31_edge_matrix():
    pivots, last = pivots_of(LEMMA31_K1)
    assert len(pivots) == 5 and abs(last) == 3


@given(st.one_of(small_matrix, sparse_matrix))
@settings(max_examples=300, deadline=None)
@example([[0, 1], [1, 0]])
@example([[0, 0, 2], [3, 0, 0], [0, 5, 0]])
@example([[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]])
def test_determinant_matches_cofactor_expansion(rows):
    pivots, last = pivots_of(rows)
    det = cofactor_det(rows)
    assert (len(pivots) == len(rows)) == (det != 0)
    if det != 0:
        assert abs(last) == abs(det)


def test_snf_rejects_non_square():
    with pytest.raises(DimensionError):
        snf_of([[1, 2, 3], [4, 5, 6]])
    # Sparse rows have no length: a column outside 0..n-1 is what fails.
    with pytest.raises(DimensionError):
        smith_normal_form([{0: 1}, {0: 3, 2: 1}])
    with pytest.raises(DimensionError):
        smith_normal_form([{-1: 1}])


def test_snf_normalizes_diagonal_divisibility():
    snf = snf_of([[2, 0], [0, 3]])
    assert snf.diag == (1, 6)


def test_snf_identity():
    snf = snf_of(identity(4))
    assert snf.diag == (1, 1, 1, 1)


def test_snf_lifted_section2_matrix():
    # |det| = 2, and the only abelian group of order 2 is Z/2, so the
    # invariant factors are forced.
    pivots, last = pivots_of(LIFTED_S2_D3)
    assert len(pivots) == 4 and abs(last) == 2
    snf = snf_of(LIFTED_S2_D3)
    assert snf.diag == (1, 1, 1, 2)


def reference_smith_normal_form(m):
    """``smith_normal_form``'s reference, on dense rows: every step scans
    the whole remaining submatrix for its first entry of least magnitude and
    runs the column operations and the divisibility pass on every pivot,
    units included, where ``smith_normal_form`` ends a unit pivot's slot
    after its row operations.  ``left`` is returned in the same sparse rows
    ``{column: value}``."""
    n = require_square(m, "smith_normal_form")
    a = [list(row) for row in m]
    left = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        # row[dst] += f * row[src]
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + f * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    for t in range(n):
        while True:
            # Move a nonzero entry of smallest magnitude to the pivot slot.
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            piv = a[t][t]
            done = True
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // piv
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        done = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // piv
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        done = False
            if not done:
                continue
            # Pivot must divide every remaining entry; if not, fold the
            # offending row in and restart the reduction at this slot.
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < n and a[t][t] < 0:
            negate_row(t)

    return SnfDecomposition(left=[sparse(row) for row in left], diag=tuple(a[i][i] for i in range(n)))


def check_snf(m):
    """U M = D W for some unimodular W, which with U unimodular is the same
    as U M V = D for a unimodular V: U has determinant +-1, row i of U M is
    D_i times a row Q_i (zero when D_i = 0), and the rows Q_i with D_i != 0
    extend to a unimodular matrix, i.e. their maximal minors have gcd 1."""
    snf = snf_of(m)
    n = len(m)
    d = snf.diag
    left = dense(snf.left, n)
    assert all(0 not in row.values() for row in snf.left)
    assert len(d) == n and abs(cofactor_det(left)) == 1
    nonzero = [x for x in d if x != 0]
    assert all(x >= 0 for x in d)
    assert list(d) == nonzero + [0] * (n - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    um = matmul(left, m)
    for di, row in zip(d, um):
        if di == 0:
            assert row == [0] * n
        else:
            assert all(x % di == 0 for x in row)
    quotient = [[x // di for x in row] for di, row in zip(d, um) if di != 0]
    if len(quotient) == n:
        assert abs(cofactor_det(quotient)) == 1
    else:
        minors = [
            cofactor_det([[row[j] for j in cols] for row in quotient])
            for cols in itertools.combinations(range(n), len(quotient))
        ]
        assert math.gcd(*minors) == 1
    pivots, last = pivots_of(m)
    assert math.prod(d) == abs(cofactor_det(m)) == (abs(last) if len(pivots) == n else 0)


# A row-sum row and a zero column make every matrix here singular.
singular_matrix = small_matrix.map(lambda rows: [r + [0] for r in rows + [[sum(c) for c in zip(*rows)]]])


# Mostly zeros and units of both signs, so most pivots are units and many
# are found after a row or column swap.
unit_entry = st.sampled_from([0, 0, 0, 1, -1, -1, 2, -3])
unit_rich_matrix = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(unit_entry, min_size=n, max_size=n), min_size=n, max_size=n)
)
# No unit entries at all: any unit pivot appears only after a reduction step.
unitless_entry = st.sampled_from([0, 2, -2, 3, -3, 4, 5, -5, 6, 9])
unitless_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(unitless_entry, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(st.one_of(small_matrix, singular_matrix, unit_rich_matrix, unitless_matrix))
@settings(max_examples=300, deadline=None)
@example([[0, 0], [0, 0]])
@example([[2, 4], [1, 2]])
@example([[6, 4, 0], [4, 6, 0], [0, 0, 0]])
@example([[0, -1, 3], [-1, 0, 2], [5, 7, 0]])
@example([[2, 3], [4, 5]])
def test_snf_invariants_hold(rows):
    check_snf(rows)


@given(st.one_of(small_matrix, sparse_matrix, singular_matrix, unit_rich_matrix, unitless_matrix))
@settings(max_examples=600, deadline=None)
@example([[-1]])
@example([[0, -1], [-1, 0]])
@example([[0, 2, -1], [3, -1, 0], [-1, 4, 4]])
@example([[2, 3], [4, 5]])
@example([[6, 10, 15], [10, 15, 6], [15, 6, 10]])
@example([[4, 6, 0], [6, 9, 2], [0, 2, 3]])
# A unit pivot that appears only after a non-unit round in the same slot:
# after the row and column operations of the pivot 2, and after the fold of
# the row that holds 3.
@example([[2, 3], [3, 5]])
@example([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
def test_snf_matches_the_reference(rows):
    assert snf_of(rows) == reference_smith_normal_form(rows)


@pytest.mark.parametrize("d", range(3, 41))
def test_snf_matches_the_reference_on_every_witness(d):
    for cand, decision in enumerate_candidates(d):
        if decision.verdict is Verdict.YES:
            s = realize(cand)[0]
            assert smith_normal_form(s.lifted_matrix()) == reference_smith_normal_form(lifted_dense(s))


def scramble(vertices, rng):
    """A seeded unimodular map (2d signed row additions) and a translation."""
    d = len(vertices[0])
    u = identity(d)
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        f = rng.choice((-1, 1))
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    shift = [rng.randint(-5, 5) for _ in range(d)]
    return [[sum(a * x for a, x in zip(row, v)) + t for row, t in zip(u, shift)] for v in vertices]


def test_snf_matches_the_reference_on_scrambled_cyclic_simplices_and_joins():
    rng = random.Random(15)

    def cyclic(d, volume):
        # conv(0, e_1, ..., e_(d-1), (b, volume)): a cyclic box group of that order.
        b = [rng.randrange(volume) for _ in range(d - 1)]
        return [[0] * d] + identity(d)[: d - 1] + [b + [volume]]

    for k in range(150):
        if k % 3:
            volume = rng.randint(2, 400)
            verts = cyclic(rng.randint(2, 6), volume)
        else:
            # The free join conv(P x 0 x 0, 0 x Q x 1) has box group Z/vp x Z/vq: two
            # invariant factors > 1 when gcd(vp, vq) > 1.
            a, vp, vq = rng.randint(1, 3), rng.randint(2, 20), rng.randint(2, 20)
            p, q = cyclic(a, vp), cyclic(rng.randint(1, 5 - a), vq)
            verts = [v + [0] * len(q[0]) + [0] for v in p] + [[0] * a + w + [1] for w in q]
            volume = vp * vq
        if rng.random() < 0.5:
            verts = scramble(verts, rng)
        m = [v + [1] for v in verts]
        snf = snf_of(m)
        assert snf == reference_smith_normal_form(m)
        assert math.prod(snf.diag) == volume


def test_snf_of_the_unit_simplex_at_d300():
    m = unit_simplex(300).lifted_matrix()
    assert smith_normal_form(m).diag == (1,) * 301


def test_snf_breaks_pivot_ties_by_position_not_by_dict_order():
    # Slot 0 takes the unit in row 2, column 2, and swaps columns 0 and 2.
    # At slot 1 the row (-2, 2, 0) holds two entries of least magnitude:
    # column 0, now at position 2 but first in its row's dict, and column 1
    # at position 1.  The pivot is the one at the lesser position.
    m = [[-2, 2, 0], [0, 0, 0], [0, 0, 1]]
    snf = snf_of(m)
    assert snf == reference_smith_normal_form(m)
    assert snf == SnfDecomposition(left=[{2: 1}, {0: 1}, {1: 1}], diag=(1, 2, 0))


def sum_candidate(d, *extras):
    """delta = (1, 0, ..., 0) with one more 1 at each of the given indices."""
    entries = [1] + [0] * d
    for i in extras:
        entries[i] += 1
    return entries


@pytest.mark.parametrize("extras", [(100,), (67, 133)], ids=["sum2", "sum3"])
def test_snf_matches_the_reference_on_witnesses_at_d200(extras):
    s = realize(sum_candidate(200, *extras))[0]
    assert smith_normal_form(s.lifted_matrix()) == reference_smith_normal_form(lifted_dense(s))


def test_snf_of_the_sum3_witness_at_d1404():
    # realize re-verifies the witness through the box route, SNF included.
    s, plan = realize(sum_candidate(1404, 468, 936))
    assert plan.parameters["volume"] == 3 == s.normalized_volume
    snf = smith_normal_form(s.lifted_matrix())
    assert snf.diag == (1,) * 1404 + (3,)
    assert math.prod(snf.diag) == s.normalized_volume


def test_solve_identity():
    assert solve_rational(identity(2), [3, 4]) == (3, 4)


def test_solve_scaling():
    x = solve_rational([[2, 0], [0, 2]], [1, 1])
    assert x == (Fraction(1, 2), Fraction(1, 2))


def test_solve_half_sum_point():
    # Barycentric weights of the half-sum of the lifted section-2 vertices.
    back = transpose(LIFTED_S2_D3)
    x = solve_rational(back, [1, 1, 1, 2])
    assert x == (Fraction(1, 2),) * 4
    assert [sum(a * b for a, b in zip(row, x)) for row in back] == [1, 1, 1, 2]


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_rational([[1, 2], [2, 4]], [1, 1])


@given(small_matrix, st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=100)
def test_solve_round_trip(rows, xs):
    if cofactor_det(rows) == 0:
        return
    x = xs[: len(rows)]
    b = [sum(a * c for a, c in zip(row, x)) for row in rows]
    assert solve_rational(rows, b) == tuple(x)



def rank(columns, height):
    """Independent oracle: the largest nonsingular square minor, by cofactors."""
    for size in range(min(len(columns), height), 0, -1):
        for rows in itertools.combinations(range(height), size):
            for cols in itertools.combinations(columns, size):
                if cofactor_det([[c[i] for c in cols] for i in rows]):
                    return size
    return 0


tall_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, m).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=m, max_size=m
        )
    )
)


def test_column_forms_section2_weights():
    cf = forms_of(transpose(LIFTED_S2_D3))
    assert cf.den == 2 and cf.equalities == ()
    # (1, 1, 1, 2) is the half-sum of the lifted vertices.
    assert [sum(a * b for a, b in zip(f, (1, 1, 1, 2))) for f in cf.forms] == [1, 1, 1, 1]


def test_column_pivots_skip_dependent_columns():
    assert pivots_of([[1, 2, 0], [1, 2, 1], [0, 0, 3]]) == ((0, 2), 1)
    assert pivots_of([[0, 0], [0, 0]]) == ((), 1)
    for rows in (SECTION2_D3, LEMMA31_K1, LIFTED_S2_D3, transpose(LIFTED_S2_D3)):
        pivots, last = pivots_of(rows)
        assert pivots == tuple(range(len(rows))) and abs(last) == abs(cofactor_det(rows))
    with pytest.raises(SingularMatrixError):
        forms_of([[1, 2, 0], [1, 2, 1], [0, 0, 3]])


@given(small_matrix, st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=100)
def test_column_forms_match_solve_rational(rows, bs):
    det = cofactor_det(rows)
    pivots, last = pivots_of(rows)
    if det == 0:
        assert len(pivots) < len(rows)
        return
    assert len(pivots) == len(rows) and last in (det, -det)
    cf = forms_of(rows)
    b = bs[: len(rows)]
    assert cf.den == abs(det) and cf.equalities == ()
    x = solve_rational(rows, b)
    assert tuple(Fraction(sum(a * c for a, c in zip(f, b)), cf.den) for f in cf.forms) == x


@given(tall_matrix, st.lists(st.integers(-3, 3), min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_column_forms_cut_out_the_column_space(rows, ys):
    m, k = len(rows), len(rows[0])
    columns = [[r[j] for r in rows] for j in range(k)]
    greedy = []
    for j in range(k):
        if rank([columns[c] for c in greedy + [j]], m) == len(greedy) + 1:
            greedy.append(j)
    pivots, last = pivots_of(rows)
    assert pivots == tuple(greedy)
    if len(greedy) < k:
        return
    if m == k:
        assert abs(last) == abs(cofactor_det(rows))
    cf = forms_of(rows)
    assert cf.den > 0 and len(cf.equalities) == m - k
    y = ys[:k]
    x = [sum(r[j] * y[j] for j in range(k)) for r in rows]
    assert [sum(a * b for a, b in zip(f, x)) for f in cf.forms] == [cf.den * v for v in y]
    assert all(sum(a * b for a, b in zip(e, x)) == 0 for e in cf.equalities)
    z = ys[k : k + m]
    inside = rank(columns + [z], m) == k
    assert inside == all(sum(a * b for a, b in zip(e, z)) == 0 for e in cf.equalities)


# Any shape up to 7 x 7 with planted dependence: up to three rows or columns
# that are integer combinations of two others, inserted anywhere.  Both
# coefficients are 0 about one time in nine, which plants a zero row or
# column.
coefficient = st.sampled_from([0, 0, 1, -1, 2, -3])


@st.composite
def planted_matrix(draw):
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 3))):
        by_column = draw(st.booleans())
        if by_column:
            rows = transpose(rows)
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        f, g = draw(coefficient), draw(coefficient)
        rows.insert(draw(st.integers(0, len(rows))), [f * x + g * y for x, y in zip(rows[i], rows[j])])
        if by_column:
            rows = transpose(rows)
    return rows


@given(st.one_of(planted_matrix(), sparse_matrix, tall_matrix))
@settings(max_examples=400, deadline=None)
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 2, 4], [0, 0, 0], [0, 3, 6]])
@example([[2, 1, 0], [0, 1, 1], [0, 0, 1]])
@example([[1, 1], [1, 2]])
@example([[3, 1, 2, 0], [0, 2, 0, 5], [6, 2, 4, 1]])
def test_column_pivots_match_the_gauss_jordan_reference(rows):
    # The free-row sweep must give exactly the pivots and the last pivot of
    # the Gauss-Jordan sweep, rank-deficient and non-square matrices included.
    pivots, last = pivots_of(rows)
    assert (pivots, last) == reference_column_pivots(rows)
    if len(pivots) == len(rows[0]):
        assert forms_of(rows) == ColumnForms(*reference_column_forms(rows))
