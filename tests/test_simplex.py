"""Simplex validation, membership, pyramid lifting, and file round trips."""

import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from ehrhart import simplex as simplex_module
from ehrhart.classifier import Verdict, enumerate_candidates
from ehrhart.engine import box_points, count_points, delta_from_box, delta_from_counts
from ehrhart.errors import DegenerateSimplexError, DimensionError
from ehrhart.intlinalg import smith_normal_form
from ehrhart.realizer import construct_lemma_second, construct_section2, realize
from ehrhart.simplex import LatticeSimplex, dump_simplex, load_simplex, unit_simplex
from elimination_reference import reference_column_pivots


def section2_d3():
    return LatticeSimplex([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]])


def test_new_simplex_unit_triangle():
    s = LatticeSimplex([[0, 0], [1, 0], [0, 1]])
    assert s.dim == 2 and s.ambient_dim == 2


def test_new_simplex_collinear_reports_index():
    with pytest.raises(DegenerateSimplexError) as exc:
        LatticeSimplex([[0, 0], [1, 1], [2, 2]])
    assert exc.value.index == 2


@pytest.mark.parametrize(
    "verts,index",
    [
        ([[0, 0], [0, 0]], 1),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], 3),
        ([[1, 2, 3], [2, 3, 4], [3, 4, 5]], 2),
        ([[0], [1], [5]], 2),
        ([[0, 0], [1, 1], [2, 2], [3, 3]], 2),
        ([[4], [4], [4]], 1),
    ],
)
def test_new_simplex_reports_first_dependent_vertex(verts, index):
    with pytest.raises(DegenerateSimplexError) as exc:
        LatticeSimplex(verts)
    assert exc.value.index == index


@pytest.mark.parametrize(
    "vertices", [[[0.5, 0], [2, 0], [0, 3]], [[0, 0], [2.9, 0], [0, 3]], [[0, 0], [2, 0], ["0", "3"]]]
)
def test_new_simplex_refuses_non_integer_entries(vertices):
    # int() would truncate 0.5 and 2.9 and parse '3' into a valid triangle.
    with pytest.raises(TypeError):
        LatticeSimplex(vertices)


def reference_outcome(vertices):
    """("volume", V) or ("index", i) for these vertices, from the
    Gauss-Jordan reference elimination of the columns (v_j, 1)."""
    rows = [list(col) for col in zip(*vertices)] + [[1] * len(vertices)]
    pivots, last = reference_column_pivots(rows)
    if len(pivots) == len(vertices):
        return "volume", abs(last)
    return "index", next(i for i, c in enumerate(pivots + (len(vertices),)) if i != c)


def outcome(vertices):
    try:
        return "volume", LatticeSimplex(vertices).normalized_volume
    except DegenerateSimplexError as exc:
        return "index", exc.index


@pytest.mark.parametrize("d", range(3, 41))
def test_construction_matches_the_reference_on_every_witness(d):
    # Every realize witness keeps the reference's volume, and a copy with one
    # vertex moved into the affine span of three others (v_a + v_b - v_c,
    # seeded) fails at the reference's first dependent vertex.
    rng = random.Random(d)
    for cand, decision in enumerate_candidates(d):
        if decision.verdict is not Verdict.YES:
            continue
        vertices = [list(v) for v in realize(cand)[0].vertices]
        assert outcome(vertices) == reference_outcome(vertices) == ("volume", sum(cand))
        j = rng.randrange(d + 1)
        a, b, c = rng.sample([i for i in range(d + 1) if i != j], 3)
        vertices[j] = [x + y - z for x, y, z in zip(vertices[a], vertices[b], vertices[c])]
        expected = reference_outcome(vertices)
        assert expected[0] == "index" and outcome(vertices) == expected


def test_new_simplex_section2_vertices():
    assert section2_d3().dim == 3


def test_contains_vertex_closed_but_not_strict():
    s = LatticeSimplex([[0, 0], [1, 0], [0, 1]])
    assert s.contains((0, 0), 1, strict=False)
    assert not s.contains((0, 0), 1, strict=True)


def test_contains_interior_point_of_double_dilate():
    # (1,1,1) is the degree-2 parallelepiped point, hence interior to 2P.
    assert section2_d3().contains((1, 1, 1), 2, strict=True)


def test_barycentric_is_exact():
    assert section2_d3().barycentric((1, 1, 1), 2) == (Fraction(1, 2),) * 4
    assert section2_d3().barycentric((0, 0, 5), 1) == tuple(Fraction(x, 2) for x in (-3, -5, 5, 5))


def test_barycentric_outside_the_affine_span():
    # A segment in Z^3 whose dilates lie on the line through 0 and (1, 2, -1).
    s = LatticeSimplex([[0, 0, 0], [1, 2, -1]])
    assert s.barycentric((2, 4, -2), 3) == (1, 2)
    assert s.barycentric((2, 4, -1), 3) is None
    assert s.contains((1, 2, -1), 2, strict=True)
    assert not s.contains((1, 2, 0), 2)


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionError):
        section2_d3().contains((0, 0), 1)


def test_contains_every_vertex():
    for s in (unit_simplex(3), section2_d3()):
        for v in s.vertices:
            assert s.contains(v, 1, strict=False)
            assert not s.contains(v, 1, strict=True)


def test_pyramid_over_unit_segment():
    p = LatticeSimplex([[0], [1]]).pyramid()
    assert delta_from_box(p).entries == (1, 0, 0)


def test_pyramid_over_volume2_segment():
    p = LatticeSimplex([[0], [2]]).pyramid()
    assert delta_from_box(p).entries == (1, 1, 0)


def test_pyramid_over_triangle_111():
    p = LatticeSimplex([[0, 0], [2, 1], [1, 2]]).pyramid()
    assert delta_from_box(p).entries == (1, 1, 1, 0)


def test_pyramid_preserves_normalized_volume():
    s = section2_d3()
    assert s.pyramid().normalized_volume == s.normalized_volume == 2


def test_lifted_matrix_unit_triangle():
    m = list(unit_simplex(2).lifted_matrix())
    assert m == [{2: 1}, {0: 1, 2: 1}, {1: 1, 2: 1}]
    assert math.prod(smith_normal_form(m).diag) == 1


def test_lifted_matrix_section2_d3():
    assert math.prod(smith_normal_form(section2_d3().lifted_matrix()).diag) == 2


def test_lifted_matrix_lemma_second_first_step():
    assert math.prod(smith_normal_form(construct_lemma_second(0, 1).lifted_matrix()).diag) == 3


def test_lifted_matrix_rejects_non_full_dimensional():
    s = LatticeSimplex([[0, 0], [1, 0]])
    with pytest.raises(DimensionError):
        s.lifted_matrix()
    segment = LatticeSimplex([[0, 0], [1, 1]])
    with pytest.raises(DimensionError) as lifted:
        segment.lifted_matrix()
    with pytest.raises(DimensionError) as volume:
        segment.normalized_volume
    assert str(volume.value) == str(lifted.value)


def test_one_elimination_per_simplex_and_forms_built_once(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(simplex_module, name)

        def wrapper(rows, width):
            calls[name] += 1
            return original(rows, width)

        return wrapper

    for name in ("column_pivots", "column_forms"):
        monkeypatch.setattr(simplex_module, name, counted(name))
    s = LatticeSimplex([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert s.normalized_volume == 2
    assert delta_from_box(s).entries == (1, 0, 1, 0)
    assert len(box_points(s)) == 2
    counts = [count_points(s, n) for n in range(1, s.dim + 1)]
    assert delta_from_counts(counts, s.dim).entries == (1, 0, 1, 0)
    assert s.contains((1, 1, 1), 2, strict=True)
    assert not s.contains((0, 0, 5), 1)
    assert s.contains((0, 0, 0), 1) and not s.contains((0, 0, 0), 1, strict=True)
    assert s.barycentric((1, 1, 1), 2) == (Fraction(1, 2),) * 4
    assert s.barycentric((0, 0, 5), 1) == tuple(Fraction(x, 2) for x in (-3, -5, 5, 5))
    assert calls == {"column_pivots": 1, "column_forms": 1}


def test_polytope_file_round_trip(tmp_path):
    s = construct_section2(5)
    path = tmp_path / "p.json"
    dump_simplex(s, str(path), plan="section2(d=5)")
    loaded = load_simplex(str(path))
    assert loaded == s
    doc = {"ambient_dim": 5, "vertices": [list(v) for v in s.vertices], "plan": "section2(d=5)"}
    text = path.read_text()
    assert text == json.dumps(doc) + "\n"
    # The same document as the indented layout that files had before.
    assert json.loads(text) == json.loads(json.dumps(doc, indent=2) + "\n")


@pytest.mark.parametrize("extras", [(351,), (234, 468)], ids=["sum2", "sum3"])
def test_dump_simplex_at_d702_allocates_a_tenth_of_the_vertex_tuples(extras, tmp_path):
    # The rows are written as they are read: a list copy of the vertices, or
    # an encoder that builds the document, would allocate as much again.
    s, plan = realize([1] + [int(i in extras) for i in range(1, 703)])
    tracemalloc.start()
    try:
        dump_simplex(s, str(tmp_path / "w.json"), plan=plan.describe())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tuples = sys.getsizeof(s.vertices) + sum(map(sys.getsizeof, s.vertices))
    assert peak <= 0.1 * tuples


def test_polytope_file_round_trips_big_integers(tmp_path):
    big = 2**80 + 7
    s = LatticeSimplex([[0], [big]])
    path = tmp_path / "big.json"
    dump_simplex(s, str(path))
    assert load_simplex(str(path)).vertices[1][0] == big
    assert "e" not in path.read_text().split('"vertices"')[1]


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ambient_dim": 2, "vertices": [[1, 0], [1]]}')
    with pytest.raises(DimensionError):
        load_simplex(str(path))


def test_load_rejects_collinear(tmp_path):
    path = tmp_path / "collinear.json"
    path.write_text('{"ambient_dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}')
    with pytest.raises(DegenerateSimplexError):
        load_simplex(str(path))


@pytest.mark.parametrize(
    "doc",
    [
        '{"ambient_dim": true, "vertices": [[0], [1]]}',
        '{"ambient_dim": 2, "vertices": [[0, 0], [true, 0], [0, 1]]}',
        '{"ambient_dim": 1, "vertices": [[false], [2]]}',
    ],
    ids=["ambient_dim", "coordinate-true", "coordinate-false"],
)
def test_load_rejects_json_booleans(tmp_path, doc):
    path = tmp_path / "bool.json"
    path.write_text(doc)
    with pytest.raises(DimensionError):
        load_simplex(str(path))
