"""Construction families and the cyclic realize witness, verified by recomputation."""

import sys
import tracemalloc

import pytest

from ehrhart import realizer
from ehrhart.classifier import Decision, Verdict, enumerate_candidates
from ehrhart.engine import DeltaVector, delta_from_box
from ehrhart.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    NotRealizableError,
    OutOfScopeError,
    ParameterError,
)
from ehrhart.realizer import (
    construct_lemma_first,
    construct_lemma_second,
    construct_section2,
    construct_section3_two,
    construct_segment,
    construct_triangle_111,
    realize,
)
from ehrhart.simplex import unit_simplex


@pytest.mark.parametrize(
    "d,expected_pos", [(3, 2), (5, 3), (7, 4)]
)
def test_section2_family(d, expected_pos):
    s = construct_section2(d)
    entries = delta_from_box(s).entries
    expected = tuple(1 if i in (0, expected_pos) else 0 for i in range(d + 1))
    assert entries == expected
    assert s.normalized_volume == 2


def test_section2_rejects_even_dimension():
    with pytest.raises(ParameterError):
        construct_section2(4)


@pytest.mark.parametrize("d", [3, 5])
def test_section3_two_family(d):
    s = construct_section3_two(d)
    entries = delta_from_box(s).entries
    expected = tuple(2 if i == (d + 1) // 2 else (1 if i == 0 else 0) for i in range(d + 1))
    assert entries == expected
    assert s.normalized_volume == 3


def test_section3_two_rejects_d1():
    with pytest.raises(ParameterError):
        construct_section3_two(1)


def test_segments():
    assert delta_from_box(construct_segment(2)).entries == (1, 1)
    assert delta_from_box(construct_segment(3)).entries == (1, 2)
    with pytest.raises(ParameterError):
        construct_segment(4)


def test_segment_lifted_three_times():
    s = construct_segment(2)
    for _ in range(3):
        s = s.pyramid()
    assert delta_from_box(s).entries == (1, 1, 0, 0, 0)


def test_triangle_111():
    s = construct_triangle_111()
    assert delta_from_box(s).entries == (1, 1, 1)
    assert s.normalized_volume == 3
    lifted = s.pyramid().pyramid().pyramid()
    assert delta_from_box(lifted).entries == (1, 1, 1, 0, 0, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lemma_first_family(k):
    s = construct_lemma_first(k)
    d = 3 * k + 2
    entries = delta_from_box(s).entries
    expected = tuple(1 if i in (0, k + 1, 2 * k + 2) else 0 for i in range(d + 1))
    assert entries == expected
    assert s.normalized_volume == 3


def test_lemma_first_rejects_k0():
    with pytest.raises(ParameterError):
        construct_lemma_first(0)


@pytest.mark.parametrize("k,ell", [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)])
def test_lemma_second_family(k, ell):
    s = construct_lemma_second(k, ell)
    d = 3 * k + 2 + 2 * ell
    entries = delta_from_box(s).entries
    expected = tuple(
        1 if i in (0, k + ell + 1, 2 * k + ell + 2) else 0 for i in range(d + 1)
    )
    assert entries == expected
    assert s.normalized_volume == 3


def test_lemma_second_rejects_ell0():
    with pytest.raises(ParameterError):
        construct_lemma_second(1, 0)


def hnf_vertices(b, volume):
    """Vertices 0, e_1, ..., e_(d-1), (b, volume) of a Hermite normal form simplex."""
    d = len(b) + 1
    units = [tuple(int(k == i) for k in range(d)) for i in range(d - 1)]
    return [(0,) * d] + units + [(*b, volume)]


def test_realize_section2_lifted():
    # The dimension-3 section-2 delta padded to dimension 5: a = (0,0,1,1,1,1).
    s, plan = realize((1, 0, 1, 0, 0, 0))
    assert (plan.family, plan.parameters, plan.lifts) == ("cyclic", {"volume": 2, "b": [0, 1, 1, 1]}, 0)
    assert plan.describe() == "cyclic(volume=2, b=[0, 1, 1, 1])"
    assert list(s.vertices) == hnf_vertices([0, 1, 1, 1], 2)


def test_realize_two_ones_candidate():
    # Ones at 3 and 5: (n1, n2) = (7, 1), a = (0,0,2,1,1,1,1,1,1,1).
    s, plan = realize((1, 0, 0, 1, 0, 1, 0, 0, 0, 0))
    b = [0, 1, 2, 2, 2, 2, 2, 2]
    assert (plan.family, plan.parameters, plan.lifts) == ("cyclic", {"volume": 3, "b": b}, 0)
    assert list(s.vertices) == hnf_vertices(b, 3)
    assert s.dim == 9


def test_realize_segment_volume3():
    # delta_1 = 2: (n1, n2) = (1, 1), a = (0,0,2,1).
    s, plan = realize((1, 2, 0, 0))
    assert (plan.family, plan.parameters, plan.lifts) == ("cyclic", {"volume": 3, "b": [0, 1]}, 0)
    assert list(s.vertices) == hnf_vertices([0, 1], 3)
    assert delta_from_box(s).entries == (1, 2, 0, 0)


def test_realize_verifies_a_sum3_candidate_at_d400(monkeypatch):
    # The verification runs the Smith normal form of a 401 x 401 lifted matrix.
    entries = [1] + [0] * 400
    entries[133] = entries[266] = 1
    recomputed = []

    def spy(s):
        delta = delta_from_box(s)
        recomputed.append(delta.entries)
        return delta

    monkeypatch.setattr(realizer, "delta_from_box", spy)
    s, plan = realize(entries)
    assert recomputed == [tuple(entries)]
    assert s.dim == 400 and plan.parameters["volume"] == 3


@pytest.mark.parametrize("extras", [(351,), (234, 468)], ids=["sum2", "sum3"])
def test_realize_at_d702_peaks_near_its_vertex_tuples(extras):
    # The witness's vertex tuples are the one dense object: realize's own
    # vertex lists, a transposed copy or a dense lifted matrix would each
    # add as much again.
    entries = [1] + [int(i in extras) for i in range(1, 703)]
    tracemalloc.start()
    try:
        s, _ = realize(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tuples = sys.getsizeof(s.vertices) + sum(map(sys.getsizeof, s.vertices))
    assert s.dim == 702 and peak <= 1.3 * tuples


def test_realize_raises_when_verification_fails(monkeypatch):
    # Sum d + 1 > 3: no candidate that realize accepts has this delta.
    monkeypatch.setattr(realizer, "delta_from_box", lambda s: DeltaVector((1,) * (s.dim + 1)))
    with pytest.raises(InternalInconsistencyError, match="witness verification failed"):
        realize((1, 0, 1, 0))


def test_realize_rejects_no_candidate():
    with pytest.raises(NotRealizableError):
        realize((1, 1, 0, 0, 1))


def test_realize_rejects_out_of_scope():
    with pytest.raises(OutOfScopeError):
        realize((1, 1, 1, 1))


def test_realize_charges_the_witness_to_the_budget(monkeypatch):
    # d = 3: the witness has (d + 1)^2 = 16 vertex entries.
    monkeypatch.setattr(realizer, "DEFAULT_BUDGET", 16)
    assert realize((1, 0, 1, 0))[0].dim == 3
    monkeypatch.setattr(realizer, "DEFAULT_BUDGET", 15)
    with pytest.raises(BudgetExceededError, match="witness needs 16 vertex entries, budget is 15"):
        realize((1, 0, 1, 0))
    # The verdict comes first: a NO or out-of-scope candidate is not charged.
    with pytest.raises(NotRealizableError):
        realize((1, 1, 0, 0, 1))
    with pytest.raises(OutOfScopeError):
        realize((1, 1, 1, 1))


@pytest.mark.parametrize("entries", [(1, 0, 0, 0.5), (1, 0, 2.9, 0), (1, "3", 0, 0)])
def test_realize_refuses_non_integer_entries(entries):
    # int() would truncate 0.5 and 2.9 and parse '3', and build another witness.
    with pytest.raises(TypeError):
        realize(entries)


@pytest.mark.parametrize("cand", [(1, 1, 0, 1), (1, 0, 0, 0, 0, 0, 0, 1)], ids=["n2<0", "n1+n2>d+1"])
def test_realize_refuses_yes_outside_the_box_groups(monkeypatch, cand):
    # A YES verdict with no cyclic box group behind it is a classifier fault.
    monkeypatch.setattr(realizer, "is_realizable", lambda entries: Decision(Verdict.YES, "forced"))
    with pytest.raises(InternalInconsistencyError):
        realize(cand)


@pytest.mark.parametrize("d", range(3, 9))
def test_realize_round_trip_all_yes_candidates(d):
    for cand, dec in enumerate_candidates(d, 3):
        if dec.verdict is not Verdict.YES:
            continue
        s, plan = realize(cand)
        volume = sum(cand)
        b = plan.parameters["b"]
        assert plan.parameters["volume"] == volume and plan.lifts == 0
        assert all(0 <= x < volume for x in b)
        assert list(s.vertices) == hnf_vertices(b, volume)
        assert s.dim == d and s.ambient_dim == d
        assert delta_from_box(s).entries == cand
        assert s.normalized_volume == volume


@pytest.mark.parametrize(
    "base",
    [
        unit_simplex(3),
        construct_segment(2),
        construct_section2(3),
        construct_section3_two(3),
        construct_triangle_111(),
        construct_lemma_first(1),
        construct_lemma_second(1, 1),
    ],
    ids=["unit", "segment", "section2", "section3_two", "triangle_111", "lemma_first", "lemma_second"],
)
@pytest.mark.parametrize("times", [0, 1, 5])
def test_lift_equals_iterated_pyramid(base, times):
    # ``times`` pyramids pad every vertex with zeros and append the apexes
    # e_(N+1), ..., e_(N+times), and pad delta with zeros.
    s = base
    for _ in range(times):
        s = s.pyramid()
    n = base.ambient_dim
    apexes = [tuple(int(k == n + t) for k in range(n + times)) for t in range(times)]
    assert list(s.vertices) == [v + (0,) * times for v in base.vertices] + apexes
    assert delta_from_box(s).entries == delta_from_box(base).entries + (0,) * times
