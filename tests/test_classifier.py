"""Inequality checks and the sum <= 3 realizability decision."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrhart.classifier import (
    CheckResult,
    Decision,
    Verdict,
    check_basic,
    check_hibi,
    check_stanley,
    enumerate_candidates,
    inequality_report,
    is_realizable,
)
from ehrhart.engine import delta_from_box
from ehrhart.realizer import construct_lemma_first, construct_section2, construct_triangle_111


def test_stanley_example_12_facet():
    res = check_stanley((1, 0, 1, 0, 0, 1, 0))
    assert not res.ok and res.witness == 2


def test_stanley_example_12_candidate_passes():
    assert check_stanley((1, 0, 1, 0, 1, 1, 0, 0)).ok


def test_stanley_point_delta():
    assert check_stanley((1, 0, 0, 0)).ok


def test_stanley_rejects_all_zero():
    with pytest.raises(ValueError):
        check_stanley((0, 0, 0))


def test_hibi_violation():
    res = check_hibi((1, 0, 0, 1, 1, 0))
    assert not res.ok and res.witness == 1


def test_hibi_passes():
    assert check_hibi((1, 0, 1, 0, 1, 0, 0, 0)).ok


def test_hibi_vacuous_for_d2():
    assert check_hibi((1, 1, 1)).ok


def test_basic_delta1_below_deltad():
    res = check_basic((1, 0, 0, 0, 1))
    assert not res.ok


def test_basic_rejects_wrong_delta0():
    assert not check_basic((2, 0, 0)).ok


def test_basic_accepts_111():
    assert check_basic((1, 1, 1, 0, 0)).ok


def test_realizable_section2_candidate():
    assert is_realizable((1, 0, 1, 0)).verdict is Verdict.YES


def test_realizable_no_with_stanley_witness():
    dec = is_realizable((1, 1, 0, 0, 0, 1))
    assert dec.verdict is Verdict.NO
    assert not dec.report.stanley.ok and dec.report.stanley.witness == 1


def test_realizable_out_of_scope_sum4():
    dec = is_realizable((1, 0, 1, 0, 1, 1, 0, 0))
    assert dec.verdict is Verdict.OUT_OF_SCOPE
    assert dec.report.all_ok  # every inequality passes, yet not realizable


def test_realizable_out_of_scope_low_dimension():
    dec = is_realizable((1, 1))
    assert dec.verdict is Verdict.OUT_OF_SCOPE
    assert dec.report == inequality_report((1, 1))
    assert is_realizable(()) == Decision(Verdict.OUT_OF_SCOPE, "dimension -1 < 3 is outside the classified range")


@pytest.mark.parametrize("entries", [(1, 0, 0, 0.5), (1, 0, 2.9, 0), (1, "3", 0, 0)])
def test_realizable_refuses_non_integer_entries(entries):
    # int() would truncate 0.5 and 2.9 and parse '3', and decide another candidate.
    with pytest.raises(TypeError):
        is_realizable(entries)


def test_enumerate_d3_sum2():
    yes = [c for c, dec in enumerate_candidates(3, 2) if dec.verdict is Verdict.YES]
    assert yes == [(1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0)]


def test_enumerate_d3_sum3():
    yes = {c for c, dec in enumerate_candidates(3, 3) if dec.verdict is Verdict.YES}
    assert yes == {
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 2, 0, 0),
        (1, 0, 2, 0),
        (1, 1, 1, 0),
    }


def test_enumerate_d4_includes_lemma_second_candidate():
    yes = {c for c, dec in enumerate_candidates(4, 3) if dec.verdict is Verdict.YES}
    assert (1, 0, 1, 1, 0) in yes


def test_enumerate_is_lexicographic_and_deterministic():
    cands = [c for c, _ in enumerate_candidates(5, 3)]
    assert cands == sorted(cands)
    assert cands == [c for c, _ in enumerate_candidates(5, 3)]


@pytest.mark.parametrize("d", range(3, 21))
def test_two_ones_candidates_match_pqr_condition(d):
    for m in range(2, d):
        for n in range(m + 1, d):
            cand = [0] * (d + 1)
            cand[0] = cand[m] = cand[n] = 1
            p, q, r = m - 1, n - m - 1, d - n
            expected = q <= p <= r
            assert (is_realizable(cand).verdict is Verdict.YES) == expected


def test_computed_deltas_satisfy_all_inequalities():
    for s in (construct_section2(5), construct_lemma_first(2), construct_triangle_111()):
        entries = delta_from_box(s).entries
        assert check_basic(entries).ok
        assert check_stanley(entries).ok
        assert check_hibi(entries).ok


@given(st.integers(3, 9))
@settings(max_examples=20, deadline=None)
def test_trailing_zero_preserves_yes(d):
    for cand, dec in enumerate_candidates(d, 3):
        if dec.verdict is Verdict.YES:
            assert is_realizable(cand + (0,)).verdict is Verdict.YES


def box_group_deltas(d):
    """Every delta of a d-simplex whose box group has order V <= 3.

    V = 1 gives the unit delta.  Otherwise the group is cyclic of prime order,
    generated by a / V with a in {0..V-1}^(d+1) and sum(a) = 0 mod V; its
    element k a / V has degree sum(k a_i mod V) / V.  For V = 2 with h entries
    equal to 1 that is h / 2; for V = 3 with n1 ones and n2 twos it is
    (n1 + 2 n2) / 3 for k = 1 and (2 n1 + n2) / 3 for k = 2.
    """

    def extra_ones(*degrees):
        delta = [1] + [0] * d
        for i in degrees:
            delta[i] += 1
        return tuple(delta)

    deltas = {extra_ones()}
    deltas.update(extra_ones(h // 2) for h in range(2, d + 2, 2))
    for n1 in range(d + 2):
        for n2 in range(d + 2 - n1):
            if n1 + n2 > 0 and (n1 + 2 * n2) % 3 == 0:
                deltas.add(extra_ones((n1 + 2 * n2) // 3, (2 * n1 + n2) // 3))
    return deltas


def test_yes_set_equals_box_group_deltas():
    for d in range(3, 41):
        yes = {c for c, dec in enumerate_candidates(d, 3) if dec.verdict is Verdict.YES}
        assert yes == box_group_deltas(d), f"d = {d}"


def slice_sum_stanley(entries):
    """Reference for ``check_stanley``: every partial sum taken afresh."""
    if all(e == 0 for e in entries):
        raise ValueError("all-zero sequence has no top nonzero index")
    s = max(i for i, e in enumerate(entries) if e != 0)
    for i in range(s // 2 + 1):
        lhs = sum(entries[: i + 1])
        rhs = sum(entries[s - i : s + 1])
        if lhs > rhs:
            return CheckResult(False, i, f"sum delta_0..delta_{i} = {lhs} > sum delta_{s - i}..delta_{s} = {rhs}")
    return CheckResult(True)


def slice_sum_hibi(entries):
    """Reference for ``check_hibi``: every partial sum taken afresh."""
    d = len(entries) - 1
    for i in range(1, (d - 1) // 2 + 1):
        lhs = sum(entries[d - i : d])
        rhs = sum(entries[2 : i + 2])
        if lhs > rhs:
            return CheckResult(False, i, f"sum delta_{d - i}..delta_{d - 1} = {lhs} > sum delta_2..delta_{i + 1} = {rhs}")
    return CheckResult(True)


def small_sequences(length, budget):
    """Sequences of the given length with entries 0..3 summing to at most budget."""
    if length == 0:
        yield ()
        return
    for e in range(min(3, budget) + 1):
        for rest in small_sequences(length - 1, budget - e):
            yield (e,) + rest


def check_corpus():
    for length in range(1, 10):
        for tail in small_sequences(length - 1, 4):
            for head in range(1, min(3, 5 - sum(tail)) + 1):
                yield (head,) + tail
        yield (0,) * length
        yield (1,) + (0,) * (length - 1) + (-1,)
        yield (1, -2) + (1,) * (length - 1)
    long = [1] + [2] * 19998 + [1]
    long[9999] += 1  # Stanley fails at its last step i = s // 2; Hibi runs to the end
    yield tuple(long)


def test_running_sum_checks_match_slice_sums():
    for entries in check_corpus():
        for check, reference in ((check_stanley, slice_sum_stanley), (check_hibi, slice_sum_hibi)):
            try:
                expected = reference(entries)
            except ValueError:
                with pytest.raises(ValueError):
                    check(entries)
                continue
            assert check(entries) == expected, entries
