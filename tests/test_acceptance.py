"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact integer arithmetic; there are no tolerances.
"""

import math

from ehrhart.classifier import Verdict, enumerate_candidates, inequality_report, is_realizable
from ehrhart.cli import main
from ehrhart.engine import count_points, delta_from_box, delta_from_counts, evaluate_ehrhart
from ehrhart.intlinalg import determinant
from ehrhart.realizer import (
    construct_lemma_first,
    construct_lemma_second,
    construct_section2,
    construct_section3_two,
    construct_segment,
    construct_triangle_111,
    realize,
)
from ehrhart.simplex import LatticeSimplex, unit_simplex


def report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_section2_family():
    ok = True
    for d in (3, 5, 7, 9, 11):
        s = construct_section2(d)
        entries = delta_from_box(s).entries
        expected = tuple(1 if i in (0, (d + 1) // 2) else 0 for i in range(d + 1))
        ok &= entries == expected
        ok &= sum(entries) == 2
        ok &= abs(determinant(s.lifted_matrix())) == 2
    report("1 section2 family d=3..11", ok)


def test_criterion_2_lemma_first():
    ok = True
    for k in (1, 2, 3):
        s = construct_lemma_first(k)
        d = 3 * k + 2
        entries = delta_from_box(s).entries
        expected = tuple(1 if i in (0, k + 1, 2 * k + 2) else 0 for i in range(d + 1))
        ok &= entries == expected
        ok &= abs(determinant(s.lifted_matrix())) == 3
    report("2 lemma-first family k=1..3", ok)


def test_criterion_3_lemma_second():
    ok = True
    for k, ell in ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)):
        s = construct_lemma_second(k, ell)
        d = 3 * k + 2 + 2 * ell
        entries = delta_from_box(s).entries
        expected = tuple(
            1 if i in (0, k + ell + 1, 2 * k + ell + 2) else 0 for i in range(d + 1)
        )
        ok &= entries == expected
    report("3 lemma-second family", ok)


def test_criterion_4_end_to_end_realization():
    failures = 0
    for d in range(3, 11):
        for cand, dec in enumerate_candidates(d, 3):
            if dec.verdict is not Verdict.YES:
                continue
            s, _plan = realize(cand)
            if s.dim != d or s.ambient_dim != d:
                failures += 1
                continue
            if delta_from_box(s).entries != cand:
                failures += 1
                continue
            if not inequality_report(delta_from_box(s).entries).all_ok:
                failures += 1
    report("4 end-to-end realization d=3..10", failures == 0)


def test_criterion_5_pqr_equivalence():
    ok = True
    for d in range(3, 21):
        for m in range(2, d):
            for n in range(m + 1, d):
                cand = [0] * (d + 1)
                cand[0] = cand[m] = cand[n] = 1
                p, q, r = m - 1, n - m - 1, d - n
                ok &= (is_realizable(cand).verdict is Verdict.YES) == (q <= p <= r)
    report("5 p,q,r equivalence d<=20", ok)


def test_criterion_6_example_12(capsys):
    code_a = main(["check", "1", "0", "1", "0", "1", "1", "0", "0"])
    out_a = capsys.readouterr().out
    code_b = main(["check", "1", "0", "1", "0", "0", "1", "0"])
    out_b = capsys.readouterr().out
    ok = (
        code_a == 3
        and "stanley pass" in out_a
        and "hibi pass" in out_a
        and "basic pass" in out_a
        and "verdict out-of-scope" in out_a
        and code_b == 2
        and "stanley fail at i=2" in out_b
    )
    report("6 example-1.2 reproduction", ok)


def corpus():
    simplices = [
        construct_section2(3),
        construct_section2(5),
        construct_section3_two(3),
        construct_section3_two(5),
        construct_segment(2),
        construct_segment(3),
        construct_triangle_111(),
        construct_lemma_second(0, 1),
        unit_simplex(1),
        unit_simplex(2),
        unit_simplex(3),
        unit_simplex(4),
        unit_simplex(5),
        LatticeSimplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 2]]),  # Reeve-type
        LatticeSimplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 3]]),
        LatticeSimplex([[0], [2]]).pyramid().pyramid(),
        construct_triangle_111().pyramid(),
        LatticeSimplex([[0, 0], [3, 1], [1, 3]]),
        LatticeSimplex([[0, 0], [2, 0], [0, 2]]),
        LatticeSimplex([[0, 0, 0], [2, 1, 0], [1, 2, 0], [0, 0, 2]]),
        LatticeSimplex([[0, 0], [1, 0], [0, 3]]),
        LatticeSimplex([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 2]]),
    ]
    assert len(simplices) >= 20
    return simplices


def test_criterion_7_method_agreement_and_reciprocity():
    ok = True
    for s in corpus():
        d = s.dim
        delta = delta_from_box(s)
        counts = [count_points(s, n) for n in range(1, d + 1)]
        ok &= delta_from_counts(counts, d).entries == delta.entries
        for n in range(1, max(d + 2, 4)):
            interior = count_points(s, n, strict=True)
            # Interior series sum_i delta_i t^(d+1-i) / (1-t)^(d+1) of the box delta.
            ok &= interior == sum(e * math.comb(n + i - 1, d) for i, e in enumerate(delta.entries))
            if n <= 3:
                ok &= interior == (-1) ** d * evaluate_ehrhart(delta, -n)
    report("7 method agreement + interior series + reciprocity", ok)


def test_criterion_8_pyramid_law():
    ok = True
    for s in corpus():
        base = delta_from_box(s).entries
        lifted = delta_from_box(s.pyramid()).entries
        ok &= lifted == base + (0,)
    report("8 pyramid law", ok)
