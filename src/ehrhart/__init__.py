"""Exact Ehrhart polynomial and delta-vector toolkit for lattice simplices."""

from .classifier import (
    Decision,
    InequalityReport,
    Verdict,
    check_basic,
    check_hibi,
    check_stanley,
    enumerate_candidates,
    inequality_report,
    is_realizable,
)
from .engine import (
    BoxPoint,
    DeltaVector,
    box_points,
    count_points,
    delta_from_box,
    delta_from_counts,
    ehrhart_coefficients,
    ehrhart_counts,
    evaluate_ehrhart,
    evaluate_interior,
)
from .intlinalg import SnfDecomposition, smith_normal_form
from .realizer import (
    ConstructionPlan,
    construct_lemma_first,
    construct_lemma_second,
    construct_section2,
    construct_section3_two,
    construct_segment,
    construct_triangle_111,
    realize,
)
from .simplex import LatticeSimplex, dump_simplex, load_simplex, unit_simplex

__all__ = [
    "BoxPoint",
    "ConstructionPlan",
    "Decision",
    "DeltaVector",
    "InequalityReport",
    "LatticeSimplex",
    "SnfDecomposition",
    "Verdict",
    "box_points",
    "check_basic",
    "check_hibi",
    "check_stanley",
    "construct_lemma_first",
    "construct_lemma_second",
    "construct_section2",
    "construct_section3_two",
    "construct_segment",
    "construct_triangle_111",
    "count_points",
    "delta_from_box",
    "delta_from_counts",
    "dump_simplex",
    "ehrhart_coefficients",
    "ehrhart_counts",
    "enumerate_candidates",
    "evaluate_ehrhart",
    "evaluate_interior",
    "inequality_report",
    "is_realizable",
    "load_simplex",
    "realize",
    "smith_normal_form",
    "unit_simplex",
]

__version__ = "0.1.0"
