"""Value semantics of the package's immutable records: equality, hashing,
repr and refusal of assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from ehrhart.classifier import CheckResult, Decision, InequalityReport, Verdict, check_basic, is_realizable
from ehrhart.engine import BoxPoint, DeltaVector, box_points, delta_from_box
from ehrhart.errors import InconsistentCountsError
from ehrhart.intlinalg import ColumnForms, SnfDecomposition, column_forms, smith_normal_form
from ehrhart.realizer import ConstructionPlan, construct_section2, realize
from ehrhart.simplex import unit_simplex

PASS = CheckResult(True)
REPORT = InequalityReport(PASS, PASS, PASS, CheckResult(True, reason="vacuous (delta_d = 0)"))

# (make, the repr of what make() returns, a field name)
RECORDS = {
    "CheckResult": (lambda: CheckResult(True), "CheckResult(ok=True, witness=None, reason='')", "ok"),
    "CheckResult-fail": (
        lambda: CheckResult(False, 2, "bad"),
        "CheckResult(ok=False, witness=2, reason='bad')",
        "witness",
    ),
    "InequalityReport": (
        lambda: InequalityReport(PASS, PASS, PASS, CheckResult(False, 1, "x")),
        "InequalityReport(basic=CheckResult(ok=True, witness=None, reason=''), "
        "stanley=CheckResult(ok=True, witness=None, reason=''), "
        "hibi=CheckResult(ok=True, witness=None, reason=''), "
        "lower_bound=CheckResult(ok=False, witness=1, reason='x'))",
        "basic",
    ),
    "Decision": (
        lambda: Decision(Verdict.NO, "why"),
        "Decision(verdict=<Verdict.NO: 'no'>, reason='why', report=None)",
        "verdict",
    ),
    "BoxPoint": (
        lambda: BoxPoint((1, 1), 1, (Fraction(1, 2), Fraction(1, 2))),
        "BoxPoint(point=(1, 1), degree=1, coefficients=(Fraction(1, 2), Fraction(1, 2)))",
        "degree",
    ),
    "SnfDecomposition": (
        lambda: SnfDecomposition([{0: 1}, {1: 1}], (1, 2)),
        "SnfDecomposition(left=[{0: 1}, {1: 1}], diag=(1, 2))",
        "diag",
    ),
    "ColumnForms": (
        lambda: ColumnForms(2, ((1, 0), (0, 1)), ()),
        "ColumnForms(den=2, forms=((1, 0), (0, 1)), equalities=())",
        "den",
    ),
    "ConstructionPlan": (
        lambda: ConstructionPlan("cyclic", {"volume": 2}),
        "ConstructionPlan(family='cyclic', parameters={'volume': 2}, lifts=0)",
        "family",
    ),
    "DeltaVector": (lambda: DeltaVector((1, 0, 1)), "DeltaVector(entries=(1, 0, 1))", "entries"),
}
UNHASHABLE = {"SnfDecomposition", "ConstructionPlan"}  # they hold a list or a dict


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_give_equal_records(name):
    make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    make, text, _ = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_is_refused(name):
    make, _, field = RECORDS[name]
    record = make()
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_round_trip(name):
    make, _, _ = RECORDS[name]
    record = make()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_from_the_program_equal_records_built_by_hand():
    assert check_basic([1, 0, 0, 0]) == PASS
    assert is_realizable([1, 0, 0, 0]) == Decision(Verdict.YES, "passes all inequality families", REPORT)
    assert box_points(construct_section2(3))[1] == BoxPoint(
        (1, 1, 1, 2), 2, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    )
    assert smith_normal_form([[2, 0], [0, 1]]) == SnfDecomposition([{1: 1}, {0: 1}], (1, 2))
    assert column_forms([[2, 0], [0, 2]]) == ColumnForms(4, ((2, 0), (0, 2)), ())
    assert realize([1, 0, 1, 0])[1] == ConstructionPlan("cyclic", {"volume": 2, "b": [1, 1]})
    assert delta_from_box(unit_simplex(3)) == DeltaVector((1, 0, 0, 0))


def test_delta_vector_equality_is_by_class_and_entries():
    delta = DeltaVector((1, 0, 1))
    assert delta != DeltaVector((1, 1, 0))
    assert delta != (1, 0, 1)
    assert list(delta) == [1, 0, 1]
    assert (delta.d, delta.normalized_volume) == (2, 2)


def test_delta_vector_refuses_deletion():
    with pytest.raises(AttributeError):
        del DeltaVector((1,)).entries


@pytest.mark.parametrize("entries", [(2,), (), (1, -1, 2), (1, 0, -3)])
def test_delta_vector_validates(entries):
    with pytest.raises(InconsistentCountsError):
        DeltaVector(entries)


def test_construction_plans_do_not_share_parameters():
    with pytest.raises(TypeError):
        ConstructionPlan("cyclic")
    first, second = realize([1, 1, 0, 0])[1], realize([1, 0, 1, 0])[1]
    assert first.parameters is not second.parameters
