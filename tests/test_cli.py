"""CLI contract: exit codes, output determinism, JSON parity."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrhart import cli, realizer
from ehrhart.cli import main
from ehrhart.engine import DeltaVector
from ehrhart.simplex import LatticeSimplex, dump_simplex, load_simplex


@pytest.fixture
def section2_file(tmp_path):
    path = tmp_path / "s2.json"
    dump_simplex(LatticeSimplex([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_delta_section2(section2_file, capsys):
    code, out = run(capsys, "delta", section2_file, "--method", "both")
    assert code == 0
    assert "delta 1 0 1 0" in out
    assert "normalized_volume 2" in out
    assert "volume 1/3" in out


def test_delta_unit_simplex(tmp_path, capsys):
    path = tmp_path / "unit.json"
    dump_simplex(LatticeSimplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), str(path))
    code, out = run(capsys, "delta", str(path))
    assert code == 0 and "delta 1 0 0 0" in out


def test_delta_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"ambient_dim": 2, "vertices": [[0,0],[1,1],[2,2]]}')
    code, out = run(capsys, "delta", str(path))
    assert code == 1 and "status invalid-input" in out


@pytest.mark.parametrize("method", ["box", "both"])
def test_delta_box_rejects_lower_dimensional_simplex(tmp_path, capsys, method):
    path = tmp_path / "segment.json"
    dump_simplex(LatticeSimplex([[0, 0], [1, 1]]), str(path))
    code, out = run(capsys, "delta", str(path), "--method", method)
    assert code == 1 and out.startswith("status invalid-input\n")
    assert "full-dimensional" in out


def test_delta_counts_handles_lower_dimensional_simplex(tmp_path, capsys):
    path = tmp_path / "segment.json"
    dump_simplex(LatticeSimplex([[0, 0], [1, 1]]), str(path))
    code, out = run(capsys, "delta", str(path), "--method", "counts")
    assert code == 0 and out.startswith("status ok\n")
    assert "\ndelta 1 0\n" in out


def test_delta_budget_exceeded(tmp_path, capsys):
    path = tmp_path / "big.json"
    dump_simplex(LatticeSimplex([[0, 0, 0], [99, 0, 0], [0, 99, 0], [0, 0, 99]]), str(path))
    code, out = run(capsys, "delta", str(path), "--method", "counts", "--budget", "1000")
    assert code == 4 and "status budget-exceeded" in out


def test_delta_box_budget_refuses_huge_volume(tmp_path, capsys):
    # conv(0, e_1, e_2, 10^12 e_3): the box group has 10^12 elements.
    path = tmp_path / "huge.json"
    dump_simplex(LatticeSimplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 10**12]]), str(path))
    code = main(["delta", str(path)])
    captured = capsys.readouterr()
    assert code == 4 and "status budget-exceeded" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_delta_box_budget_flag(section2_file, capsys):
    code, out = run(capsys, "delta", section2_file, "--budget", "1")
    assert code == 4 and "status budget-exceeded" in out
    code, out = run(capsys, "delta", section2_file, "--budget", "2")
    assert code == 0 and "delta 1 0 1 0" in out


def test_delta_rejects_json_boolean(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"ambient_dim": 2, "vertices": [[0, 0], [true, 0], [0, 1]]}')
    code, out = run(capsys, "delta", str(path))
    assert code == 1 and "status invalid-input" in out


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"ambient_dim": 1, "vertices": [[0], [1]], "plan": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["top-level", "ignored-field"],
)
def test_delta_rejects_deeply_nested_json(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code = main(["delta", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and "status invalid-input" in captured.out
    assert "Traceback" not in captured.out + captured.err


# 5,000 sevens over 3: past Python's default 4,300-digit limit on int-to-str.
HUGE_DIGITS = "7" * 5000
HUGE = Fraction((10**5000 - 1) // 9 * 7, 3)


def int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_delta_prints_coefficients_past_the_digit_limit(section2_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ehrhart_coefficients", lambda delta: [Fraction(1), HUGE])
    limit = int_digit_limit()
    code, out = run(capsys, "delta", section2_file)
    assert code == 0 and out.startswith("status ok\n")
    assert f"\nvolume {HUGE_DIGITS}/3\n" in out and f"\nehrhart_coeffs 1 {HUGE_DIGITS}/3\n" in out
    code, out = run(capsys, "--json", "delta", section2_file)
    doc = json.loads(out)
    assert code == 0 and doc["volume"] == f"{HUGE_DIGITS}/3" and doc["ehrhart_coeffs"] == ["1", f"{HUGE_DIGITS}/3"]
    assert int_digit_limit() == limit


def test_delta_keeps_the_digit_limit_on_input(tmp_path, capsys):
    path = tmp_path / "huge-coordinate.json"
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [' + HUGE_DIGITS + "]]}")
    code, out = run(capsys, "delta", str(path))
    assert code == 1 and out.startswith("status invalid-input\n")


@pytest.mark.parametrize("method", ["box", "counts"])
def test_delta_budget_refusal_past_the_digit_limit(tmp_path, capsys, method):
    # Coordinates of 2,201 digits, normalized volume and bounding box past 4,300.
    path = tmp_path / "huge-volume.json"
    b = 10**2200
    dump_simplex(LatticeSimplex([[0, 0, 0], [b, 0, 0], [0, b, 0], [0, 0, 1]]), str(path))
    code, out = run(capsys, "delta", str(path), "--method", method)
    assert code == 4 and out.startswith("status budget-exceeded\nerror enumeration needs ")


def test_check_exit_codes(capsys):
    assert run(capsys, "check", "1", "0", "1", "0")[0] == 0
    code, out = run(capsys, "check", "1", "0", "1", "0", "0", "1", "0")
    assert code == 2 and "stanley fail at i=2" in out
    code, out = run(capsys, "check", "1", "0", "1", "0", "1", "1", "0", "0")
    assert code == 3 and "stanley pass" in out and "hibi pass" in out


def test_check_failure_without_an_index_prints_no_index(capsys):
    # delta_0 = 0 fails Stanley's inequality with no index to name.
    code, out = run(capsys, "check", "0", "0")
    assert code == 3 and "\nstanley fail\n" in out and "None" not in out
    code, out = run(capsys, "--json", "check", "0", "0")
    assert code == 3 and json.loads(out)["stanley"] == "fail"


def test_check_rejects_non_integer(capsys):
    code, out = run(capsys, "check", "1", "x")
    assert code == 1 and "status invalid-input" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["realize"],
        ["enumerate", "--dim", "abc"],
        ["enumerate"],
        ["delta"],
        ["delta", "p.json", "--method", "fast"],
        ["bogus"],
        [],
        ["check", "1", "0", "--json"],
        ["realize", "1", "0", "1", "0", "--no-verify"],
        ["realize", "1", "0", "1", "0", "--verify"],
    ],
    ids=" ".join,
)
def test_usage_errors_are_invalid_input(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("status invalid-input\nerror ehrhart")
    assert captured.out.endswith("exit_code 1\n")
    assert captured.err == ""


def test_usage_error_after_json_flag_is_a_json_document(capsys):
    code = main(["--json", "enumerate", "--dim", "abc"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc == {
        "status": "invalid-input",
        "error": "ehrhart enumerate: argument --dim: invalid int value: 'abc'",
        "exit_code": 1,
    }


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ehrhart")


STARTUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from ehrhart.cli import main
main(["check", "1", "0", "0", "0"])
print(*sorted(sys.modules))
"""
# Standard-library modules a fresh check has no use for.
UNUSED_AT_STARTUP = {"dataclasses", "inspect", "fractions", "decimal", "json"}


def test_fresh_check_loads_no_unused_stdlib_module():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def modules(code, *args):
        out = subprocess.run(
            [sys.executable, "-E", "-c", code, *args], capture_output=True, text=True, check=True, timeout=60
        ).stdout
        return set(out.splitlines()[-1].split())

    bare = modules("import sys; print(*sorted(sys.modules))")
    after_check = modules(STARTUP_PROBE, src)
    assert "ehrhart.cli" in after_check
    assert (after_check - bare) & UNUSED_AT_STARTUP == set()


def test_realize_writes_verified_witness(tmp_path, capsys):
    out_path = tmp_path / "w.json"
    code, out = run(
        capsys, "realize", "1", "0", "0", "1", "0", "1", "0", "0", "0", "0", "--out", str(out_path)
    )
    assert code == 0 and "verified yes" in out
    witness = load_simplex(str(out_path))
    assert witness.dim == 9


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_realize_unwritable_out_is_invalid_input(tmp_path, capsys, where):
    out_path = tmp_path / "missing" / "w.json" if where == "missing-parent" else tmp_path
    code, out = run(capsys, "realize", "1", "0", "0", "0", "--out", str(out_path))
    assert code == 1 and out.startswith("status invalid-input\n")
    assert "error cannot write witness file: " in out and out.endswith("exit_code 1\n")


def test_realize_not_realizable(capsys):
    code, out = run(capsys, "realize", "1", "1", "0", "0", "1")
    assert code == 2 and "status not-realizable" in out


def test_realize_out_of_scope(capsys):
    code, out = run(capsys, "realize", "1", "1", "1", "1")
    assert code == 3 and "status out-of-scope" in out


def test_enumerate_d3(capsys):
    code, out = run(capsys, "enumerate", "--dim", "3", "--max-sum", "3")
    assert code == 0
    assert out.count("yes") == 6 + 1  # six rows plus the yes_count key line


def test_enumerate_d5_sum2(capsys):
    code, out = run(capsys, "--json", "enumerate", "--dim", "5", "--max-sum", "2")
    doc = json.loads(out)
    yes = [r["delta"] for r in doc["candidates"] if r["verdict"] == "yes"]
    assert yes == ["1 0 0 0 0 0", "1 0 0 1 0 0", "1 0 1 0 0 0", "1 1 0 0 0 0"]


def test_enumerate_low_dimension(capsys):
    code, out = run(capsys, "enumerate", "--dim", "2")
    assert code == 3 and "status out-of-scope" in out


def test_enumerate_realize_all(capsys):
    code, out = run(capsys, "--json", "enumerate", "--dim", "6", "--realize-all")
    doc = json.loads(out)
    assert code == 0 and doc["realized_failed"] == 0 and doc["realized_ok"] == doc["yes_count"]


def test_failed_witness_verification_is_internal_inconsistency(monkeypatch, capsys):
    # Sum d + 1 > 3: no candidate that realize accepts has this delta.
    monkeypatch.setattr(realizer, "delta_from_box", lambda s: DeltaVector((1,) * (s.dim + 1)))
    code, out = run(capsys, "realize", "1", "0", "1", "0")
    assert code == 5 and out.startswith("status internal-inconsistency\nerror witness verification failed")
    code, out = run(capsys, "enumerate", "--dim", "3", "--realize-all")
    assert code == 5 and out.startswith("status internal-inconsistency\n")
    assert "candidates 1 0 1 0 yes FAILED\n" in out and "\nrealized_ok 0\n" in out
    code, out = run(capsys, "--json", "enumerate", "--dim", "3", "--realize-all")
    doc = json.loads(out)
    assert code == 5 and doc["status"] == "internal-inconsistency"
    assert doc["realized_failed"] == doc["yes_count"] > 0
    assert all(row.get("realized") == "FAILED" for row in doc["candidates"] if row["verdict"] == "yes")


def test_output_is_deterministic(section2_file, capsys):
    _, first = run(capsys, "delta", section2_file)
    _, second = run(capsys, "delta", section2_file)
    assert first == second


def test_json_and_kv_carry_same_delta(section2_file, capsys):
    _, kv = run(capsys, "delta", section2_file)
    _, js = run(capsys, "--json", "delta", section2_file)
    doc = json.loads(js)
    assert doc["delta"] == [1, 0, 1, 0]
    assert "delta 1 0 1 0" in kv
    assert doc["exit_code"] == 0


small_or_huge = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))
coordinates = st.one_of(
    small_or_huge,
    st.sampled_from([2**64, -(2**63), 10**300]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
)
integer_vertices = st.integers(0, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(small_or_huge, min_size=n, max_size=n), min_size=1, max_size=n + 2
        ),
    )
)
polytope_documents = st.one_of(
    # Well-formed integer files: degenerate, d < N, small or huge simplices.
    integer_vertices.map(lambda nv: {"ambient_dim": nv[0], "vertices": nv[1]}),
    # Ragged, boolean, nested and huge coordinates.
    st.fixed_dictionaries(
        {
            "ambient_dim": st.one_of(st.integers(-1, 4), st.booleans(), st.text(max_size=2)),
            "vertices": st.lists(st.lists(coordinates, max_size=4), max_size=5),
        }
    ),
    # Wrong shapes altogether.
    st.one_of(
        st.lists(st.integers(), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
        st.integers(),
        st.none(),
    ),
)
raw_texts = st.one_of(
    polytope_documents.map(json.dumps),
    st.sampled_from(
        [
            "",
            "{",
            "[1, 2",
            '{"ambient_dim": 1, "vertices": [[0], [' + "9" * 5000 + "]]}",
            '{"ambient_dim": 1, "vertices": [[0], [1e400]]}',
            '{"ambient_dim": 2, "vertices": [[0, 0], [NaN, 1], [0, 1]]}',
        ]
    ),
    st.text(max_size=20),
)


@given(raw_texts)
@settings(max_examples=150, deadline=None)
def test_delta_fuzz_ends_in_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["delta", path, "--method", "both", "--budget", "2000"])
    assert code in range(6)
    assert out.getvalue().startswith("status ")
    assert "Traceback" not in out.getvalue() + err.getvalue()
