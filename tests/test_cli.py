"""CLI contract: exit codes, output determinism, JSON parity."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrhart import classifier, cli, engine, realizer
from ehrhart.classifier import Verdict, enumerate_candidates
from ehrhart.cli import main
from ehrhart.engine import DeltaVector
from ehrhart.errors import EhrhartError
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


@pytest.mark.parametrize(
    "argv, error",
    [
        (["delta", "{s2}", "--budget", "1"], "enumeration needs 2 points, budget is 1"),
        (["delta", "{s2}", "--method", "counts", "--budget", "7"], "enumeration needs 8 points, budget is 7"),
        (["realize", "1", *["0"] * 10_000], "witness needs 100020001 vertex entries, budget is 100000000"),
        (["enumerate", "--dim", "600"], "candidate table needs 108721501 entries, budget is 100000000"),
    ],
    ids=["box-points", "bounding-box-points", "witness-entries", "table-entries"],
)
def test_budget_refusals_name_what_they_count(section2_file, capsys, argv, error):
    # The box route counts box points (the normalized volume), the counting
    # route the bounding box of a dilate, realize the (d + 1)^2 entries of
    # the witness and enumerate the candidates times d + 1.
    code, out = run(capsys, *(a.format(s2=section2_file) for a in argv))
    assert (code, out) == (4, f"status budget-exceeded\nerror {error}\nexit_code 4\n")


@pytest.fixture(scope="module")
def refused_witnesses(tmp_path_factory):
    """Files of the d = 7 and README's d = 9 witness, whose counting route
    the default budget refuses at n = 7 and at n = 4."""
    files = {}
    for candidate in ("1 0 0 1 0 1 0 0", "1 0 0 1 0 1 0 0 0 0"):
        path = tmp_path_factory.mktemp("witness") / "w.json"
        dump_simplex(realizer.realize(tuple(map(int, candidate.split())))[0], str(path))
        files[len(candidate.split()) - 1] = str(path)
    return files


def forbid_any_work(monkeypatch):
    """Make the Smith normal form and the counting scan fail if called."""

    def forbidden(*args):
        raise AssertionError("a route ran before every budget was charged")

    for name in ("smith_normal_form", "_scan", "_line_count"):
        monkeypatch.setattr(engine, name, forbidden)


@pytest.mark.parametrize("method", ["both", "counts"])
@pytest.mark.parametrize(
    "d, needed", [(7, 250593750), (9, 172718325)], ids=["d7-refused-at-n7", "d9-refused-at-n4"]
)
def test_refusals_come_before_any_work(refused_witnesses, monkeypatch, capsys, method, d, needed):
    # The bounding box of nP grows with n, so every dilate is charged before
    # any route runs and the refusal names the first dilate over the budget.
    forbid_any_work(monkeypatch)
    code, out = run(capsys, "delta", refused_witnesses[d], "--method", method)
    assert (code, out) == (4, f"status budget-exceeded\nerror enumeration needs {needed} points, budget is 100000000\nexit_code 4\n")


def test_refusal_at_the_last_dilate_comes_before_any_work(section2_file, monkeypatch, capsys):
    # The boxes of the section-2 witness at n = 1, 2, 3 hold 8, 27 and 64
    # points: a budget of 63 admits every dilate but the last.
    forbid_any_work(monkeypatch)
    code, out = run(capsys, "delta", section2_file, "--method", "both", "--budget", "63")
    assert (code, out) == (4, "status budget-exceeded\nerror enumeration needs 64 points, budget is 63\nexit_code 4\n")


def test_volume_is_charged_before_the_bounding_boxes(section2_file, monkeypatch, capsys):
    # Normalized volume 2 and a box of 8 points at n = 1, both over budget 1:
    # the box route's charge comes first, as its route does.
    forbid_any_work(monkeypatch)
    code, out = run(capsys, "delta", section2_file, "--method", "both", "--budget", "1")
    assert (code, out) == (4, "status budget-exceeded\nerror enumeration needs 2 points, budget is 1\nexit_code 4\n")


def test_lower_dimensional_file_fails_before_any_budget_check(tmp_path, monkeypatch, capsys):
    # The box route needs the normalized volume, which a segment in Z^2 does
    # not have: that is invalid input, whatever the budget.
    path = tmp_path / "segment.json"
    dump_simplex(LatticeSimplex([[0, 0], [1, 1]]), str(path))
    forbid_any_work(monkeypatch)
    monkeypatch.setattr(engine, "bounding_box", lambda *args: pytest.fail("a bounding box was charged"))
    code, out = run(capsys, "delta", str(path), "--method", "both", "--budget", "0")
    assert (code, out) == (
        1,
        "status invalid-input\nerror lifted matrix needs a full-dimensional simplex (N=2, d=1)\nexit_code 1\n",
    )


def test_counting_route_needs_no_volume(tmp_path, monkeypatch, capsys):
    # --method counts charges bounding boxes only, so a segment in Z^2 still counts.
    path = tmp_path / "segment.json"
    dump_simplex(LatticeSimplex([[0, 0], [1, 1]]), str(path))
    monkeypatch.setattr(engine, "smith_normal_form", lambda *args: pytest.fail("the Smith normal form ran"))
    code, out = run(capsys, "delta", str(path), "--method", "counts", "--budget", "4")
    assert code == 0 and "\ndelta 1 0\n" in out and "\ncounts 1 2 0\n" in out


@pytest.mark.parametrize("budget", ["-1", "-100000000"])
def test_negative_budget_is_invalid_input(section2_file, capsys, budget):
    code, out = run(capsys, "delta", section2_file, f"--budget={budget}")
    assert (code, out) == (
        1,
        f"status invalid-input\nerror ehrhart delta: argument --budget: budget must be nonnegative, got {budget}\nexit_code 1\n",
    )


def test_budget_zero_is_a_refusal_and_a_non_integer_budget_a_usage_error(section2_file, capsys):
    code, out = run(capsys, "delta", section2_file, "--method", "counts", "--budget", "0")
    assert (code, out) == (4, "status budget-exceeded\nerror enumeration needs 8 points, budget is 0\nexit_code 4\n")
    code, out = run(capsys, "delta", section2_file, "--budget", "1.5")
    assert (code, out) == (1, "status invalid-input\nerror ehrhart delta: argument --budget: invalid int value: '1.5'\nexit_code 1\n")


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
    assert code == 1 and out.startswith("status invalid-input\nerror cannot read polytope file: ")


def test_delta_non_utf8_file_is_unreadable(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out = run(capsys, "delta", str(path))
    assert code == 1 and out.startswith("status invalid-input\nerror cannot read polytope file: ")


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


# The first line of ``-h`` for the program and each command, at 80 columns.
USAGE_LINES = {
    "": "usage: ehrhart [-h] [--json] {delta,check,realize,enumerate} ...",
    "delta": "usage: ehrhart delta [-h] [--method {box,counts,both}] [--budget BUDGET]",
    "check": "usage: ehrhart check [-h] delta [delta ...]",
    "realize": "usage: ehrhart realize [-h] [--out OUT] delta [delta ...]",
    "enumerate": "usage: ehrhart enumerate [-h] --dim DIM [--max-sum MAX_SUM] [--realize-all]",
}


@pytest.mark.parametrize("command", USAGE_LINES, ids=lambda c: c or "program")
def test_help_usage_line_names_the_program_and_command(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.partition("\n")[0] == USAGE_LINES[command]


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


def test_realize_refuses_a_witness_past_the_budget(capsys):
    # d = 10,000: (d + 1)^2 vertex entries, just past the default 10^8.
    code, out = run(capsys, "realize", "1", *["0"] * 10_000)
    assert code == 4 and out.startswith("status budget-exceeded\nerror witness needs 100020001 vertex entries")


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


@pytest.mark.parametrize("dim", ["100000000000000000000", "9" * 2000], ids=["20-digit", "2000-digit"])
def test_enumerate_refuses_a_table_past_the_budget(capsys, dim):
    code, out = run(capsys, "enumerate", "--dim", dim)
    assert code == 4 and out.startswith("status budget-exceeded\nerror candidate table needs ")
    assert out.endswith(" entries, budget is 100000000\nexit_code 4\n")


def test_enumerate_charges_every_printed_entry(capsys, monkeypatch):
    # d = 3, sum <= 3: 1 + 3 + 6 candidates of 4 entries each.
    monkeypatch.setattr(classifier, "DEFAULT_BUDGET", 40)
    assert run(capsys, "enumerate", "--dim", "3")[0] == 0
    monkeypatch.setattr(classifier, "DEFAULT_BUDGET", 39)
    code, out = run(capsys, "enumerate", "--dim", "3")
    assert code == 4 and out == "status budget-exceeded\nerror candidate table needs 40 entries, budget is 39\nexit_code 4\n"


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


def fail_witness_verification(monkeypatch):
    monkeypatch.setattr(realizer, "delta_from_box", lambda s: DeltaVector((1,) * (s.dim + 1)))


def disagree_with_the_box_route(monkeypatch):
    monkeypatch.setattr(engine, "delta_from_counts", lambda counts, d: DeltaVector((1,) + (0,) * d))


def test_routes_that_disagree_end_in_internal_inconsistency(section2_file, monkeypatch, capsys):
    disagree_with_the_box_route(monkeypatch)
    code, out = run(capsys, "delta", section2_file, "--method", "both")
    assert (code, out) == (
        5,
        "status internal-inconsistency\nerror box method gave (1, 0, 1, 0), counts gave (1, 0, 0, 0)\nexit_code 5\n",
    )


def shrink_the_budget(monkeypatch):
    # One entry short of a d = 3 witness and of the d = 3 table.
    monkeypatch.setattr(realizer, "DEFAULT_BUDGET", 15)
    monkeypatch.setattr(classifier, "DEFAULT_BUDGET", 39)


# Every subcommand at every exit status it can reach, and usage errors.
# "{s2}" stands for the section-2 witness file, "{dir}" for a directory.
JSON_CASES = [
    (["delta", "{s2}"], 0, None),
    (["delta", "{s2}", "--method", "both"], 0, None),
    (["delta", "{dir}/missing.json"], 1, None),
    (["delta", "{s2}", "--budget", "1"], 4, None),
    (["delta", "{s2}", "--method", "both"], 5, disagree_with_the_box_route),
    (["check", "1", "0", "1", "0"], 0, None),
    (["check", "1", "x"], 1, None),
    (["check", "1", "1", "0", "0", "1"], 2, None),
    (["check", "1", "1", "1", "1"], 3, None),
    (["realize", "1", "0", "0", "1", "0", "1", "0", "0", "0", "0"], 0, None),
    (["realize", "1", "0", "1", "0", "--out", "{dir}/w.json"], 0, None),
    (["realize", "1", "0", "0", "0", "--out", "{dir}"], 1, None),
    (["realize", "1", "1", "0", "0", "1"], 2, None),
    (["realize", "1", "1", "1", "1"], 3, None),
    (["realize", "1", "0", "1", "0"], 4, shrink_the_budget),
    (["realize", "1", "0", "1", "0"], 5, fail_witness_verification),
    (["enumerate", "--dim", "5", "--realize-all"], 0, None),
    (["enumerate", "--dim", "2"], 3, None),
    (["enumerate", "--dim", "3"], 4, shrink_the_budget),
    (["enumerate", "--dim", "3", "--realize-all"], 5, fail_witness_verification),
    (["enumerate", "--dim", "abc"], 1, None),
    ([], 1, None),
]


def case_id(value):
    return " ".join(value) or "no-command" if isinstance(value, list) else None


@pytest.mark.parametrize("argv,code,patch", JSON_CASES, ids=case_id)
def test_json_output_is_one_line_per_command(argv, code, patch, section2_file, tmp_path, capsys, monkeypatch):
    if patch is not None:
        patch(monkeypatch)
    payloads = []
    emit = cli._emit

    def spy(payload, as_json):
        payloads.append(payload)
        emit(payload, as_json)

    monkeypatch.setattr(cli, "_emit", spy)
    argv = [a.format(s2=section2_file, dir=tmp_path) for a in argv]
    got, out = run(capsys, "--json", *argv)
    assert got == code
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    # The payload may hold tuples (a witness's vertices), which JSON writes as lists.
    assert len(payloads) == 1 and out == json.dumps(payloads[0]) + "\n"
    assert doc == json.loads(json.dumps(payloads[0]))
    assert doc["status"] == cli._STATUS[code] and doc["exit_code"] == code


def reference_text(payload):
    """The key/value lines of a payload whose matrices are lists, written as
    the CLI wrote every payload before it streamed matrices: one line per
    key, a list's items joined by spaces, one line per dict row."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines += [f"{key} " + " ".join(str(v) for v in row.values()) for row in value]
        elif isinstance(value, list):
            lines.append(f"{key} " + " ".join(str(v) for v in value))
        else:
            lines.append(f"{key} {value}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("d", range(3, 41))
def test_realize_writes_every_witness_as_the_one_shot_encoders_did(d, tmp_path, capsys, monkeypatch):
    payloads = []
    emit = cli._emit

    def spy(payload, as_json):
        payloads.append(payload)
        emit(payload, as_json)

    monkeypatch.setattr(cli, "_emit", spy)
    # One parser for all the calls; building it is most of a small job.
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    path = str(tmp_path / "w.json")
    for cand, decision in enumerate_candidates(d):
        if decision.verdict is not Verdict.YES:
            continue
        for flags in ([], ["--json"]):
            code, out = run(capsys, *flags, "realize", *map(str, cand))
            payload = payloads.pop()
            # The witness's own vertex tuples, written without a copy.
            assert code == 0 and type(payload["vertices"]) is tuple
            listed = {k: [list(v) for v in value] if k == "vertices" else value for k, value in payload.items()}
            assert out == (json.dumps(listed) + "\n" if flags else reference_text(listed))
            if flags:
                assert out == json.dumps(payload) + "\n"
        # The polytope file: the line json.dumps gives, where it was indented.
        code, _ = run(capsys, "realize", *map(str, cand), "--out", path)
        doc = {"ambient_dim": d, "vertices": listed["vertices"], "plan": listed["plan"]}
        with open(path) as fh:
            text = fh.read()
        assert code == 0 and text == json.dumps(doc) + "\n"
        assert json.loads(text) == json.loads(json.dumps(doc, indent=2) + "\n")
        assert load_simplex(path).vertices == payload["vertices"]


@pytest.mark.parametrize("extras", [(351,), (234, 468)], ids=["sum2", "sum3"])
def test_realize_out_at_d702_peaks_near_its_vertex_tuples(extras, tmp_path, capsys):
    # The witness's vertex tuples are the one dense object: a list copy of
    # them, or an encoder that builds the file's text, would add as much again.
    path = str(tmp_path / "w.json")
    tracemalloc.start()
    try:
        code = main(["realize", "1", *(str(int(i in extras)) for i in range(1, 703)), "--out", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vertices = load_simplex(path).vertices
    tuples = sys.getsizeof(vertices) + sum(map(sys.getsizeof, vertices))
    assert code == 0 and len(vertices) == 703 and peak <= 1.3 * tuples


# README's round trip: a witness written by ``realize --out`` and read back
# by ``delta``.  The counting route refuses the d = 9 witness at the default
# budget, before any route runs (``test_refusals_come_before_any_work``), so
# the two routes are compared on a d = 6 witness.
@pytest.mark.parametrize(
    "candidate,method",
    [("1 0 0 1 0 1 0 0 0 0", "box"), ("1 0 0 1 0 0 0", "both")],
    ids=["readme-d9", "d6-both-routes"],
)
def test_witness_file_round_trips_through_delta(candidate, method, tmp_path, capsys):
    entries = candidate.split()
    path = tmp_path / "w.json"
    legacy = tmp_path / "indented.json"
    assert run(capsys, "realize", *entries, "--out", str(path))[0] == 0
    # A file in the indented layout that realize wrote before, one number a
    # line, still reads as the same simplex.
    legacy.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
    assert legacy.read_text().count("\n") > len(entries) ** 2 // 2
    for f in (path, legacy):
        code, text = run(capsys, "delta", str(f), "--method", method)
        assert code == 0 and f"delta {candidate}\n" in text
        code, out = run(capsys, "--json", "delta", str(f), "--method", method)
        doc = json.loads(out)
        assert code == 0 and doc["delta"] == [int(e) for e in entries]
        # Text and JSON carry the same data.
        assert text == reference_text(doc)


CLOSED_PIPE_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from ehrhart.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_closed_output_pipe_prints_no_traceback(json_flag):
    # Some 260 kB of output, far more than a pipe buffers, so the writer
    # meets the closed pipe while it still has output to write.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", CLOSED_PIPE_PROBE, src, *json_flag, "enumerate", "--dim", "60"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline() if not json_flag else proc.stdout.read(64)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert first.startswith(b"status ok\n" if not json_flag else b'{"status": "ok"')
    assert err == b""


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


# The status word of each exit code, written out here so that the CLI's own
# table is checked, not reused.
STATUS = ("ok", "invalid-input", "not-realizable", "out-of-scope", "budget-exceeded", "internal-inconsistency")


def error_classes(cls=EhrhartError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


@pytest.mark.parametrize("cls", list(error_classes()), ids=lambda cls: cls.__name__)
def test_every_package_error_ends_in_its_exit_code(cls, capsys, monkeypatch):
    # Built without __init__, whose arguments differ from class to class.
    error = cls.__new__(cls)
    error.args = ("injected",)

    def fail(entries):
        raise error

    monkeypatch.setattr(cli, "is_realizable", fail)
    code = main(["check", "1", "0", "1", "0"])
    captured = capsys.readouterr()
    assert code == cls.exit_code
    assert captured.out == f"status {STATUS[code]}\nerror injected\nexit_code {code}\n"
    assert "Traceback" not in captured.out + captured.err


malformed_tokens = st.sampled_from(["", "x", "1.5", "0x1", "1e3", "-", "--", "--bogus", " 2", "\u0663", "9" * 5000])
entry_tokens = st.one_of(
    st.integers(-2, 3).map(str), st.integers(-(10**40), 10**40).map(str), malformed_tokens, st.text(max_size=3)
)
# --dim and --max-sum: small, or far past anything the budget lets through.
size_tokens = st.one_of(st.integers(-3, 20), st.integers(10**6, 10**40), st.just(10**4000)).map(str)


@st.composite
def realize_argvs(draw):
    # A YES candidate, (1, 0, ..., 0), with a few entries redrawn.
    d = draw(st.one_of(st.integers(0, 40), st.integers(10**4, 10**4 + 100)))
    entries = ["1"] + ["0"] * d
    for _ in range(draw(st.integers(0, 3))):
        entries[draw(st.integers(0, d))] = draw(entry_tokens)
    return ["realize", *entries]


cli_argvs = st.tuples(
    st.sampled_from([[], ["--json"]]),
    st.one_of(
        st.lists(entry_tokens, max_size=10).map(lambda tokens: ["check", *tokens]),
        realize_argvs(),
        st.tuples(
            st.one_of(size_tokens, malformed_tokens),
            st.one_of(st.just([]), st.one_of(size_tokens, malformed_tokens).map(lambda s: ["--max-sum", s])),
            st.sampled_from([[], ["--realize-all"]]),
        ).map(lambda t: ["enumerate", "--dim", t[0], *t[1], *t[2]]),
    ),
).map(lambda t: t[0] + t[1])


@given(cli_argvs)
@settings(max_examples=300, deadline=None)
def fuzz_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(6)
    text = out.getvalue()
    if argv[0] == "--json":
        doc = json.loads(text)
        assert doc["status"] == STATUS[code] and doc["exit_code"] == code
    else:
        assert text.startswith(f"status {STATUS[code]}\n") and text.endswith(f"\nexit_code {code}\n")
    assert "Traceback" not in text + err.getvalue()


def test_argv_fuzz_ends_in_a_documented_exit_code():
    # CPU time of this process, so that load from other processes on a
    # shared machine does not count against the bound.
    start = time.process_time()
    fuzz_argv()
    assert time.process_time() - start < 10
