"""Run the mutant table: every mutant below must be killed by its tests.

A mutant replaces one exact piece of text in one source file.  The script
copies the repository, without .git and caches, to a temporary directory,
then runs every test selection of the chosen mutants there unmutated: those
runs must pass, so a broken tree cannot read as "all killed".  Then, one
mutant at a time, it writes the mutated file into the copy, runs

    python -m pytest -x -q -p no:cacheprovider <selection>

in the copy with PYTHONPATH at its src/, and restores the file.  Exit 1, a
failed test, kills the mutant.  Any other nonzero exit (a collection error,
say) marks the row broken: a mutant that stops the tests from running
shows nothing about them.  The whole tree is copied, not src/ alone, because
pyproject.toml puts the src/ beside it first on the tests' path.

The old text must occur exactly once in its file.  When a change removes or
repeats it, the script stops before running anything, and that change
updates the row.

Usage: python tools/mutants.py [MUTANT_ID ...]   (no id: every mutant)

Exit status: 0 when every mutant run was killed, 1 when one survived, 2 when
the table does not apply to the tree, an unmutated selection fails or a row
is broken.
Standard library only; the tests themselves need pytest and hypothesis.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    selection: tuple[str, ...]


INTLINALG = "src/ehrhart/intlinalg.py"
ENGINE = "src/ehrhart/engine.py"
SIMPLEX = "src/ehrhart/simplex.py"
SNF_TESTS = ("tests/test_intlinalg.py", "-k", "snf")
ELIMINATION_TESTS = (
    "tests/test_intlinalg.py::test_column_pivots_match_the_gauss_jordan_reference",
    "tests/test_simplex.py::test_construction_matches_the_reference_on_every_witness",
)
WALK_TESTS = ("tests/test_engine.py", "-k", "box_route or box_points or delta_from_box")
# Every witness written to stdout, in text and --json, and to a file by --out.
EMIT_TESTS = ("tests/test_cli.py", "-k", "every_witness")
COUNTING_TESTS = ("tests/test_engine.py", "-k", "count_points or delta_from_counts or by_counting")
SCAN_TESTS = ("tests/test_engine.py::test_count_points_matches_the_reference_scan",)
CHARGE_TESTS = ("tests/test_cli.py", "tests/test_engine.py", "-k", "before_any_work")
AGREEMENT_TESTS = ("tests/test_cli.py", "tests/test_engine.py", "-k", "disagree")
CLASSIFIER_TESTS = ("tests/test_classifier.py", "-k", "stanley or hibi or running_sum")
EHRHART_TESTS = ("tests/test_engine.py", "-k", "ehrhart_data")

MUTANTS = (
    Mutant(
        "snf-tie-by-dict-order",
        INTLINALG,
        "bj = min(pos[c] for c, y in top.items() if y == least or y == -least)",
        "bj = next(pos[c] for c, y in top.items() if y == least or y == -least)",
        SNF_TESTS,
    ),
    Mutant(
        "snf-diag-through-original-column",
        INTLINALG,
        "diag=tuple(a[i].get(perm[i], 0) for i in range(n))",
        "diag=tuple(a[i].get(i, 0) for i in range(n))",
        SNF_TESTS,
    ),
    Mutant(
        "snf-no-divisibility-fold",
        INTLINALG,
        "offender = next((i for i in range(t + 1, n) if any(x % piv for x in a[i].values())), None)",
        "offender = None",
        SNF_TESTS,
    ),
    Mutant(
        "snf-unit-exit-before-row-operations",
        INTLINALG,
        "            done = True\n"
        "            for i in [i for i in range(t + 1, n) if ct in a[i]]:\n",
        "            if least == 1:\n"
        "                break\n"
        "            done = True\n"
        "            for i in [i for i in range(t + 1, n) if ct in a[i]]:\n",
        SNF_TESTS,
    ),
    Mutant(
        "walk-field-width-one-bit-short",
        ENGINE,
        "w = dmax.bit_length() + 1",
        "w = dmax.bit_length()",
        WALK_TESTS,
    ),
    Mutant(
        "walk-field-sum-keeps-reduced-fields",
        ENGINE,
        "total += step - dmax * h.bit_count()",
        "total += step",
        WALK_TESTS,
    ),
    Mutant(
        "walk-membership-skips-the-ones-column",
        ENGINE,
        "if any(p % dmax for p in point):",
        "if any(p % dmax for p in point[:-1]):",
        WALK_TESTS,
    ),
    Mutant(
        "lifted-combination-without-the-ones-entry",
        SIMPLEX,
        "            out[n] += x\n",
        "",
        WALK_TESTS,
    ),
    Mutant(
        "elimination-no-rescale-of-zero-entry-rows",
        INTLINALG,
        "a[i] = {j: p * x // prev for j, x in row.items()}",
        "a[i] = dict(row)",
        ELIMINATION_TESTS,
    ),
    Mutant(
        "elimination-unit-update-when-p-is-not-prev",
        INTLINALG,
        "(v := (p * row.get(j, 0) - f * top.get(j, 0)) // prev)",
        "(v := row.get(j, 0) - f * top.get(j, 0) // prev)",
        ELIMINATION_TESTS,
    ),
    Mutant(
        "elimination-pivot-from-a-pivot-row",
        INTLINALG,
        "here = [i for i in free if c in a[i]]",
        "here = [i for i in range(n) if c in a[i]]",
        ELIMINATION_TESTS,
    ),
    Mutant(
        "invalid-input-exit-code-5",
        "src/ehrhart/errors.py",
        '"""A usage error, a malformed entry, or a file the CLI cannot read or write."""\n    exit_code = 1',
        '"""A usage error, a malformed entry, or a file the CLI cannot read or write."""\n    exit_code = 5',
        ("tests/test_cli.py", "-k", "usage_errors_are_invalid_input"),
    ),
    Mutant(
        "verdict-no-exit-code-3",
        "src/ehrhart/cli.py",
        "Verdict.NO: NotRealizableError.exit_code",
        "Verdict.NO: 3",
        ("tests/test_cli.py", "-k", "check_exit_codes"),
    ),
    Mutant(
        "enumerate-size-refusal-dropped",
        "src/ehrhart/classifier.py",
        "    if needed > DEFAULT_BUDGET:\n"
        '        raise BudgetExceededError(needed, DEFAULT_BUDGET, "candidate table", "entries")\n',
        "",
        ("tests/test_cli.py", "-k", "enumerate_refuses or enumerate_charges"),
    ),
    Mutant(
        "realize-size-refusal-dropped",
        "src/ehrhart/realizer.py",
        "    if (d + 1) ** 2 > DEFAULT_BUDGET:\n"
        '        raise BudgetExceededError((d + 1) ** 2, DEFAULT_BUDGET, "witness", "vertex entries")\n',
        "",
        ("tests/test_realizer.py", "-k", "charges_the_witness"),
    ),
    Mutant(
        "json-matrix-rows-without-separator",
        SIMPLEX,
        '                row_sep = ", "\n',
        '                row_sep = ""\n',
        EMIT_TESTS,
    ),
    Mutant(
        "text-matrix-rows-without-separator",
        "src/ehrhart/cli.py",
        'write(f" {list(row)}")',
        "write(str(list(row)))",
        EMIT_TESTS,
    ),
    Mutant(
        "line-count-floors-the-lower-end",
        ENGINE,
        "min(map(floordiv, bases, rising))",
        "min(-(-b // c) for b, c in zip(bases, rising))",
        COUNTING_TESTS,
    ),
    Mutant(
        "line-count-rounds-the-upper-end-up",
        ENGINE,
        "min(map(floordiv, bases[r:], falling))",
        "min(-(-b // c) for b, c in zip(bases[r:], falling))",
        SCAN_TESTS,
    ),
    Mutant(
        "line-count-without-the-flat-forms",
        ENGINE,
        "    for b, c in zip(bases[f:], step[f:]):\n",
        "    for b, c in ():\n",
        SCAN_TESTS,
    ),
    Mutant(
        "delta-charge-skips-the-last-dilate",
        ENGINE,
        "for n in range(1, d + 1):\n            bounding_box(",
        "for n in range(1, d):\n            bounding_box(",
        CHARGE_TESTS,
    ),
    Mutant(
        "delta-box-route-runs-before-the-boxes-are-charged",
        ENGINE,
        "        charge_volume(s, budget)\n",
        "        delta_from_box(s, budget)\n",
        CHARGE_TESTS,
    ),
    Mutant(
        "delta-routes-agreement-dropped",
        ENGINE,
        "if deltas[0] != deltas[-1]:",
        "if False:",
        AGREEMENT_TESTS,
    ),
    Mutant(
        "count-points-interior-counts-the-boundary",
        ENGINE,
        "least = 1 if strict else 0",
        "least = 0",
        COUNTING_TESTS,
    ),
    Mutant(
        "counts-to-delta-without-the-sign",
        ENGINE,
        "sum((-1) ** j * math.comb(d + 1, j)",
        "sum(math.comb(d + 1, j)",
        COUNTING_TESTS,
    ),
    Mutant(
        "horner-step-adds-k-times-the-shifted-coefficient",
        ENGINE,
        "x - k * y",
        "x + k * y",
        EHRHART_TESTS,
    ),
    Mutant(
        "interior-sequence-in-forward-order",
        ENGINE,
        "(0, *e[:0:-1])",
        "(0, *e[1:])",
        EHRHART_TESTS,
    ),
    Mutant(
        "ehrhart-counts-one-prefix-pass-short",
        ENGINE,
        "    for _ in range(len(seq)):\n",
        "    for _ in range(len(seq) - 1):\n",
        EHRHART_TESTS,
    ),
    Mutant(
        "forward-difference-read-one-pass-early",
        ENGINE,
        "        s = list(accumulate(s))\n        g[0] += s.pop() * scale\n",
        "        g[0] += s.pop() * scale\n        s = list(accumulate(s))\n",
        EHRHART_TESTS,
    ),
    Mutant(
        "hibi-stops-one-index-short",
        "src/ehrhart/classifier.py",
        "range(1, (d - 1) // 2 + 1)",
        "range(1, (d - 1) // 2)",
        CLASSIFIER_TESTS,
    ),
    Mutant(
        "stanley-stops-one-index-short",
        "src/ehrhart/classifier.py",
        "range(s // 2 + 1)",
        "range(s // 2)",
        CLASSIFIER_TESTS,
    ),
)


def run(selection: tuple[str, ...], tree: Path) -> tuple[int, float]:
    # No bytecode cache: a mutant and the restored file may share a size and
    # an mtime second, which is all a cached .pyc is checked against.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - start


def main(argv: list[str]) -> int:
    ids = [m.id for m in MUTANTS]
    if len(set(ids)) != len(ids):
        print("mutant ids repeat", file=sys.stderr)
        return 2
    unknown = sorted(set(argv) - set(ids))
    if unknown:
        print(f"unknown mutant ids: {unknown}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    for m in chosen:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            print(f"{m.id}: old text occurs {count} times in {m.file}, not once", file=sys.stderr)
            return 2

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(
            ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
        )
        for selection in dict.fromkeys(m.selection for m in chosen):
            code, seconds = run(selection, tree)
            print(f"unmutated  {' '.join(selection)}: exit {code} ({seconds:.1f} s)", flush=True)
            if code != 0:
                print("an unmutated selection fails; no mutant was run", file=sys.stderr)
                return 2
        survivors = []
        broken = []
        for m in chosen:
            path = tree / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                code, seconds = run(m.selection, tree)
            finally:
                path.write_text(original)
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"BROKEN (exit {code})")
            print(f"{outcome:9}  {m.id} ({seconds:.1f} s)", flush=True)
            if code == 0:
                survivors.append(m.id)
            elif code != 1:
                broken.append(m.id)
    print(f"{len(chosen) - len(survivors) - len(broken)} of {len(chosen)} mutants killed")
    return 2 if broken else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
