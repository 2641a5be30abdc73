"""Time the layers of ``delta`` on large simplices, in process.

Three cases per dimension d:

* ``unit``: the unit simplex conv(0, e_1, ..., e_d), delta = (1, 0, ..., 0);
* ``sum3``: the witness that ``realize`` builds for delta with 1 at 0, d/3
  and 2d/3 (d >= 3);
* ``cyclic``: the Hermite normal form simplex conv(0, e_1, ..., e_(d-1),
  (b, V)) with b drawn from ``random.Random(8)``, b_i in [0, V), which
  has many nonzero delta_i once V is large.

Each case is written to a polytope file in a temporary directory, then
timed, best of ``--repeat`` runs: ``load_simplex`` of that file,
``delta_from_box``, ``ehrhart_coefficients``, ``ehrhart_counts``, and the
whole ``cli.main(["delta", file])`` with stdout sent to the null device.
Each case prints one JSON line: the case, d, the normalized volume, the
number of nonzero delta_i and the seconds of each step.

First, one ``cli`` line times the command-line layer in microseconds per
call, best of ``--repeat`` runs of ``CLI_CALLS`` calls: ``cli.build_parser``
alone, and ``cli.build_parser().parse_args(argv)`` with one argv of each
command (parsing reads no file).  ``timeit`` times them with the cycle
collector off, as a fresh process that makes one call has it idle: each
call leaves its parser in reference cycles, and where a collection fell
would otherwise move the time.

Usage: python tools/layer_times.py [--dims D ...] [--volume V] [--repeat N]
                                   [--cases CASE ...]

Standard library only.  The package is imported from the src/ beside this
directory.
"""
from __future__ import annotations

import argparse
import contextlib
# The engine imports fractions on its first call; loaded here, so that a
# single run does not time the import.
import fractions  # noqa: F401
import json
import os
import random
import sys
import tempfile
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ehrhart import cli  # noqa: E402
from ehrhart.engine import delta_from_box, ehrhart_coefficients, ehrhart_counts  # noqa: E402
from ehrhart.realizer import hnf_vertices, realize  # noqa: E402
from ehrhart.simplex import LatticeSimplex, dump_simplex, load_simplex, unit_simplex  # noqa: E402

CASES = ("unit", "sum3", "cyclic")
# The seed of the cyclic case's b.
SEED = 8
# One argv of each command for the cli line, and the calls in one run.
CLI_ARGV = {
    "delta": ["delta", "p.json"],
    "check": ["check", "1", "0", "1", "0"],
    "realize": ["realize", "1", "0", "1", "0"],
    "enumerate": ["enumerate", "--dim", "3"],
}
CLI_CALLS = 100


def build(case: str, d: int, volume: int) -> LatticeSimplex:
    if case == "unit":
        return unit_simplex(d)
    if case == "sum3":
        entries = [0] * (d + 1)
        for i in (0, d // 3, 2 * d // 3):
            entries[i] += 1
        return realize(entries)[0]
    rng = random.Random(SEED)
    return LatticeSimplex(hnf_vertices([rng.randrange(volume) for _ in range(d - 1)], volume))


def best(repeat: int, step) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
    return round(min(times), 6)


def time_cli(repeat: int) -> dict:
    def per_call(step) -> float:
        return round(min(timeit.Timer(step).repeat(repeat, CLI_CALLS)) / CLI_CALLS * 1e6, 1)

    microseconds = {"build_parser": per_call(cli.build_parser)}
    for command, argv in CLI_ARGV.items():
        microseconds[command] = per_call(lambda: cli.build_parser().parse_args(argv))
    return {"case": "cli", "calls": CLI_CALLS, "repeat": repeat, "microseconds": microseconds}


def quiet_delta(path: str) -> None:
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        code = cli.main(["delta", path])
    if code != 0:
        raise SystemExit(f"delta {path} exited {code}")


def time_case(case: str, d: int, volume: int, repeat: int, workdir: str) -> dict:
    path = os.path.join(workdir, f"{case}-{d}.json")
    dump_simplex(build(case, d, volume), path)
    s = load_simplex(path)
    delta = delta_from_box(s)
    seconds = {
        "load_simplex": best(repeat, lambda: load_simplex(path)),
        "delta_from_box": best(repeat, lambda: delta_from_box(s)),
        "ehrhart_coefficients": best(repeat, lambda: ehrhart_coefficients(delta)),
        "ehrhart_counts": best(repeat, lambda: ehrhart_counts(delta)),
        "delta": best(repeat, lambda: quiet_delta(path)),
    }
    nonzero = sum(1 for e in delta.entries if e)
    row = {"case": case, "d": d, "normalized_volume": delta.normalized_volume, "nonzero_delta": nonzero}
    if case == "cyclic":
        row["seed"] = SEED
    return {**row, "repeat": repeat, "seconds": seconds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time the layers of delta on large simplices, in process.")
    parser.add_argument("--dims", type=int, nargs="+", default=[400, 1404])
    parser.add_argument("--volume", type=int, default=20_000, help="V of the cyclic case")
    parser.add_argument("--repeat", type=int, default=3, help="runs per step; the best is printed")
    parser.add_argument("--cases", nargs="+", choices=CASES, default=list(CASES))
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.volume < 1 or min(args.dims) < 3:
        parser.error("--repeat and --volume must be positive and every dimension at least 3")
    print(json.dumps(time_cli(args.repeat)), flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        for d in args.dims:
            for case in args.cases:
                print(json.dumps(time_case(case, d, args.volume, args.repeat, workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
