"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of the repository:

    python3 perfbench/steadiness.py [--workload NAME ...] [--record]

Each (workload, seed) pair, for seeds 1 to 10, is one untraced ``run.py``
run of ``run_seconds`` from BENCHMARK.json.  For every end-to-end metric the
script prints the median and the spread, which is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound, and how much worse the median is
than in the last set recorded in RECORD.json.  ``--record`` appends the set
to ``steadiness_runs`` there.

The exit code is 1 when a spread reaches its metric's bound, except the
spread of ``setup_s``: set-up time is bounded by how far its median moves
between sets, not by its spread within one.  Its spread is still printed
and flagged.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "RECORD.json")
SEEDS = list(range(1, 11))


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Spread of the end-to-end metrics over seeds.")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    with open(RECORD) as fh:
        record = json.load(fh)
    previous = record["steadiness_runs"][-1]["workloads"] if record.get("steadiness_runs") else {}

    entry = {
        "date": datetime.date.today().isoformat(),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    steady = True
    for name in args.workload or names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        summary = {}
        for m, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "ok" if spread < bounds[m] / 3 else ("within bound" if spread < bounds[m] else "OVER BOUND")
            if m != "setup_s" and spread >= bounds[m]:
                steady = False
            line = f"{name:18} {m:15} median {median:10.4f}  spread {spread:6.3f}  bound {bounds[m]:.2f}  {flag}"
            if m in previous.get(name, {}):
                before = previous[name][m]["median"]
                worse = (before - median) / before if m in higher else (median - before) / before
                line += f"  worse than last set by {worse:+.3f}"
            print(line)
            summary[m] = {"median": median, "spread": round(spread, 4), "bound": bounds[m], "values": vals}
        entry["workloads"][name] = summary
    if args.record:
        record.setdefault("steadiness_runs", []).append(entry)
        with open(RECORD, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
