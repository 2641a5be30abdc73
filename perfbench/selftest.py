"""Self-test of the benchmark's references and generators.

Run from the root of the repository:  python3 perfbench/selftest.py

Nothing here imports ``ehrhart``.  Each closed form in ``reference.py`` is
compared with a brute-force computation or with a second characterisation:

* cyclic and join delta-vectors against a direct enumeration of the lattice
  points of the fundamental parallelepiped, also after a unimodular scramble;
* the YES set for coordinate sum <= 3 against the basic, Stanley and Hibi
  inequalities, which decide that range exactly, for d = 3..24;
* the witness check against known simplices of volume 1, 2 and 3;
* every generator against itself: the same seed gives the same jobs;
* BENCHMARK.json against the workloads defined here.
"""
from __future__ import annotations

import itertools
import json
import os
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def inverse(rows: list[list[int]]) -> list[list[Fraction]]:
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def brute_force_delta(vertices: list[list[int]]) -> tuple[int, ...]:
    """Count the lattice points sum(l_i (v_i, 1)), 0 <= l_i < 1, by degree."""
    m = [list(v) + [1] for v in vertices]
    inv = inverse(m)
    k = len(m)
    ranges = [
        range(sum(min(0, m[i][j]) for i in range(k)), sum(max(0, m[i][j]) for i in range(k)) + 1)
        for j in range(k)
    ]
    delta = [0] * k
    for x in itertools.product(*ranges):
        lam = [sum(x[j] * inv[j][i] for j in range(k)) for i in range(k)]
        if all(0 <= t < 1 for t in lam):
            delta[x[-1]] += 1
    return tuple(delta)


def check_box_references(rng: random.Random) -> int:
    cases = 0
    for _ in range(40):
        d = rng.randint(2, 3)
        volume = rng.randint(1, 7)
        verts, delta = workloads.random_cyclic(d, volume, rng)
        require(brute_force_delta(verts) == delta, (verts, delta))
        cases += 1
    for _ in range(10):
        vp, dp = workloads.random_cyclic(1, rng.randint(2, 4), rng)
        vq, dq = workloads.random_cyclic(rng.randint(1, 2), rng.randint(2, 4), rng)
        verts, delta = ref.join_vertices(vp, vq), ref.join_delta(dp, dq)
        require(brute_force_delta(verts) == delta, (verts, delta))
        cases += 1
    # A unimodular map plus translation keeps delta; the scan stays small for
    # a segment-by-segment join.
    for _ in range(10):
        vp, dp = workloads.random_cyclic(1, rng.randint(2, 3), rng)
        vq, dq = workloads.random_cyclic(1, rng.randint(2, 3), rng)
        verts = workloads.scramble(ref.join_vertices(vp, vq), rng)
        require(abs(ref.determinant([v + [1] for v in verts])) == sum(ref.join_delta(dp, dq)), verts)
        require(brute_force_delta(verts) == ref.join_delta(dp, dq), verts)
        cases += 1
    return cases


def passes_inequalities(c: tuple[int, ...]) -> bool:
    d = len(c) - 1
    if c[1] < c[d] or (c[d] and any(c[1] > c[i] for i in range(1, d))):
        return False
    s = max(i for i, e in enumerate(c) if e)
    if any(sum(c[: i + 1]) > sum(c[s - i : s + 1]) for i in range(s // 2 + 1)):
        return False
    return all(sum(c[d - i : d]) <= sum(c[2 : i + 2]) for i in range(1, (d - 1) // 2 + 1))


def check_yes_sets() -> int:
    cases = 0
    for d in range(3, 25):
        candidates = [c for total in (1, 2, 3) for c in ref.all_candidates(d, total)]
        by_inequalities = {c for c in candidates if passes_inequalities(c)}
        require(ref.yes_candidates(d) == by_inequalities, d)
        cases += len(candidates)
    return cases


def check_witness_reference(rng: random.Random) -> int:
    cases = 0
    for volume in (1, 2, 3):
        for d in (3, 5, 8):
            verts, delta = workloads.random_cyclic(d, volume, rng)
            verts = workloads.scramble(verts, rng)
            require(ref.witness_error(verts, delta) is None, (verts, delta))
            require(ref.prime_volume_delta(verts, volume) == delta, verts)
            wrong = delta[:-1] + (delta[-1] + 1,)
            require(ref.witness_error(verts, wrong) is not None, (verts, wrong))
            cases += 1
    return cases


def check_generators() -> int:
    cases = 0
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(__file__))) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            # File names differ between seeds, so compare the files' contents.
            first, second, other = (
                [
                    [pathlib.Path(a).read_text() if a.endswith(".json") else a for a in job.argv]
                    for job in workload.make_round(seed, 2, tmp)
                ]
                for seed in (7, 7, 8)
            )
            require(first == second, name)
            require(other != first, name)
            cases += len(first)
    return cases


def check_benchmark_file() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {w["name"]: w["why"] for w in bench["workloads"]}
    require(declared == {n: w.why for n, w in workloads.WORKLOADS.items()}, "BENCHMARK.json workloads")
    return len(declared)


def main() -> int:
    rng = random.Random(20090424)
    print(f"box references: {check_box_references(rng)} simplices agree with brute force")
    print(f"YES sets: {check_yes_sets()} candidates agree with the inequalities for d = 3..24")
    print(f"witness check: {check_witness_reference(rng)} simplices")
    print(f"generators: {check_generators()} jobs repeat for the same seed")
    print(f"BENCHMARK.json: {check_benchmark_file()} workloads match")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
