"""Seeded job generators for the three benchmark workloads.

A workload is a sequence of rounds.  Round ``r`` of seed ``s`` is drawn from
its own random stream, so it is the same however many rounds a run reaches.
Every round has the same composition (dimensions, volume targets, share of
refusal or rejection jobs); the seed picks the concrete inputs.  This keeps
the work per round, and so the medians and p90s, nearly independent of the
seed while every seed still runs different inputs.

Each job is an argv for ``ehrhart.cli.main`` plus a check that compares the
parsed ``--json`` output with an answer from ``reference``.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

Check = Callable[[dict, int], "str | None"]


@dataclass(frozen=True)
class Job:
    argv: list[str]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, round index, directory for polytope files) -> jobs of that round
    make_round: Callable[[int, int, str], list[Job]]
    # Rounds run by the traced pass; fixed so that work counters repeat
    # exactly for a given seed.
    trace_rounds: int


def round_rng(name: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{round_index}")


def expect(status: str, code: int, **fields) -> Check:
    """Check the status line, the exit code and the given payload fields."""

    def check(payload: dict, exit_code: int) -> str | None:
        if payload.get("status") != status or exit_code != code or payload.get("exit_code") != code:
            return f"wanted {status}/{code}, got {payload.get('status')}/{exit_code}: {payload.get('error', '')}"
        for key, want in fields.items():
            if payload.get(key) != want:
                return f"{key} is {payload.get(key)!r}, wanted {want!r}"
        return None

    return check


def write_polytope(workdir: str, vertices: list[list[int]], rng: random.Random) -> str:
    path = os.path.join(workdir, f"p{rng.getrandbits(48):012x}.json")
    with open(path, "w") as fh:
        json.dump({"ambient_dim": len(vertices[0]), "vertices": vertices}, fh)
    return path


def scramble(vertices: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Apply a seeded unimodular map (2d signed row additions) and a translation."""
    d = len(vertices[0])
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        f = rng.choice((-1, 1))
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
    shift = [rng.randint(-5, 5) for _ in range(d)]
    return [[sum(a * x for a, x in zip(row, v)) + t for row, t in zip(u, shift)] for v in vertices]


def random_cyclic(dim: int, volume: int, rng: random.Random) -> tuple[list[list[int]], tuple[int, ...]]:
    b = [rng.randrange(volume) for _ in range(dim - 1)]
    return ref.cyclic_vertices(b, volume), ref.cyclic_delta(b, volume)


# Per dimension: two cyclic volumes and one join volume.  Box cost grows with
# volume and dimension, so the targets shrink as d grows.
BOX_TARGETS = {3: (150, 400, 250), 4: (120, 300, 200), 5: (100, 200, 150), 6: (100, 150, 120)}


def box_volume_round(seed: int, round_index: int, workdir: str) -> list[Job]:
    rng = round_rng("box_volume", seed, round_index)
    jobs = []
    for d, (v1, v2, vjoin) in BOX_TARGETS.items():
        simplices = []
        for target in (v1, v2):
            volume = target + rng.randint(-target // 20, target // 20)
            verts, delta = random_cyclic(d, volume, rng)
            simplices.append((verts, delta, volume))
        # Two even factors, so the join has two invariant factors > 1.
        a = rng.randint(1, d - 2)
        x = rng.randint(2, math.isqrt(vjoin // 4))
        y = max(2, round(vjoin / (4 * x)))
        vp, dp = random_cyclic(a, 2 * x, rng)
        vq, dq = random_cyclic(d - 1 - a, 2 * y, rng)
        simplices.append((ref.join_vertices(vp, vq), ref.join_delta(dp, dq), 4 * x * y))
        for verts, delta, volume in simplices:
            path = write_polytope(workdir, scramble(verts, rng), rng)
            check = expect("ok", 0, dimension=d, method="box", delta=list(delta), normalized_volume=volume)
            jobs.append(Job(["--json", "delta", path], check))
    rng.shuffle(jobs)
    return jobs


# Per dimension: (counted jobs per round, highest volume, lowest and highest
# total of bounding-box candidates over the dilates n = 1..d).  Job k of a
# dimension takes a simplex whose total is near a target that walks the range
# on a log scale in golden-ratio steps.  Job costs then cover the range
# evenly, with no cluster for a quantile to jump across, and the tops of the
# d = 2 and d = 3 ranges reach the d = 4 costs, which sit at the only two
# totals this small (1732 for volume 2, 2486 for volume 3).  The walk is the
# same for every seed, so the rounds of every seed cost the same; the seed
# picks among the simplices whose total lies within TOTAL_TOLERANCE of the
# target.  One budget job per dimension and round is drawn the same way.
ORACLE_PLAN = {2: (4, 40, 60, 2500), 3: (4, 12, 170, 2500), 4: (1, 3, 1700, 2500)}
GOLDEN = (math.sqrt(5) - 1) / 2
TOTAL_TOLERANCE = 0.03


def scan_total(vertices: list[list[int]]) -> int:
    d = len(vertices[0])
    return sum(ref.bounding_box_size(vertices, n) for n in range(1, d + 1))


@functools.cache
def oracle_pool(d: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(scan total, volume, b) of every HNF cyclic simplex up to the highest volume, sorted."""
    _, max_volume, _, _ = ORACLE_PLAN[d]
    return sorted(
        (scan_total(ref.cyclic_vertices(list(b), volume)), volume, b)
        for volume in range(2, max_volume + 1)
        for b in itertools.product(range(volume), repeat=d - 1)
    )


def oracle_simplex(d: int, u: float, rng: random.Random) -> tuple[int, list[int]]:
    """(volume, b) of a simplex whose scan total is near lo * (hi / lo) ** u.

    The pick is random among the totals within TOTAL_TOLERANCE of the
    target, or among those with the nearest total when none is that close.
    """
    _, _, lo, hi = ORACLE_PLAN[d]
    pool = oracle_pool(d)
    target = lo * (hi / lo) ** u
    band = pool[bisect.bisect_left(pool, (target * (1 - TOTAL_TOLERANCE),)):
                bisect.bisect_right(pool, (target * (1 + TOTAL_TOLERANCE), math.inf))]
    if not band:
        i = min(bisect.bisect_left(pool, (target,)), len(pool) - 1)
        nearest = min((pool[j][0] for j in (i - 1, i) if j >= 0), key=lambda t: abs(t - target))
        band = [entry for entry in pool if entry[0] == nearest]
    _, volume, b = rng.choice(band)
    return volume, list(b)


def oracle_crosscheck_round(seed: int, round_index: int, workdir: str) -> list[Job]:
    rng = round_rng("oracle_crosscheck", seed, round_index)
    u_counted, u_budget = 0.0, 0.5
    jobs = []
    for d, (counted, _, _, _) in ORACLE_PLAN.items():
        for j in range(counted):
            k = round_index * counted + j
            volume, b = oracle_simplex(d, (u_counted + k * GOLDEN) % 1, rng)
            path = write_polytope(workdir, ref.cyclic_vertices(b, volume), rng)
            check = expect("ok", 0, dimension=d, method="both", delta=list(ref.cyclic_delta(b, volume)))
            jobs.append(Job(["--json", "delta", path, "--method", "both"], check))
        # The budget admits the bounding boxes for n < d but not the one for
        # n = d, so the job must be refused after some scanning.
        volume, b = oracle_simplex(d, (u_budget + round_index * GOLDEN) % 1, rng)
        verts = ref.cyclic_vertices(b, volume)
        budget = rng.randint(ref.bounding_box_size(verts, d - 1), ref.bounding_box_size(verts, d) - 1)
        path = write_polytope(workdir, verts, rng)
        jobs.append(Job(["--json", "delta", path, "--method", "both", "--budget", str(budget)], expect("budget-exceeded", 4)))
    rng.shuffle(jobs)
    return jobs


WITNESS_DIMS = range(8, 20)


def realize_check(candidate: tuple[int, ...]) -> Check:
    base = expect("ok", 0, delta=list(candidate), dimension=len(candidate) - 1, verified="yes")

    def check(payload: dict, exit_code: int) -> str | None:
        return base(payload, exit_code) or ref.witness_error(payload.get("vertices"), candidate)

    return check


@functools.cache
def witness_candidates(d: int) -> tuple[list, list, list]:
    """(YES, NO, sum-4) candidates of dimension d, each sorted."""
    yes = ref.yes_candidates(d)
    no = [c for total in (2, 3) for c in ref.all_candidates(d, total) if c not in yes]
    return sorted(yes), no, ref.all_candidates(d, 4)


def witness_sweep_round(seed: int, round_index: int, workdir: str) -> list[Job]:
    """Every YES candidate of every dimension, like ``enumerate --realize-all``.

    The seed picks one NO and one sum-4 candidate per dimension and the order
    of the jobs.  A round is longer than ``run_seconds`` at the reference
    speed, so a run is one whole sweep, the same work for every seed.
    """
    rng = round_rng("witness_sweep", seed, round_index)
    jobs = []
    for d in WITNESS_DIMS:
        yes, no, sum4 = witness_candidates(d)
        for cand in yes:
            jobs.append(Job(["--json", "realize", *map(str, cand)], realize_check(cand)))
        for cand, check in ((rng.choice(no), expect("not-realizable", 2)), (rng.choice(sum4), expect("out-of-scope", 3))):
            jobs.append(Job(["--json", "realize", *map(str, cand)], check))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "box_volume",
            "box route on scrambled cyclic simplices and joins, d 3-6, volume 100-400: "
            "per-point work in box_points and solve_rational dominates",
            box_volume_round,
            trace_rounds=3,
        ),
        Workload(
            "witness_sweep",
            "realize with verification on YES, NO and sum-4 candidates, d 8-19: "
            "lifting, affine re-checks, SNF and inverse at volume <= 3",
            witness_sweep_round,
            trace_rounds=1,
        ),
        Workload(
            "oracle_crosscheck",
            "delta --method both on HNF simplices, d 2-4, plus budget refusals: "
            "the counting scan and barycentric tests dominate",
            oracle_crosscheck_round,
            trace_rounds=4,
        ),
    )
}
