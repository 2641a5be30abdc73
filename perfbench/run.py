"""Benchmark of the ehrhart CLI: seeded workloads run in-process.

Usage, from the root of the repository:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, the run length
the benchmark is defined with.

One client runs jobs in a closed loop, one at a time, on one thread: each
job is an argv passed to ``ehrhart.cli.main`` with stdout captured, and the
next job starts when the previous one has been checked.  Every output is
compared with an answer the benchmark computes itself (``reference.py``).

``--trace 0`` measures the end-to-end metrics.  Every job and every set-up
sample is bracketed by the CPU speed probes of ``speed.py`` and reported at
the reference speed.  Whole rounds of jobs run until the time spent inside
``cli.main``, at the reference speed, reaches ``--seconds`` and at least
``MIN_JOBS`` jobs ran.  A memory pass then runs part of round 0 again under
``tracemalloc``.  ``--trace 1`` runs the workload's fixed number of trace
rounds twice, untraced and then with every layer wrapped by ``tracer.py``,
and reports the per-layer metrics and the tracing overhead, the difference
of the two passes' jobs_per_s at the reference speed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every job
was correct, 1 when a job failed and 2 when the program could not be loaded.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import SpeedProbe, timed_at_reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# p90 is the highest percentile with at least ten samples beyond it.
MIN_JOBS = 100
# The memory pass takes at most this many jobs of round 0, those with the
# longest argv: all of a box_volume or oracle_crosscheck round, and the
# highest dimension of a witness_sweep round.  tracemalloc slows jobs about
# 3.5 times, so the pass is kept to a fraction of the timed run.
MEMORY_JOBS = 12
SETUP_EVERY_S = 1.0
SETUP_MIN_SAMPLES = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from ehrhart.cli import main; "
    "sys.exit(main(['check', '1', '0', '0', '0']))"
)

# Each entry: (description, test on the per-layer metrics).  They record how
# the workloads split the layers at the commit that defined the benchmark.
BYPASS_CHECKS = {
    "box_volume": [
        ("engine.count_points.calls == 0", lambda m: m["engine.count_points.calls"] == 0),
        ("realizer.realize.calls == 0", lambda m: m["realizer.realize.calls"] == 0),
        ("box_points + solve_rational self time > half of job time", lambda m: m["share.box_points_solve_rational"] > 0.5),
    ],
    "witness_sweep": [
        ("engine.count_points.calls == 0", lambda m: m["engine.count_points.calls"] == 0),
    ],
    "oracle_crosscheck": [
        ("count_points + barycentric self time > half of job time", lambda m: m["share.count_points_barycentric"] > 0.5),
    ],
}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import ehrhart from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ehrhart", "cli.py")):
        raise ProgramMissing(f"no ehrhart package under {SRC}")
    sys.path.insert(0, SRC)
    modules = {"ehrhart": importlib.import_module("ehrhart")}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"ehrhart.{layer}")
    if not os.path.abspath(modules["ehrhart"].__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"ehrhart was imported from {modules['ehrhart'].__file__}")
    return modules


class Pass:
    """Results of running a sequence of jobs."""

    def __init__(self):
        self.latencies: list[float] = []
        # The same times at the reference CPU speed, when a probe was given.
        self.scaled: list[float] = []
        self.failures: list[tuple[list[str], str]] = []
        self.output_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def jobs_per_s(self) -> float:
        return (self.attempted - len(self.failures)) / self.busy_s

    @property
    def reference_jobs_per_s(self) -> float:
        """Correct jobs per second of job time at the reference speed."""
        return (self.attempted - len(self.failures)) / sum(self.scaled)


def run_job(cli, job) -> tuple[float, str, str | None]:
    """Run one job; return (wall seconds, stdout, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:
            error = "uncaught " + traceback.format_exc(limit=-2).strip().replace("\n", " | ")
        wall = time.perf_counter() - t0
    text = out.getvalue()
    if error is None and err.getvalue():
        error = "stderr: " + err.getvalue().strip().replace("\n", " | ")[:400]
    if error is None:
        try:
            payload = json.loads(text)
        except ValueError:
            error = "stdout is not one JSON document"
        else:
            error = job.check(payload, code) if isinstance(payload, dict) else "stdout is not a JSON object"
    return wall, text, error


def run_pass(cli, workload, seed: int, workdir: str, *, seconds=None, rounds=None, tracer=None,
             probe=None, between=None) -> Pass:
    """Run whole rounds: ``rounds`` of them, or until ``seconds`` of job time.

    ``probe`` scales each job time right after the job, and job time is then
    counted at the reference speed, so that how many rounds run does not
    depend on the speed of the CPU.  ``between`` is called after each job,
    outside the timed region.
    """
    result = Pass()
    r = 0
    while True:
        for job in workload.make_round(seed, r, workdir):
            if tracer is not None:
                tracer.job_id = result.attempted
            wall, text, error = run_job(cli, job)
            result.latencies.append(wall)
            if probe is not None:
                result.scaled.append(probe.scale(wall))
            result.output_bytes += len(text.encode())
            if error is not None:
                result.failures.append((job.argv, error))
            if between is not None:
                between()
        r += 1
        if rounds is not None and r >= rounds:
            return result
        spent = sum(result.scaled) if probe is not None else result.busy_s
        if seconds is not None and spent >= seconds and result.attempted >= MIN_JOBS:
            return result


class SetupSampler:
    """Wall time of fresh interpreters that import the CLI and answer a check.

    Samples are spread over the whole run (one per ``SETUP_EVERY_S``); each
    is bracketed by bursts of speed probes, and the median of the samples at
    the reference speed is reported.
    """

    CMD = [sys.executable, "-E", "-c", SETUP_CODE, SRC]

    def __init__(self):
        # The first start may compile bytecode, which later starts reuse.
        subprocess.run(self.CMD, stdout=subprocess.DEVNULL, check=True, timeout=60, cwd=ROOT)
        self.times: list[float] = []
        self.scaled: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        proc, wall, scaled = timed_at_reference(
            lambda: subprocess.run(self.CMD, stdout=subprocess.PIPE, timeout=60, cwd=ROOT))
        self.times.append(wall)
        self.scaled.append(scaled)
        self._last = time.perf_counter()
        if proc.returncode != 0 or not proc.stdout.startswith(b"status ok"):
            raise RuntimeError(f"set-up check failed with exit code {proc.returncode}")

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.sample()

    def finish(self) -> list[float]:
        """Take the missing samples; return the scaled times."""
        while len(self.times) < SETUP_MIN_SAMPLES:
            self.sample()
        return self.scaled


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def memory_pass(cli, workload, seed: int, workdir: str) -> tuple[list[float], Pass]:
    """Peak memory each job allocates, in KiB, measured with tracemalloc.

    The peak is taken above the level at the start of the job, after a
    garbage collection, so that garbage left by earlier jobs is not counted.
    Outputs are checked as in the timed pass.
    """
    jobs = sorted(workload.make_round(seed, 0, workdir), key=lambda job: (len(job.argv), job.argv))[-MEMORY_JOBS:]
    result = Pass()
    peaks = []
    tracemalloc.start()
    try:
        for job in jobs:
            gc.collect()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            wall, _, error = run_job(cli, job)
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / 1024)
            result.latencies.append(wall)
            if error is not None:
                result.failures.append((job.argv, error))
    finally:
        tracemalloc.stop()
    return peaks, result


def end_to_end(cli, workload, seed: int, seconds: float, workdir: str):
    # Warm-up: the first job of round 0, untimed and not counted.
    run_job(cli, workload.make_round(seed, 0, workdir)[0])
    sampler = SetupSampler()
    probe = SpeedProbe()
    result = run_pass(cli, workload, seed, workdir, seconds=seconds, probe=probe, between=sampler.sample_if_due)
    setup = sampler.finish()
    print(f"wall times: jobs_per_s {result.jobs_per_s:.6g}, latency_p50_ms {statistics.median(result.latencies) * 1e3:.6g}, "
          f"latency_p90_ms {p90(result.latencies) * 1e3:.6g}, setup_s {statistics.median(sampler.times):.6g}; "
          f"speed probe mean {statistics.fmean(probe.durations) * 1e3:.4g} ms over {len(probe.durations)} probes")
    # Read before the memory pass, whose tracemalloc bookkeeping adds to it.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peaks, memory = memory_pass(cli, workload, seed, workdir)
    n = result.attempted
    metrics = {
        "jobs_per_s": (result.reference_jobs_per_s, "jobs/s", n),
        "latency_p50_ms": (statistics.median(result.scaled) * 1e3, "ms", n),
        "latency_p90_ms": (p90(result.scaled) * 1e3, "ms", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mib": (rss_mib, "MiB", 1),
        "job_alloc_peak_kib": (statistics.mean(peaks), "KiB", len(peaks)),
    }
    return metrics, [result, memory]


def per_layer(cli, modules, workload, seed: int, workdir: str, spans_path: str):
    rounds = workload.trace_rounds
    # The probe runs between jobs, outside every span.
    probe = SpeedProbe()
    plain = run_pass(cli, workload, seed, workdir, rounds=rounds, probe=probe)
    tracer = Tracer()
    tracer.install(modules)
    try:
        traced = run_pass(cli, workload, seed, workdir, rounds=rounds, tracer=tracer, probe=probe)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)

    n = traced.attempted
    job_s = traced.busy_s
    m: dict[str, tuple[float, str]] = {}
    for name in (
        "intlinalg.solve_rational", "intlinalg.inverse_unimodular", "intlinalg.smith_normal_form",
        "intlinalg.determinant", "engine.box_points", "engine.count_points", "engine.ehrhart_coefficients",
        "simplex.barycentric", "simplex.construct", "simplex.pyramid", "simplex.load_simplex",
        "realizer.realize", "classifier.is_realizable", "cli.main",
    ):
        calls, self_s, _ = tracer.stat(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
    # Both spend most of their time in solve_rational children.
    for name in ("intlinalg.inverse_unimodular", "engine.box_points"):
        m[f"{name}.total_s"] = (tracer.stat(name)[2], "s")
    c = tracer.counters
    for name in (
        "intlinalg.snf.box_size", "engine.box_points.points", "engine.count_points.candidates",
        "engine.count_points.hits", "engine.count_points.refused", "realizer.lifts",
    ):
        m[name] = (c[name], "count")
    candidates = c["engine.count_points.candidates"]
    m["engine.count_points.hit_ratio"] = (c["engine.count_points.hits"] / candidates if candidates else 0.0, "ratio")
    m["realizer.verify_s"] = (tracer.child_time("engine.delta_from_box", "realizer.realize"), "s")
    m["cli.output_bytes"] = (traced.output_bytes, "bytes")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            sum(s for name, s in zip(tracer.names, tracer.self_s) if name.startswith(layer + ".")),
            "s",
        )
    m["share.box_points_solve_rational"] = (
        (tracer.stat("engine.box_points")[1] + tracer.stat("intlinalg.solve_rational")[1]) / job_s, "ratio")
    m["share.count_points_barycentric"] = (
        (tracer.stat("engine.count_points")[1] + tracer.stat("simplex.barycentric")[1]) / job_s, "ratio")
    m["trace.jobs"] = (n, "count")
    m["trace.job_s"] = (job_s, "s")
    m["trace.untraced_jobs_per_s"] = (plain.reference_jobs_per_s, "jobs/s")
    m["trace.traced_jobs_per_s"] = (traced.reference_jobs_per_s, "jobs/s")
    m["trace.overhead_jobs_per_s"] = (plain.reference_jobs_per_s - traced.reference_jobs_per_s, "jobs/s")

    violations = 0
    for text, holds in BYPASS_CHECKS[workload.name]:
        ok = holds({k: v[0] for k, v in m.items()})
        violations += not ok
        print(f"bypass {'holds' if ok else 'VIOLATED'}: {text}")
    m["check.bypass_violations"] = (violations, "count")
    print(f"spans {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}")
    return {k: (v, unit, n) for k, (v, unit) in m.items()}, [plain, traced]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    try:
        modules = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    print(f"workload {name}: {workload.why}")
    print(f"seed {seed}, closed loop, 1 client, 1 thread, trace {trace}")
    cli = modules["cli"]
    try:
        if trace:
            spans = os.path.join(OUT, f"spans-{name}.csv.gz")
            metrics, passes = per_layer(cli, modules, workload, seed, workdir, spans)
        else:
            metrics, passes = end_to_end(cli, workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, (value, unit, n) in metrics.items():
        print(f"{key} {value:.6g} {unit} n={n}")
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    print(f"failure_ratio {len(failures)}/{attempted} failed/attempted")
    for argv, reason in failures:
        print(f"FAILED {' '.join(argv)}: {reason}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode == 2 or not lines:
            return 2
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
        print()
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, args.trace)
    return run_workload(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
