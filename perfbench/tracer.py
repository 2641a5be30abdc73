"""Span tracing of the six ``ehrhart`` layers, installed from outside.

``install`` replaces every public function of the package at every name it
is bound to (``from .x import y`` makes a second binding, e.g.
``cli.count_points``) and the ``LatticeSimplex`` methods with wrappers that
record a span: name, start, end, parent span and job id.  Spans stay in
memory in flat arrays and are written out by ``write_spans``.  ``uninstall``
puts the originals back.

A span's self time is its duration minus the durations of its direct
children; spans of one thread nest, so children never overlap.
"""
from __future__ import annotations

import collections
import gzip
import inspect
import math
import time
from array import array

import reference as ref

LAYERS = ("cli", "classifier", "realizer", "engine", "simplex", "intlinalg")
SIMPLEX_METHODS = {
    "__init__": "simplex.construct",
    "barycentric": "simplex.barycentric",
    "contains": "simplex.contains",
    "pyramid": "simplex.pyramid",
    "lifted_matrix": "simplex.lifted_matrix",
}
# Parser construction is part of the argparse cost that cli.main's self time
# is meant to show.
UNWRAPPED = {"cli.build_parser"}


def _snf_hook(counters, args, result, exc):
    if exc is None:
        counters["intlinalg.snf.box_size"] += math.prod(result.diag)


def _box_points_hook(counters, args, result, exc):
    if exc is None:
        counters["engine.box_points.points"] += len(result)


def _count_points_hook(counters, args, result, exc):
    if exc is None:
        counters["engine.count_points.candidates"] += ref.bounding_box_size(args[0].vertices, args[1])
        counters["engine.count_points.hits"] += result
    elif type(exc).__name__ == "BudgetExceededError":
        counters["engine.count_points.refused"] += 1


def _realize_hook(counters, args, result, exc):
    if exc is None:
        counters["realizer.lifts"] += result[1].lifts


HOOKS = {
    "intlinalg.smith_normal_form": _snf_hook,
    "engine.box_points": _box_points_hook,
    "engine.count_points": _count_points_hook,
    "realizer.realize": _realize_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: collections.Counter = collections.Counter()
        self.job_id = -1
        # Open spans: [span index, time covered by its children].
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def close(frame, t0):
            t1 = clock()
            stack.pop()
            idx = frame[0]
            self.start[idx] = t0
            self.end[idx] = t1
            if stack:
                stack[-1][1] += t1 - t0
            own = t1 - t0 - frame[1]
            self.self_s[nid] += own
            self.total_s[nid] += t1 - t0
            self.calls[nid] += 1

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, t0)
                if hook:
                    hook(self.counters, args, None, exc)
                raise
            close(frame, t0)
            if hook:
                hook(self.counters, args, result, None)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the functions of ``modules`` (name -> module) and LatticeSimplex."""
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                package, _, home = value.__module__.rpartition(".")
                name = f"{home}.{value.__name__}"
                if package != "ehrhart" or home not in LAYERS or name in UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(name, value)
                self._originals.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        simplex_class = modules["simplex"].LatticeSimplex
        for method, name in SIMPLEX_METHODS.items():
            original = simplex_class.__dict__[method]
            self._originals.append((simplex_class, method, original))
            setattr(simplex_class, method, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, value = self._originals.pop()
            setattr(owner, attr, value)

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) of one span name."""
        nid = self._ids.get(name)
        return (0, 0.0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid], self.total_s[nid])

    def child_time(self, child: str, parent: str) -> float:
        """Total duration of ``child`` spans opened directly under ``parent``."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        total = 0.0
        for i, nid in enumerate(self.name_id):
            p = self.parent[i]
            if nid == cid and p >= 0 and self.name_id[p] == pid:
                total += self.end[i] - self.start[i]
        return total

    def write_spans(self, path: str) -> None:
        """Write every span as gzip CSV, times in seconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    f"{i},{self.names[nid]},{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},{self.parent[i]},{self.job[i]}\n"
                )
