"""The tests' reference lattice-point count, kept apart from the package.

This is the scan ``ehrhart.engine.count_points`` used before it sorted its
forms by slope: every line walks all forms and branches on each one's kind,
and every base is rebuilt from ``c * x``.  It shares the weight forms and the
bounding box with the engine but none of the line arithmetic, so the tests
use it as their reference for ``count_points``.
"""
from __future__ import annotations


def _line_count(bases: list[int], slopes: tuple[int, ...], lo: int, hi: int, n_weights: int, least: int) -> int:
    """Integers x in [lo, hi] with base + slope * x >= least for the first
    ``n_weights`` forms and == 0 for the rest."""
    for i, (b, c) in enumerate(zip(bases, slopes)):
        if i < n_weights:
            if c > 0:
                lo = max(lo, -((b - least) // c))
            elif c < 0:
                hi = min(hi, (b - least) // -c)
            elif b < least:
                return 0
        elif c:
            x, rest = divmod(-b, c)
            if rest:
                return 0
            lo, hi = max(lo, x), min(hi, x)
        elif b:
            return 0
        if lo > hi:
            return 0
    return hi - lo + 1


def _scan(
    j: int, bases: list[int], slopes: list[tuple[int, ...]], lo: list[int], hi: list[int], n_weights: int, least: int
) -> int:
    """Points of the box lo..hi from coordinate j on, every form at base."""
    if j == len(slopes) - 1:
        return _line_count(bases, slopes[j], lo[j], hi[j], n_weights, least)
    return sum(
        _scan(j + 1, [b + c * x for b, c in zip(bases, slopes[j])], slopes, lo, hi, n_weights, least)
        for x in range(lo[j], hi[j] + 1)
    )


def reference_count(s, n: int, strict: bool = False) -> int:
    """|nP ∩ Z^N| by the unsorted scan; strict counts the interior dilate."""
    lo = [min(n * v[j] for v in s.vertices) for j in range(s.ambient_dim)]
    hi = [max(n * v[j] for v in s.vertices) for j in range(s.ambient_dim)]
    wf = s.weight_forms()
    forms = wf.forms + wf.equalities
    n_weights = len(wf.forms)
    least = 1 if strict else 0
    bases = [f[-1] * n for f in forms]
    if s.ambient_dim == 0:
        # The one point of Z^0 is a line of length 1 on which every form is constant.
        return _line_count(bases, (0,) * len(forms), 0, 0, n_weights, least)
    slopes = [tuple(f[j] for f in forms) for j in range(s.ambient_dim)]
    return _scan(0, bases, slopes, lo, hi, n_weights, least)
