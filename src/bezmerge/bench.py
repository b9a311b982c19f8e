"""Timing harness checking how merge cost scales with s and m.

Times only the control-point computation (tables plus projection), not error
evaluation. Expected behavior is linear in the number of segments and
quadratic in the target degree; the log-log slope fits make that checkable.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import dualbasis
from .curves import BezierSegment, CompositeBezierCurve, Partition
from .merging import MergeParams, merge


@dataclass
class BenchResult:
    s_values: list
    s_times: list
    m_values: list
    m_times: list
    slope_s: float
    slope_m: float
    m_fixed: int
    s_fixed: int
    repeats: int


def random_instance(s: int, m: int, rng, segment_degree: int = 3, dim: int = 2):
    """Random continuous composite curve with s segments on a uniform partition."""
    segments = []
    prev_end = None
    for _ in range(s):
        pts = rng.random((segment_degree + 1, dim))
        if prev_end is not None:
            pts[0] = prev_end
        prev_end = pts[-1]
        segments.append(BezierSegment(pts))
    knots = np.linspace(0.0, 1.0, s + 1)
    return CompositeBezierCurve(segments=tuple(segments), partition=Partition(knots))


def _merge_seconds(curve, params) -> float:
    t0 = time.perf_counter()
    merge(curve, params)
    return time.perf_counter() - t0


def _fit_slope(xs, ts) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ts, float)), 1)[0])


def bench_scaling(
    s_values=(2, 4, 8, 16),
    m_values=(8, 16, 32),
    repeats: int = 5,
    m_fixed: int = 12,
    s_fixed: int = 4,
    seed: int = 0,
) -> BenchResult:
    """Median merge timings for an s sweep (at m_fixed) and an m sweep (at s_fixed).

    Every point gets one untimed warm-up merge first, which also builds and
    caches its c-table. The timed repeats then go round-robin over all points,
    so a host slowdown lands on every point alike instead of tilting the fit.
    """
    rng = np.random.default_rng(seed)
    params = lambda m: MergeParams(m=m, k=1, l=1)
    points = [(random_instance(s, m_fixed, rng), params(m_fixed)) for s in s_values]
    points += [(random_instance(s_fixed, m, rng), params(m)) for m in m_values]

    # Large-degree sweeps intentionally hit ill-conditioned tables; silence the
    # per-call conditioning warnings for the duration.
    dual_log = logging.getLogger(dualbasis.__name__)
    old_level = dual_log.level
    dual_log.setLevel(logging.ERROR)
    try:
        for curve, p in points:
            merge(curve, p)
        times = [[] for _ in points]
        for _ in range(repeats):
            for (curve, p), point_times in zip(points, times):
                point_times.append(_merge_seconds(curve, p))
    finally:
        dual_log.setLevel(old_level)

    medians = [float(np.median(t)) for t in times]
    s_times, m_times = medians[: len(s_values)], medians[len(s_values) :]

    return BenchResult(
        s_values=list(s_values),
        s_times=s_times,
        m_values=list(m_values),
        m_times=m_times,
        slope_s=_fit_slope(s_values, s_times),
        slope_m=_fit_slope(m_values, m_times),
        m_fixed=m_fixed,
        s_fixed=s_fixed,
        repeats=repeats,
    )
