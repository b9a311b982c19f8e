"""Approximation errors between a composite curve and its merged replacement.

The L2 distance has a closed form in the control points: restrict the merged
curve to each knot interval by subdivision, raise it and the segment to one
degree, and the squared distance is a quadratic form in their control-point
difference over the Bernstein product-integral coefficients
a[i][j] = <B^n_i, B^m_j>. The maximum error is sampled on a
uniform parameter grid. The arc-length partition places knots proportionally
to cumulative segment lengths.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    BezierSegment,
    CompositeBezierCurve,
    Partition,
    binomial,
    eval_composite_many,
    eval_segment_many,
)
from .errors import DegenerateSegmentError, InternalConsistencyError
from .quadrature import gauss_legendre_unit

DEFAULT_MAX_ERROR_SAMPLES = 500
_ARC_LENGTH_NODES = 32


@dataclass(frozen=True)
class ErrorReport:
    """L2 and sampled-maximum distances between original and merged curves."""

    e2: float
    e_inf: float
    samples: int

    def __post_init__(self):
        if not (0.0 <= self.e2 < math.inf and 0.0 <= self.e_inf < math.inf):
            raise ValueError("error measures must be finite and nonnegative")


@functools.lru_cache(maxsize=None)
def _pascal(m: int) -> np.ndarray:
    """Read-only (m+1, m+1) table of binom(h, j), zero for j > h."""
    tri = np.array([[binomial(h, j) for j in range(m + 1)] for h in range(m + 1)])
    tri.flags.writeable = False
    return tri


def a_table(n: int, m: int) -> np.ndarray:
    """Product-integral coefficients a[i][j] = <B^n_i, B^m_j>, shape (n+1, m+1).

    a[i][j] = binom(n,i) binom(m,j) / ((m+n+1) binom(n+m, i+j)).
    """
    tri = _pascal(n + m)
    i_plus_j = np.add.outer(np.arange(n + 1), np.arange(m + 1))
    return np.outer(tri[n, : n + 1], tri[m, : m + 1]) / ((m + n + 1) * tri[n + m, i_plus_j])


def i_nm(u: np.ndarray, v: np.ndarray, a: np.ndarray) -> float:
    """Bilinear form sum_j u_j sum_z a[j][z] v_z = integral of the two Bezier functions."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[0] != a.shape[0] or v.shape[0] != a.shape[1]:
        raise ValueError(
            f"coefficient lengths {u.shape[0]}, {v.shape[0]} do not match "
            f"table shape {a.shape}")
    return float(u @ a @ v)


def _left_split(x: np.ndarray, m: int) -> np.ndarray:
    """Matrices B^h_j(x), shape (len(x), m+1, m+1), taking degree-m controls to
    those of the same curve on [0, x] (de Casteljau; nonnegative weights)."""
    powers = np.arange(m + 1)
    x_pow = x[:, None] ** powers
    y_pow = (1.0 - x)[:, None] ** powers
    # Above the diagonal h - j < 0 reads a wrapped power that the zero binomial masks.
    return _pascal(m) * x_pow[:, None, :] * y_pow[:, np.subtract.outer(powers, powers)]


@functools.lru_cache(maxsize=None)
def _lift(n: int, q: int) -> np.ndarray:
    """Read-only degree-raising matrix from n to q >= n, shape (q+1, n+1), weights >= 0."""
    tri = _pascal(q)
    h, j = np.ogrid[: q + 1, : n + 1]
    # h - j < 0 reads a wrapped column past row q - n's diagonal, which is zero.
    lift = tri[q - n, h - j] * tri[n, j] / tri[q, h]
    lift.flags.writeable = False
    return lift


def rho_coeffs(merged: BezierSegment, partition: Partition) -> np.ndarray:
    """Merged-curve controls re-expressed in each segment's local basis.

    Row i holds the controls of the merged curve restricted to the knot interval
    [t_i, t_{i+1}], shape (s, m+1, d): split at t_{i+1}, then keep the part of
    [0, t_{i+1}] past t_i, i.e. the reversed left split at dt_i / t_{i+1}.
    """
    m = merged.degree
    kn = partition.knots
    to_hi = _left_split(kn[1:], m) @ merged.points
    from_lo = _left_split(np.diff(kn) / kn[1:], m)[:, ::-1, ::-1]
    return from_lo @ to_hi


def l2_error(curve: CompositeBezierCurve, merged: BezierSegment) -> float:
    """Closed-form L2 distance between the composite curve and the merged curve.

    On each knot interval both curves are raised to one degree
    q = max(m, n_max) and subtracted control by control, so no large terms cancel:

    E2^2 = sum_i dt_i * sum over coordinates of x_i^T A x_i,

    with x_i the control-point difference on interval i and A = a_table(q, q).
    """
    m = merged.degree
    q = max(m, curve.max_degree)
    rho = _lift(m, q) @ rho_coeffs(merged, curve.partition)
    diffs = np.stack([_lift(seg.degree, q) @ seg.points for seg in curve.segments]) - rho
    a_qq = a_table(q, q)
    dts = np.diff(curve.partition.knots)
    total = float(dts @ np.sum(diffs * (a_qq @ diffs), axis=(1, 2)))
    size = np.abs(diffs)
    magnitude = float(dts @ np.sum(size * (a_qq @ size), axis=(1, 2)))
    # A is a rounded, ill-conditioned Gram matrix: the form can dip below zero
    # by rounding noise relative to |x|^T A |x|, but not further.
    if total < -1e-10 * magnitude:
        raise InternalConsistencyError(
            f"squared L2 distance evaluated to {total:.3e} < 0")
    return float(np.sqrt(max(total, 0.0)))


def max_error(
    curve: CompositeBezierCurve,
    merged: BezierSegment,
    n_samples: int = DEFAULT_MAX_ERROR_SAMPLES,
) -> float:
    """Maximum Euclidean distance over the grid {0, 1/N, ..., 1}, N = n_samples."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    diff = eval_composite_many(curve, ts) - eval_segment_many(merged, ts)
    return float(np.sqrt((diff * diff).sum(axis=1)).max())


def segment_arc_length(seg: BezierSegment) -> float:
    """Arc length of one segment: 32-node Gauss-Legendre on the hodograph norm."""
    nodes, weights = gauss_legendre_unit(_ARC_LENGTH_NODES)
    speeds = np.sqrt((eval_segment_many(seg.hodograph(), nodes) ** 2).sum(axis=1))
    return float(weights @ speeds)


def arc_length_partition(segments) -> Partition:
    """Knots proportional to cumulative arc length: t_q = L_q / L_s."""
    segments = list(segments)
    if not segments:
        raise ValueError("need at least one segment")
    lengths = []
    for i, seg in enumerate(segments):
        length = segment_arc_length(seg)
        if length <= 0.0:
            raise DegenerateSegmentError(f"segment {i} has zero arc length")
        lengths.append(length)
    cum = np.cumsum(lengths)
    knots = np.empty(len(segments) + 1)
    knots[0] = 0.0
    knots[-1] = 1.0
    knots[1:-1] = cum[:-1] / cum[-1]
    return Partition(knots)
