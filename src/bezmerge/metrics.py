"""Approximation errors between a composite curve and its merged replacement.

The L2 distance has a closed form in the control points: re-express the merged
curve in each segment's local Bernstein basis (through the subdivision table),
then every cross term is a bilinear form in the Bernstein product-integral
coefficients a[i][j] = <B^n_i, B^m_j>. The maximum error is sampled on a
uniform parameter grid. The arc-length partition places knots proportionally
to cumulative segment lengths.
"""

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
from .subdivision import DTable

DEFAULT_MAX_ERROR_SAMPLES = 500
_ARC_LENGTH_NODES = 32


@dataclass(frozen=True)
class ErrorReport:
    """L2 and sampled-maximum distances between original and merged curves."""

    e2: float
    e_inf: float
    samples: int

    def __post_init__(self):
        if self.e2 < 0.0 or self.e_inf < 0.0:
            raise ValueError("error measures must be nonnegative")


def a_table(n: int, m: int) -> np.ndarray:
    """Product-integral coefficients a[i][j] = <B^n_i, B^m_j>, shape (n+1, m+1).

    a[i][j] = binom(n,i) binom(m,j) / ((m+n+1) binom(n+m, i+j)).
    """
    b_n = np.array([binomial(n, i) for i in range(n + 1)])
    b_m = np.array([binomial(m, j) for j in range(m + 1)])
    b_nm = np.array([binomial(n + m, q) for q in range(n + m + 1)])
    i_plus_j = np.add.outer(np.arange(n + 1), np.arange(m + 1))
    return np.outer(b_n, b_m) / ((m + n + 1) * b_nm[i_plus_j])


def i_nm(u: np.ndarray, v: np.ndarray, a: np.ndarray) -> float:
    """Bilinear form sum_j u_j sum_z a[j][z] v_z = integral of the two Bezier functions."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[0] != a.shape[0] or v.shape[0] != a.shape[1]:
        raise ValueError(
            f"coefficient lengths {u.shape[0]}, {v.shape[0]} do not match "
            f"table shape {a.shape}")
    return float(u @ a @ v)


def rho_coeffs(merged: BezierSegment, dtab: DTable) -> np.ndarray:
    """Merged-curve controls re-expressed in each segment's local basis.

    rho[i][z] = sum_j r_j d^{(i)}_{jz}; shape (s, m+1, d).
    """
    return np.swapaxes(dtab.coeffs, 1, 2) @ merged.points


def l2_error(curve: CompositeBezierCurve, merged: BezierSegment, dtab: DTable) -> float:
    """Closed-form L2 distance between the composite curve and the merged curve.

    dtab must be d_table(merged.degree, curve.partition); ParameterError otherwise.

    E2^2 = sum_i dt_{i-1} * sum over coordinates of
           [I(pi, pi) - 2 I(pi, rho_i) + I(rho_i, rho_i)].
    """
    m = merged.degree
    dtab.check_matches(m, curve.partition)
    rho = rho_coeffs(merged, dtab)
    kn = curve.partition.knots
    a_mm = a_table(m, m)
    a_by_degree = {}
    total = 0.0
    magnitude = 0.0
    for i, seg in enumerate(curve.segments):
        n = seg.degree
        if n not in a_by_degree:
            a_by_degree[n] = (a_table(n, n), a_table(n, m))
        a_nn, a_nm = a_by_degree[n]
        pi = seg.points
        ri = rho[i]
        i_pp = float(np.sum(pi * (a_nn @ pi)))
        i_pr = float(np.sum(pi * (a_nm @ ri)))
        i_rr = float(np.sum(ri * (a_mm @ ri)))
        dt = kn[i + 1] - kn[i]
        total += dt * (i_pp - 2.0 * i_pr + i_rr)
        magnitude += dt * (abs(i_pp) + 2.0 * abs(i_pr) + abs(i_rr))
    # The terms cancel, so rounding error scales with their size, not the distance.
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
