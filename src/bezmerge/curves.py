"""Bezier curve primitives: segments, composite curves, Bernstein evaluation.

Control points are plain float ndarrays of shape (d,); a segment stores its
points as an immutable (n+1, d) array. A composite curve maps s segments onto
consecutive subintervals of [0, 1] given by a knot partition.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegreeBoundError, DomainError

# Degrees above 32 are rejected: the dual-basis coefficients grow so fast with
# the degree that binary64 results become meaningless well before 64.
MAX_DEGREE = 32
# Binomial and Bernstein orders up to 2m + 2 are accepted; a_table(m, m) reads 2m.
_MAX_BINOMIAL_N = 2 * MAX_DEGREE + 2


def binomial(n: int, k: int) -> float:
    """binom(n, k), correctly rounded to float; 0.0 when k < 0 or k > n."""
    if n < 0 or n > _MAX_BINOMIAL_N:
        raise DegreeBoundError(
            f"binomial order {n} outside supported range [0, {_MAX_BINOMIAL_N}]")
    if k < 0 or k > n:
        return 0.0
    return float(math.comb(n, k))


def bernstein_eval(n: int, j: int, u: float) -> float:
    """Bernstein basis value binom(n,j) u^j (1-u)^(n-j); 0.0 when j is out of range."""
    if n < 0 or n > _MAX_BINOMIAL_N:
        raise DegreeBoundError(f"Bernstein degree {n} outside [0, {_MAX_BINOMIAL_N}]")
    if j < 0 or j > n:
        return 0.0
    return binomial(n, j) * u**j * (1.0 - u) ** (n - j)


@dataclass(frozen=True, slots=True)
class BezierSegment:
    """A degree-n Bezier curve over the local parameter u in [0, 1].

    points has shape (n+1, d); a 1-D input is treated as a curve in R^1.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"control points must form an (n+1, d) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control points must be finite")
        if pts.shape[0] - 1 > MAX_DEGREE:
            raise DegreeBoundError(
                f"segment degree {pts.shape[0] - 1} exceeds the supported bound {MAX_DEGREE}")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def degree(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def hodograph(self) -> "BezierSegment":
        """Derivative curve: degree n-1 with control points n*(p[i+1]-p[i])."""
        n = self.degree
        if n == 0:
            return BezierSegment(np.zeros((1, self.dim)))
        return BezierSegment(n * (self.points[1:] - self.points[:-1]))


@dataclass(frozen=True)
class Partition:
    """Strictly increasing knots t_0 = 0 < t_1 < ... < t_s = 1."""

    knots: np.ndarray

    def __post_init__(self):
        kn = np.asarray(self.knots, dtype=float)
        if kn.ndim != 1 or kn.shape[0] < 2:
            raise ValueError("partition needs at least two knots")
        if not np.all(np.isfinite(kn)):
            raise ValueError("partition knots must be finite")
        if kn[0] != 0.0 or kn[-1] != 1.0:
            raise ValueError(f"partition must start at 0 and end at 1, got [{kn[0]}, {kn[-1]}]")
        if np.any(np.diff(kn) <= 0.0):
            raise ValueError("partition knots must be strictly increasing")
        kn = kn.copy()
        kn.flags.writeable = False
        object.__setattr__(self, "knots", kn)

    @property
    def count(self) -> int:
        """Number of subintervals s."""
        return self.knots.shape[0] - 1

    def delta(self, i: int) -> float:
        """Width of subinterval i (0-based): t_{i+1} - t_i."""
        return float(self.knots[i + 1] - self.knots[i])

    def locate(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Subinterval index and local parameter of each global parameter in [0, 1].

        Interior knots belong to the subinterval on their right; t = 1 belongs to
        the last one. Returns (idx, us), both shaped like ts.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
            raise DomainError(f"parameters outside [0, 1], from {ts.min()} to {ts.max()}")
        kn = self.knots
        idx = np.minimum(np.searchsorted(kn, ts, side="right") - 1, kn.shape[0] - 2)
        return idx, (ts - kn[idx]) / (kn[idx + 1] - kn[idx])


@dataclass(frozen=True)
class CompositeBezierCurve:
    """s Bezier segments mapped onto the subintervals of a partition of [0, 1].

    Segments are not required to join continuously; a warning is emitted when
    adjacent endpoints differ by more than 1e-9, since that usually indicates
    malformed input, but the least-squares machinery is well defined either way.
    """

    segments: tuple
    partition: Partition

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("composite curve needs at least one segment")
        if self.partition.count != len(segs):
            raise ValueError(
                f"{len(segs)} segments need {len(segs) + 1} knots, "
                f"got {self.partition.knots.shape[0]}")
        d = segs[0].dim
        for i, seg in enumerate(segs):
            if seg.dim != d:
                raise ValueError(f"segment {i} has dimension {seg.dim}, expected {d}")
        for i in range(len(segs) - 1):
            gap = float(np.linalg.norm(segs[i].points[-1] - segs[i + 1].points[0]))
            if gap > 1e-9:
                warnings.warn(
                    f"segments {i} and {i + 1} do not join continuously (gap {gap:.3g})",
                    stacklevel=2)
        object.__setattr__(self, "segments", segs)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def dim(self) -> int:
        return self.segments[0].dim

    @property
    def max_degree(self) -> int:
        return max(seg.degree for seg in self.segments)

    def bounding_box_diagonal(self) -> float:
        pts = np.vstack([seg.points for seg in self.segments])
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def eval_segment(seg: BezierSegment, u: float) -> np.ndarray:
    """Point on the segment at local parameter u, by de Casteljau recursion."""
    w = np.array(seg.points)
    for _ in range(seg.degree):
        w = (1.0 - u) * w[:-1] + u * w[1:]
    return w[0]


def eval_segment_many(seg: BezierSegment, us: np.ndarray) -> np.ndarray:
    """de Casteljau evaluation at an array of parameters; returns (len(us), d)."""
    us = np.asarray(us, dtype=float)
    n = seg.degree
    w = np.repeat(seg.points[:, None, :], us.shape[0], axis=1)
    u = us[:, None]
    for r in range(n):
        w = (1.0 - u) * w[: n - r] + u * w[1 : n - r + 1]
    return w[0]


def eval_composite(curve: CompositeBezierCurve, t: float) -> np.ndarray:
    """Point on the composite curve at global parameter t in [0, 1]."""
    idx, u = curve.partition.locate(t)
    return eval_segment(curve.segments[idx], u)


def eval_composite_many(curve: CompositeBezierCurve, ts: np.ndarray) -> np.ndarray:
    """Vectorized composite evaluation; all parameters must lie in [0, 1]."""
    idx, us = curve.partition.locate(ts)
    out = np.empty((us.shape[0], curve.dim))
    for i in range(curve.n_segments):
        mask = idx == i
        if not np.any(mask):
            continue
        out[mask] = eval_segment_many(curve.segments[i], us[mask])
    return out


def forward_difference(coeffs, j: int, h: int):
    """Forward difference delta^j c_h = sum_v (-1)^(j+v) binom(j,v) c_{h+v}.

    Works on 1-D sequences (returns float) and (N, d) arrays (returns (d,)).
    """
    c = np.asarray(coeffs, dtype=float)
    if j < 0 or h < 0 or h + j >= c.shape[0]:
        raise IndexError(f"difference order {j} at offset {h} overruns {c.shape[0]} coefficients")
    acc = np.zeros(c.shape[1:])
    for v in range(j + 1):
        acc = acc + (-1.0) ** (j + v) * binomial(j, v) * c[h + v]
    return float(acc) if c.ndim == 1 else acc


def endpoint_derivative(seg: BezierSegment, order: int, end: str) -> np.ndarray:
    """Derivative of the segment at u = 0 ('left') or u = 1 ('right').

    Taken with respect to the segment's local parameter:
    n!/(n-j)! * delta^j p_0 at the left end, n!/(n-j)! * delta^j p_{n-j} at the right.
    """
    n = seg.degree
    if order < 0 or order > n:
        raise ValueError(f"derivative order {order} outside [0, {n}]")
    if end not in ("left", "right"):
        raise ValueError(f"end must be 'left' or 'right', got {end!r}")
    factor = 1.0
    for i in range(order):
        factor *= n - i
    offset = 0 if end == "left" else n - order
    return factor * forward_difference(seg.points, order, offset)
