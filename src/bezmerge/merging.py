"""Least-squares merging of composite-curve segments into one Bezier curve.

Given a composite curve P with s segments on a partition of [0, 1], find the
degree-m Bezier curve R minimizing the L2 distance over [0, 1] subject to
R matching P's derivatives of order < k at t = 0 and order < l at t = 1.

The constrained controls r_0..r_{k-1} and r_{m-l+1}..r_m follow directly from
the endpoint-derivative formulas; the free middle block is the orthogonal
projection of the remainder onto the constrained space, computed in the dual
Bernstein basis and converted back through the c-table. The projection is
float64 numpy over the product-integral table and the d-table; only the
contraction against the c-table (a cancelling Gram inverse) is correctly
rounded. Total cost is O(s m^2).

merge_oracle solves the same problem through the normal equations with
quadrature-evaluated moments; it shares only the endpoint formulas with merge
and exists as an independent cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    BezierSegment,
    CompositeBezierCurve,
    MAX_DEGREE,
    bernstein_eval,
    binomial,
    eval_segment_many,
    forward_difference,
)
from .dd import two_prod
from .dualbasis import CTable, c_table, gram_matrix
from .errors import ValidationError
from .metrics import a_table
from .quadrature import gauss_legendre_unit
from .subdivision import DTable, d_table

CONVENTIONS = ("local", "global")


@dataclass(frozen=True, slots=True)
class MergeParams:
    """Target degree m and endpoint continuity orders (k at 0, l at 1).

    derivative_convention selects how P's endpoint derivatives are read:
    'local' matches the first/last segment's derivatives in their own
    parameter (the convention the coefficient formulas are written in);
    'global' rescales by the subinterval widths so that derivatives are taken
    with respect to the global parameter t.
    """

    m: int
    k: int
    l: int
    derivative_convention: str = "local"


def validate(curve: CompositeBezierCurve, params: MergeParams) -> list:
    """Check params against the curve; returns a list of violations (empty if valid)."""
    problems = []
    m, k, l = params.m, params.k, params.l
    if params.derivative_convention not in CONVENTIONS:
        problems.append(
            f"derivative_convention must be one of {CONVENTIONS}, "
            f"got {params.derivative_convention!r}")
    if m > MAX_DEGREE:
        problems.append(f"target degree m={m} exceeds the supported bound {MAX_DEGREE}")
    if k < 0:
        problems.append(f"left continuity order k={k} is negative")
    if l < 0:
        problems.append(f"right continuity order l={l} is negative")
    n_max = curve.max_degree
    if m < n_max:
        problems.append(f"target degree m={m} is below the maximum segment degree {n_max}")
    n1 = curve.segments[0].degree
    ns = curve.segments[-1].degree
    if k > n1 + 1:
        problems.append(f"k={k} exceeds n_1+1={n1 + 1} (first segment degree {n1})")
    if l > ns + 1:
        problems.append(f"l={l} exceeds n_s+1={ns + 1} (last segment degree {ns})")
    if k >= 0 and l >= 0 and k + l > m:
        problems.append(f"k+l={k + l} exceeds target degree m={m}")
    return problems


def constrained_head(first_seg: BezierSegment, m: int, k: int, step: float = 1.0) -> np.ndarray:
    """Controls r_0..r_{k-1} pinned by the left-endpoint derivative constraints.

    r_j = binom(n,j)/binom(m,j) * delta^j p_0 / step^j
          - sum_{h<j} (-1)^(j+h) binom(j,h) r_h,
    computed strictly in increasing j since each r_j consumes all previous.
    step = 1 matches the segment's local-parameter derivatives; step = dt_0
    matches global-parameter derivatives.
    """
    n = first_seg.degree
    out = np.empty((k, first_seg.dim))
    for j in range(k):
        dj = forward_difference(first_seg.points, j, 0)
        val = binomial(n, j) / binomial(m, j) * dj / step**j
        for h in range(j):
            val = val - (-1.0) ** (j + h) * binomial(j, h) * out[h]
        out[j] = val
    return out


def constrained_tail(last_seg: BezierSegment, m: int, l: int, step: float = 1.0) -> np.ndarray:
    """Controls r_{m-l+1}..r_m (ascending index) pinned by the right endpoint.

    r_{m-j} = (-1)^j binom(n,j)/binom(m,j) * delta^j p_{n-j} / step^j
              - sum_{h=1}^{j} (-1)^h binom(j,h) r_{m-j+h},  j = 0..l-1.
    """
    n = last_seg.degree
    out = np.empty((l, last_seg.dim))
    for j in range(l):
        dj = forward_difference(last_seg.points, j, n - j)
        val = (-1.0) ** j * binomial(n, j) / binomial(m, j) * dj / step**j
        for h in range(1, j + 1):
            # r_{m-j+h} sits at ascending-order slot l-1-(j-h).
            val = val - (-1.0) ** h * binomial(j, h) * out[l - 1 - j + h]
        out[l - 1 - j] = val
    return out


def segment_dual_coeffs(seg: BezierSegment, m: int) -> np.ndarray:
    """Coefficients of the segment in the unconstrained degree-m dual basis.

    hat_p[v] = <P, B^m_v> in the segment's local parameter
             = sum_q a[q][v] p_q with a = a_table(n, m),
    so that P = sum_v hat_p[v] D^m_v. Shape (m+1, d); cost O(m n).
    """
    return a_table(seg.degree, m).T @ seg.points


def dual_mid_coeffs(
    hat_ps: list,
    dtab: DTable,
    head: np.ndarray,
    tail: np.ndarray,
    m: int,
    k: int,
    l: int,
) -> np.ndarray:
    """Dual-basis coefficients hat_r_h (h = k..m-l) of the free middle block.

    hat_r_h = sum_i dt_{i-1} sum_v d^{(i)}_{hv} hat_p^i_v
              - sum_{v fixed} <B^m_h, B^m_v> r_v,
    where the fixed v are 0..k-1 (head) and m-l+1..m (tail).
    """
    free = slice(k, m - l + 1)
    fixed = np.r_[0:k, m - l + 1 : m + 1]
    dts = np.diff(dtab.partition.knots)
    projected = np.einsum("i,ihv,ivc->hc", dts, dtab.coeffs[:, free], np.asarray(hat_ps))
    return projected - a_table(m, m)[free, fixed] @ np.vstack([head, tail])


def mid_controls(hat_r: np.ndarray, ctab: CTable) -> np.ndarray:
    """Bernstein controls r_k..r_{m-l} from dual coefficients: r_j = sum_h hat_r_h c[h][j].

    Each entry is the correctly rounded exact sum: the c-table's large entries
    cancel, so a plain float64 contraction would add rounding noise of their size.
    """
    size, dim = hat_r.shape
    prods, errs = two_prod(ctab.coeffs[:, :, None], hat_r[:, None, :])
    terms = np.concatenate([prods, errs]).reshape(2 * size, size * dim)
    return np.array([math.fsum(col) for col in terms.T.tolist()]).reshape(size, dim)


def _convention_steps(curve: CompositeBezierCurve, params: MergeParams):
    if params.derivative_convention == "global":
        return curve.partition.delta(0), curve.partition.delta(curve.n_segments - 1)
    return 1.0, 1.0


def merge(curve: CompositeBezierCurve, params: MergeParams) -> BezierSegment:
    """Merged degree-m curve on [0, 1] minimizing the L2 distance to the input."""
    problems = validate(curve, params)
    if problems:
        raise ValidationError(problems)
    m, k, l = params.m, params.k, params.l
    dtab = d_table(m, curve.partition)
    head_step, tail_step = _convention_steps(curve, params)

    head = constrained_head(curve.segments[0], m, k, head_step)
    tail = constrained_tail(curve.segments[-1], m, l, tail_step)
    hat_ps = [segment_dual_coeffs(seg, m) for seg in curve.segments]
    hat_r = dual_mid_coeffs(hat_ps, dtab, head, tail, m, k, l)
    ctab = c_table(m, k, l)
    mid = mid_controls(hat_r, ctab)

    controls = np.empty((m + 1, curve.dim))
    controls[:k] = head
    controls[k : m - l + 1] = mid
    controls[m - l + 1 :] = tail
    return BezierSegment(controls)


def merge_oracle(curve: CompositeBezierCurve, params: MergeParams) -> BezierSegment:
    """Same problem solved through the normal equations, for cross-checking.

    The endpoint formulas are shared with merge; the free block solves
    G x = b with G the constrained Bernstein Gram matrix and
    b_j = <P - fixed part, B^m_j> evaluated by per-segment Gauss-Legendre
    quadrature (exact: integrand degree is at most 2m). Intended for test
    scales (m <= 14); cost is O(s m^2 g + m^3).
    """
    problems = validate(curve, params)
    if problems:
        raise ValidationError(problems)
    m, k, l = params.m, params.k, params.l
    head_step, tail_step = _convention_steps(curve, params)

    head = constrained_head(curve.segments[0], m, k, head_step)
    tail = constrained_tail(curve.segments[-1], m, l, tail_step)
    fixed_idx = list(range(k)) + list(range(m - l + 1, m + 1))
    fixed_controls = np.vstack([head, tail]) if fixed_idx else np.zeros((0, curve.dim))
    free_idx = list(range(k, m - l + 1))

    nodes, weights = gauss_legendre_unit(m + 2)
    kn = curve.partition.knots
    b = np.zeros((len(free_idx), curve.dim))
    for i, seg in enumerate(curve.segments):
        dt = kn[i + 1] - kn[i]
        ts = kn[i] + dt * nodes
        bern = np.array([[bernstein_eval(m, v, t) for t in ts] for v in range(m + 1)])
        w_vals = eval_segment_many(seg, nodes)
        if fixed_idx:
            w_vals = w_vals - bern[fixed_idx].T @ fixed_controls
        b += dt * (bern[free_idx] * weights) @ w_vals

    g = gram_matrix(m, k, l)
    x = np.linalg.solve(g, b)

    controls = np.empty((m + 1, curve.dim))
    controls[:k] = head
    controls[k : m - l + 1] = x
    controls[m - l + 1 :] = tail
    return BezierSegment(controls)
