"""Restriction of global Bernstein polynomials to partition subintervals.

On the subinterval [t_{i-1}, t_i] of a partition, each degree-m Bernstein
polynomial is again a degree-m polynomial of the local parameter u:

    B^m_j(u * dt + t_{i-1}) = sum_{h=0}^{m} d[i][j][h] B^m_h(u).

Differentiating this identity in u links neighbouring coefficients:

    dt * [(m-j+1) d[j-1][h] + (2j-m) d[j][h] - (j+1) d[j+1][h]]
       = (m-h) d[j][h+1] + (2h-m) d[j][h] - h d[j][h-1],

with out-of-range indices reading as zero. d_table seeds column h = 0 with
B^m_j(t_{i-1}) and solves the identity for d[j][h+1], filling a block in
O(m^2), O(s m^2) overall. Sweeping columns this way multiplies by dt <= 1 and
divides only by m - h >= 1; solving the same identity for d[j+1][h] instead (a
row sweep) divides by dt and loses the table entirely for narrow subintervals
already at moderate degrees. The sweep accumulates in double-double, since the
dual projection amplifies table noise by the inverse Gram norm. Against exact
rationals (m <= 32, random and 1e-6/1e-7-wide intervals) every entry is within
2e-21 of exact; entries from 1e-6 up are correctly rounded bar 2 in 10^4 at
m = 32 (3 ulp), and entries that should be zero hold up to 1.3e-24.

d_direct is the O(m)-per-entry double-subdivision sum, cancellation-free and
used as the reference path in tests.
"""

from dataclasses import dataclass

import numpy as np

from .curves import MAX_DEGREE, Partition, bernstein_eval
from .dd import dd_add, dd_div_float, dd_mul, dd_mul_float, two_sum
from .errors import ParameterError


@dataclass(frozen=True)
class DTable:
    """Per-segment restriction coefficients.

    coeffs[i][j][h] is d^{(i+1)}_{jh}: segment blocks are indexed 0-based,
    j is the global Bernstein index, h the local one.
    """

    m: int
    partition: Partition
    coeffs: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.coeffs.shape[0]


def d_direct(m: int, j: int, h: int, t_lo: float, t_hi: float) -> float:
    """Single restriction coefficient by the double-subdivision sum.

    d = sum_{v=0}^{h} B^{m-h}_{j-v}(t_lo) B^h_v(t_hi); out-of-range Bernstein
    indices contribute zero.
    """
    acc = 0.0
    for v in range(h + 1):
        acc += bernstein_eval(m - h, j - v, t_lo) * bernstein_eval(h, v, t_hi)
    return acc


def _bernstein_column_dd(m: int, x: float):
    """All B^m_j(x), j = 0..m, as double-doubles, by the degree-raising recursion."""
    omx = two_sum(1.0, -x)
    hi = [0.0] * (m + 1)
    lo = [0.0] * (m + 1)
    hi[0] = 1.0
    for n in range(1, m + 1):
        hi[n], lo[n] = dd_mul_float(hi[n - 1], lo[n - 1], x)
        for j in range(n - 1, 0, -1):
            ph, pl = dd_mul_float(hi[j - 1], lo[j - 1], x)
            qh, ql = dd_mul(hi[j], lo[j], omx[0], omx[1])
            hi[j], lo[j] = dd_add(ph, pl, qh, ql)
        hi[0], lo[0] = dd_mul(hi[0], lo[0], omx[0], omx[1])
    return hi, lo


def d_table(m: int, partition: Partition) -> DTable:
    """Restriction coefficients for every segment of the partition."""
    if m < 0 or m > MAX_DEGREE:
        raise ParameterError(f"degree m={m} outside supported range [0, {MAX_DEGREE}]")
    kn = partition.knots
    s = partition.count
    coeffs = np.zeros((s, m + 1, m + 1))

    for i in range(s):
        t_lo = float(kn[i])
        t_hi = float(kn[i + 1])
        dt_h, dt_l = two_sum(t_hi, -t_lo)
        col_h, col_l = _bernstein_column_dd(m, t_lo)
        coeffs[i, :, 0] = col_h
        prev_h = prev_l = None

        for h in range(m):
            nxt_h = [0.0] * (m + 1)
            nxt_l = [0.0] * (m + 1)
            div = float(m - h)
            for j in range(m + 1):
                ah, al = dd_mul_float(col_h[j], col_l[j], float(2 * j - m))
                if j > 0:
                    ph, pl = dd_mul_float(col_h[j - 1], col_l[j - 1], float(m - j + 1))
                    ah, al = dd_add(ah, al, ph, pl)
                if j < m:
                    ph, pl = dd_mul_float(col_h[j + 1], col_l[j + 1], float(-(j + 1)))
                    ah, al = dd_add(ah, al, ph, pl)
                ah, al = dd_mul(ah, al, dt_h, dt_l)
                ph, pl = dd_mul_float(col_h[j], col_l[j], float(m - 2 * h))
                ah, al = dd_add(ah, al, ph, pl)
                if h > 0:
                    ph, pl = dd_mul_float(prev_h[j], prev_l[j], float(h))
                    ah, al = dd_add(ah, al, ph, pl)
                nxt_h[j], nxt_l[j] = dd_div_float(ah, al, div)
            coeffs[i, :, h + 1] = nxt_h
            prev_h, prev_l = col_h, col_l
            col_h, col_l = nxt_h, nxt_l
    coeffs.flags.writeable = False
    return DTable(m=m, partition=partition, coeffs=coeffs)
