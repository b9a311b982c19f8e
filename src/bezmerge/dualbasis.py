"""Constrained dual Bernstein basis coefficients in the Bernstein basis.

Let span{B^m_k, ..., B^m_{m-l}} be the degree-m polynomials whose derivatives
of order < k vanish at 0 and order < l vanish at 1. Its dual basis under the
L2 inner product on [0, 1] has a Bernstein expansion

    D_i = sum_{j=k}^{m-l} c[i][j] B^m_j        (k <= i <= m - l),

equivalently: the matrix c is the inverse of the Gram matrix of the spanning
Bernstein polynomials. c is computed row by row, O((m-k-l)^2) total, from a
closed-form first row and a second-order recurrence in the row index; the
explicit Gram inverse serves as an independent reference path in the tests.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .curves import MAX_DEGREE, bernstein_eval, binomial
from .dd import dd_add, dd_div_float, dd_mul_float
from .errors import ParameterError

log = logging.getLogger(__name__)

# Gram-inverse entries grow roughly like 16^m; above this magnitude binary64
# results carry noticeably fewer than 8 significant digits.
CONDITION_WARN_THRESHOLD = 1e12


def _check_params(m: int, k: int, l: int) -> None:
    if m < 0 or m > MAX_DEGREE:
        raise ParameterError(f"degree m={m} outside supported range [0, {MAX_DEGREE}]")
    if k < 0 or l < 0 or k + l > m:
        raise ParameterError(f"need k >= 0, l >= 0, k + l <= m; got m={m}, k={k}, l={l}")


@dataclass(frozen=True)
class CTable:
    """Bernstein coefficients of the constrained dual basis.

    coeffs[i - k, j - k] holds c[i][j] for i, j in [k, m - l]; every logical
    index outside that square is zero by convention, which `value` implements.
    """

    m: int
    k: int
    l: int
    coeffs: np.ndarray

    def value(self, i: int, j: int) -> float:
        lo, hi = self.k, self.m - self.l
        if lo <= i <= hi and lo <= j <= hi:
            return float(self.coeffs[i - lo, j - lo])
        return 0.0


@functools.lru_cache(maxsize=None)
def c_table(m: int, k: int, l: int) -> CTable:
    """Dual-basis coefficient table for parameters (m, k, l).

    Row i = k comes from the closed form; each next row follows from the
    three-term recurrence, reading only the two previous rows. With k + l = m
    the table is the single starting entry. Rows are carried in double-double:
    contractions against this explicit Gram inverse amplify its noise by the
    (large) entry magnitudes. Against the exact inverse (k, l in 0..3) every
    entry is correctly rounded through m = 24; at m = 28, 10 of 10856 are
    1 ulp off, at m = 32, 235 of 14440, the worst by 3.3e-14 relative.

    Cached per (m, k, l) and shared: coeffs is read-only, and the
    conditioning warning is logged only when a table is built.
    """
    _check_params(m, k, l)
    size = m - k - l + 1
    hi = [[0.0] * size for _ in range(size)]
    lo = [[0.0] * size for _ in range(size)]

    for j in range(k, m - l + 1):
        vh = float((-1) ** (j - k) * (2 * k + 1))
        vl = 0.0
        vh, vl = dd_mul_float(vh, vl, binomial(m + k - l + 1, 2 * k + 1))
        vh, vl = dd_mul_float(vh, vl, binomial(m - k - l, j - k))
        vh, vl = dd_mul_float(vh, vl, binomial(m + k + l + 1, k + j + 1))
        vh, vl = dd_div_float(vh, vl, binomial(m, k))
        hi[0][j - k], lo[0][j - k] = dd_div_float(vh, vl, binomial(m, j))

    # A and B as exact integer numerator/denominator pairs; dividing by either
    # is a multiply plus a divide by exactly representable integers.
    def coef_a(u: int):
        return float((u - m) * (u - k + 1) * (u + k + 1)), float(u + 1)

    def coef_b(u: int):
        return float(u * (u - m - l - 1) * (u - m + l - 1)), float(u - m - 1)

    for i in range(k, m - l):
        a_num_i, a_den_i = coef_a(i)
        # (i - m) < 0 and (i - k + 1) >= 1 on this range, so A(i) never vanishes.
        assert a_num_i != 0.0
        b_num_i, b_den_i = coef_b(i)
        row_h, row_l = hi[i - k], lo[i - k]
        nxt_h, nxt_l = hi[i - k + 1], lo[i - k + 1]
        for j in range(k, m - l + 1):
            ah, al = dd_mul_float(row_h[j - k], row_l[j - k], float(2 * (i - j) * (i + j - m)))
            if j - 1 >= k:
                b_num, b_den = coef_b(j)
                ph, pl = dd_mul_float(row_h[j - 1 - k], row_l[j - 1 - k], b_num)
                ph, pl = dd_div_float(ph, pl, b_den)
                ah, al = dd_add(ah, al, ph, pl)
            if j + 1 <= m - l:
                a_num, a_den = coef_a(j)
                ph, pl = dd_mul_float(row_h[j + 1 - k], row_l[j + 1 - k], a_num)
                ph, pl = dd_div_float(ph, pl, a_den)
                ah, al = dd_add(ah, al, ph, pl)
            if i > k:
                ph, pl = dd_mul_float(hi[i - k - 1][j - k], lo[i - k - 1][j - k], -b_num_i)
                ph, pl = dd_div_float(ph, pl, b_den_i)
                ah, al = dd_add(ah, al, ph, pl)
            ah, al = dd_mul_float(ah, al, a_den_i)
            nxt_h[j - k], nxt_l[j - k] = dd_div_float(ah, al, a_num_i)

    c = np.array(hi)
    peak = float(np.abs(c).max())
    log.debug("c-table(m=%d, k=%d, l=%d) max |entry| = %.3e", m, k, l, peak)
    if peak > CONDITION_WARN_THRESHOLD:
        log.warning(
            "c-table(m=%d, k=%d, l=%d) entries reach %.3e; "
            "binary64 results lose roughly %d digits to cancellation",
            m, k, l, peak, int(np.log10(peak)))
    c.flags.writeable = False
    return CTable(m=m, k=k, l=l, coeffs=c)


def gram_matrix(m: int, k: int, l: int) -> np.ndarray:
    """Gram matrix <B^m_j, B^m_h> for j, h in [k, m - l].

    <B^m_j, B^m_h> = binom(m,j) binom(m,h) / ((2m+1) binom(2m, j+h)).
    """
    _check_params(m, k, l)
    size = m - k - l + 1
    g = np.empty((size, size))
    for j in range(k, m - l + 1):
        for h in range(k, m - l + 1):
            g[j - k, h - k] = (
                binomial(m, j) * binomial(m, h)
                / ((2 * m + 1) * binomial(2 * m, j + h))
            )
    return g


def dual_eval(table: CTable, i: int, u: float) -> float:
    """Value of the i-th constrained dual basis polynomial at u."""
    if i < table.k or i > table.m - table.l:
        raise IndexError(f"dual index {i} outside [{table.k}, {table.m - table.l}]")
    acc = 0.0
    for j in range(table.k, table.m - table.l + 1):
        acc += table.value(i, j) * bernstein_eval(table.m, j, u)
    return acc
