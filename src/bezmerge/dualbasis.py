"""Constrained dual Bernstein basis coefficients in the Bernstein basis.

Let span{B^m_k, ..., B^m_{m-l}} be the degree-m polynomials whose derivatives
of order < k vanish at 0 and order < l vanish at 1. Its dual basis under the
L2 inner product on [0, 1] has a Bernstein expansion

    D_i = sum_{j=k}^{m-l} c[i][j] B^m_j        (k <= i <= m - l),

equivalently: the matrix c is the inverse of the Gram matrix of the spanning
Bernstein polynomials. c is computed row by row, O((m-k-l)^2) total, from a
closed-form first row and a second-order recurrence in the row index, in exact
integer arithmetic; the explicit Gram inverse serves as an independent
reference path in the tests.
"""

import functools
import logging
from dataclasses import dataclass
from math import comb, lcm

import numpy as np

from .curves import MAX_DEGREE, bernstein_eval, binomial
from .errors import ParameterError

log = logging.getLogger(__name__)

# Gram-inverse entries grow roughly like 16^m; merged curves lose about
# log10(peak) / 2 of binary64's 16 digits, 6 at this threshold.
CONDITION_WARN_THRESHOLD = 1e12


def _check_params(m: int, k: int, l: int) -> None:
    if m < 0 or m > MAX_DEGREE:
        raise ParameterError(f"degree m={m} outside supported range [0, {MAX_DEGREE}]")
    if k < 0 or l < 0 or k + l > m:
        raise ParameterError(f"need k >= 0, l >= 0, k + l <= m; got m={m}, k={k}, l={l}")


@dataclass(frozen=True)
class CTable:
    """Bernstein coefficients of the constrained dual basis.

    coeffs[i - k, j - k] holds c[i][j] for i, j in [k, m - l], correctly
    rounded; lo holds the correctly rounded remainder c[i][j] - coeffs[i - k, j - k],
    so coeffs + lo carries about 106 bits of each entry. Every logical index
    outside that square is zero by convention, which `value` implements.
    """

    m: int
    k: int
    l: int
    coeffs: np.ndarray
    lo: np.ndarray

    def value(self, i: int, j: int) -> float:
        first, last = self.k, self.m - self.l
        if first <= i <= last and first <= j <= last:
            return float(self.coeffs[i - first, j - first])
        return 0.0


def _read_only(rows: list) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=None)
def c_table(m: int, k: int, l: int) -> CTable:
    """Dual-basis coefficient table for parameters (m, k, l).

    Row i = k comes from the closed form; each next row follows from the
    three-term recurrence, reading only the two previous rows. With k + l = m
    the table is the single starting entry. The recurrence runs on Python
    integers: row i is held exactly as N_i / D_i. Multiplied through by
    e = lcm(1..m+1), its coefficients A(u) = a(u)/(u+1) and B(u) = b(u)/(u-m-1)
    are integers, and D_{i+1} = D_i * e A(i). Each entry of coeffs and lo is one
    int true division, hence correctly rounded.

    Cached per (m, k, l) and shared: coeffs and lo are read-only, and the
    conditioning warning is logged only when a table is built.
    """
    _check_params(m, k, l)
    cols = range(k, m - l + 1)
    den = comb(m, k) * lcm(*(comb(m, j) for j in cols))
    row = [(-1) ** (j - k) * (2 * k + 1) * comb(m + k - l + 1, 2 * k + 1) * comb(m - k - l, j - k)
           * comb(m + k + l + 1, k + j + 1) * (den // (comb(m, k) * comb(m, j))) for j in cols]
    rows, dens = [row], [den]

    e = lcm(*range(1, m + 2))

    def e_a(u: int) -> int:
        return (u - m) * (u - k + 1) * (u + k + 1) * (e // (u + 1))

    def e_b(u: int) -> int:
        return u * (u - m - l - 1) * (u - m + l - 1) * (e // (u - m - 1))

    last, prev = len(row) - 1, row
    for i in range(k, m - l):
        # (i - m) < 0 and (i - k + 1) >= 1 on this range, so A(i) never vanishes.
        prev_scale = -e_b(i) * e_a(i - 1) if i > k else 0
        prev, row = row, [
            2 * e * (i - j) * (i + j - m) * row[c]
            + (e_b(j) * row[c - 1] if c > 0 else 0)
            + (e_a(j) * row[c + 1] if c < last else 0)
            + prev_scale * prev[c]
            for c, j in enumerate(cols)]
        rows.append(row)
        dens.append(dens[-1] * e_a(i))

    hi = [[n / d for n in row] for row, d in zip(rows, dens)]
    lo = [[(n * q - p * d) / (d * q) for n, (p, q) in zip(row, map(float.as_integer_ratio, row_hi))]
          for row, d, row_hi in zip(rows, dens, hi)]

    c = _read_only(hi)
    peak = float(np.abs(c).max())
    log.debug("c-table(m=%d, k=%d, l=%d) max |entry| = %.3e", m, k, l, peak)
    if peak > CONDITION_WARN_THRESHOLD:
        log.warning(
            "c-table(m=%d, k=%d, l=%d) entries reach %.3e; "
            "merged curves lose roughly %d digits to cancellation",
            m, k, l, peak, int(np.log10(peak) / 2))
    return CTable(m=m, k=k, l=l, coeffs=c, lo=_read_only(lo))


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
