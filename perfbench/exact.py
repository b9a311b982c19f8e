"""Exact rational reference for the constrained least-squares merge.

Solves the same problem as bezmerge.merge, independently of its algorithm:
the normal equations G x = b - G_fix r_fix of the free controls, with

  * b_j = <P, B^m_j> = sum_i dt_i sum_h d^(i)_jh sum_q a^(n,m)_qh p^(i)_q, where
    d^(i) is the exact restriction of the global Bernstein basis to segment i
    (two de Casteljau splits of [0, 1], applied transposed) and a^(n,m) the
    exact product-integral table <B^n_q, B^m_h>;
  * r_fix the exact end-derivative formulas (local convention);
  * G the exact Gram matrix <B^m_j, B^m_h>, inverted exactly once per m and
    reduced to the free indices of each (k, l) by a Schur complement.

Every input float is a dyadic rational, so every step is exact. The heavy
loops run on Python integers with an explicit common denominator; the results
are fractions.Fraction. Depends on nothing but the standard library.

Run as a script to self-check: exact arithmetic identities, plus agreement
with bezmerge.merge_oracle at m <= 12 when the package is importable.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm


def _dyadic(values):
    """Integers N_i and exponent e with values[i] == N_i / 2**e exactly."""
    fracs = [Fraction(v) for v in values]
    e = max(f.denominator.bit_length() - 1 for f in fracs)
    return [f.numerator << (e - (f.denominator.bit_length() - 1)) for f in fracs], e


@lru_cache(maxsize=None)
def _a_table_int(n: int, m: int):
    """(A, lam): lam * <B^n_q, B^m_h> == A[q][h], all integers."""
    lam = (m + n + 1) * lcm(*(comb(m + n, t) for t in range(m + n + 1)))
    table = [[comb(n, q) * comb(m, h) * lam // ((m + n + 1) * comb(m + n, q + h))
              for h in range(m + 1)] for q in range(n + 1)]
    return table, lam


def _horner_transposed(w, den: int, num: int):
    """Z with Z / den**m == v, v_j = sum_{h>=j} w_h B^h_j(num/den), m = len(w) - 1.

    This is the transpose of taking the left part of a de Casteljau split at
    t = num/den: v = w_0 e0 + M(w_1 e0 + M(w_2 e0 + ...)), M = (1-t) I + t shift.
    """
    m = len(w) - 1
    keep = den - num
    z = [w[m]]
    power = 1
    for h in range(m - 1, -1, -1):
        power *= den
        nxt = [keep * z[0] + power * w[h]]
        for j in range(1, len(z)):
            nxt.append(keep * z[j] + num * z[j - 1])
        nxt.append(num * z[-1])
        z = nxt
    return z


def restricted_inner_products(points_int, knot_lo: int, knot_hi: int, e: int, m: int):
    """Integers U with U[j] / 2**(e*m) == sum_h d_jh w_h, for one coordinate.

    points_int are the segment's controls of one coordinate (integers at any
    common scale the caller divides out), w_h = lam * sum_q a_qh p_q, and d the
    restriction of B^m_j to [knot_lo, knot_hi] / 2**e. The restriction is the
    right part at a = knot_lo / 2**e followed by the left part of that at
    (b - a) / (1 - a), so its transpose runs the other way. Every d_jh is a
    polynomial in a and b, hence dyadic: the (1 - a)**m the second split
    brings in divides out exactly, which is checked.
    """
    n = len(points_int) - 1
    a_int, _ = _a_table_int(n, m)
    w = [sum(a_int[q][h] * points_int[q] for q in range(n + 1)) for h in range(m + 1)]
    one = 1 << e
    rest = one - knot_lo
    y = _horner_transposed(w, rest, knot_hi - knot_lo)
    v = _horner_transposed(y[::-1], one, rest)[::-1]
    out = []
    rest_m = rest**m
    for x in v:
        q, r = divmod(x, rest_m)
        if r:
            raise ArithmeticError("restriction coefficients are not dyadic")
        out.append(q)
    return out


def inner_products(segments, knots, m: int):
    """Exact b[c][j] = <P_c, B^m_j> over [0, 1] for every coordinate c."""
    knots_int, e = _dyadic(knots)
    _, f = _dyadic([x for seg in segments for pt in seg for x in pt])
    lam_all = lcm(*(_a_table_int(len(seg) - 1, m)[1] for seg in segments))
    dim = len(segments[0][0])
    acc = [[0] * (m + 1) for _ in range(dim)]
    for i, seg in enumerate(segments):
        lo, hi = knots_int[i], knots_int[i + 1]
        # dt = (hi - lo) / 2**e, p = P / 2**f, w = W / lam.
        weight = (hi - lo) * (lam_all // _a_table_int(len(seg) - 1, m)[1])
        for c in range(dim):
            pts = [int(Fraction(pt[c]) * (1 << f)) for pt in seg]
            u = restricted_inner_products(pts, lo, hi, e, m)
            row = acc[c]
            for j in range(m + 1):
                row[j] += weight * u[j]
    den = lam_all << (e * (m + 1) + f)
    return [[Fraction(x, den) for x in row] for row in acc]


def forward_difference(values, order: int, start: int):
    return sum((-1) ** (order - i) * comb(order, i) * values[start + i]
               for i in range(order + 1))


def end_target(points, m: int, j: int, at_start: bool):
    """The j-th forward difference a degree-m curve needs at one end of the segment.

    R^(j) = P^(j) in the segment's own parameter reads
    delta^j r = C(n,j)/C(m,j) delta^j p at that end.
    """
    n = len(points) - 1
    return Fraction(comb(n, j), comb(m, j)) * forward_difference(
        points, j, 0 if at_start else n - j)


def end_controls(first, last, m: int, k: int, l: int):
    """Exact head r_0..r_{k-1} and tail r_{m-l+1}..r_m per coordinate.

    Each r_j (r_{m-j}) is the one unknown left in delta^j r_0 (delta^j r_{m-j})
    once the lower orders are fixed.
    """
    heads, tails = [], []
    for c in range(len(first[0])):
        p = [Fraction(pt[c]) for pt in first]
        r = []
        for j in range(k):
            rest = sum((-1) ** (j - h) * comb(j, h) * r[h] for h in range(j))
            r.append(end_target(p, m, j, True) - rest)
        heads.append(r)
        p = [Fraction(pt[c]) for pt in last]
        t = {}
        for j in range(l):
            rest = sum((-1) ** (j - h) * comb(j, h) * t[m - j + h] for h in range(1, j + 1))
            t[m - j] = (-1) ** j * (end_target(p, m, j, False) - rest)
        tails.append([t[v] for v in range(m - l + 1, m + 1)])
    return heads, tails


def gram(m: int, j: int, h: int) -> Fraction:
    return Fraction(comb(m, j) * comb(m, h), (2 * m + 1) * comb(2 * m, j + h))


def _invert(rows):
    """Exact inverse of a nonsingular matrix of Fractions, by Gauss-Jordan."""
    size = len(rows)
    rows = [list(row) + [Fraction(int(r == c)) for c in range(size)]
            for r, row in enumerate(rows)]
    for col in range(size):
        pivot = rows[col]
        inv = 1 / pivot[col]
        pivot[:] = [x * inv for x in pivot]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], pivot)]
    return [row[size:] for row in rows]


@lru_cache(maxsize=None)
def _full_gram_inverse(m: int):
    return _invert([[gram(m, j, h) for h in range(m + 1)] for j in range(m + 1)])


@lru_cache(maxsize=None)
def free_gram_inverse(m: int, k: int, l: int):
    """(K, lam): the exact inverse of G restricted to [k, m-l] is K / lam, K integer.

    Taken from the full inverse W = G^-1 by the Schur complement over the
    fixed indices X: (G_FF)^-1 = W_FF - W_FX (W_XX)^-1 W_XF.
    """
    w = _full_gram_inverse(m)
    fixed = list(range(k)) + list(range(m - l + 1, m + 1))
    free = range(k, m - l + 1)
    inverse = [[w[i][j] for j in free] for i in free]
    if fixed:
        w_xx_inv = _invert([[w[a][b] for b in fixed] for a in fixed])
        t = [[sum(w[i][a] * w_xx_inv[p][q] for p, a in enumerate(fixed))
              for q in range(len(fixed))] for i in free]
        for r, i in enumerate(free):
            row = inverse[r]
            for c, j in enumerate(free):
                row[c] -= sum(t[r][q] * w[b][j] for q, b in enumerate(fixed))
    lam = lcm(*(x.denominator for row in inverse for x in row))
    return tuple(tuple(int(x * lam) for x in row) for row in inverse), lam


def exact_merge(segments, knots, m: int, k: int, l: int):
    """Exact merged controls, shape (m+1) x dim as Fractions.

    segments: per segment a list of control points (lists of floats);
    knots: the s+1 partition knots the merge used (floats).
    """
    if not (0 <= k and 0 <= l and k + l <= m):
        raise ValueError(f"need 0 <= k, 0 <= l, k + l <= m; got m={m} k={k} l={l}")
    b = inner_products(segments, knots, m)
    heads, tails = end_controls(segments[0], segments[-1], m, k, l)
    inverse, lam = free_gram_inverse(m, k, l)
    fixed = list(range(k)) + list(range(m - l + 1, m + 1))
    free = range(k, m - l + 1)
    dim = len(segments[0][0])
    out = [[None] * dim for _ in range(m + 1)]
    for c in range(dim):
        r_fix = heads[c] + tails[c]
        rhs = [b[c][j] - sum(gram(m, j, v) * r for v, r in zip(fixed, r_fix)) for j in free]
        den = lcm(*(x.denominator for x in rhs))
        rhs_int = [x.numerator * (den // x.denominator) for x in rhs]
        for row, j in zip(inverse, free):
            out[j][c] = Fraction(sum(g * x for g, x in zip(row, rhs_int)), lam * den)
        for v, r in zip(fixed, r_fix):
            out[v][c] = r
    return out


def l2_distance_sq(controls, exact, m: int) -> Fraction:
    """Exact squared L2 distance on [0, 1] between two degree-m curves.

    controls are floats, exact Fractions. With e = controls - exact and
    F_j = C(m,j) e_j, |e|^2 = sum_t (sum_{j+h=t} F_j F_h) / ((2m+1) C(2m,t)).
    """
    total = Fraction(0)
    for c in range(len(exact[0])):
        diff = [Fraction(controls[j][c]) - exact[j][c] for j in range(m + 1)]
        den = lcm(*(x.denominator for x in diff))
        f = [comb(m, j) * x.numerator * (den // x.denominator) for j, x in enumerate(diff)]
        conv = [0] * (2 * m + 1)
        for j in range(m + 1):
            fj = f[j]
            if fj:
                for h in range(m + 1):
                    conv[j + h] += fj * f[h]
        total += sum(Fraction(s, comb(2 * m, t)) for t, s in enumerate(conv) if s) / (
            (2 * m + 1) * den * den)
    return total


def endpoint_residual(controls, segments, m: int, k: int, l: int) -> float:
    """Worst |R^(j) - P^(j)| at both ends over orders j < k (t=0) and j < l (t=1).

    Derivatives are in the end segments' own parameters, scaled by
    (m-j)!/m! so that order j is compared as the j-th forward difference.
    """
    worst = Fraction(0)
    for c in range(len(controls[0])):
        r = [Fraction(pt[c]) for pt in controls]
        p = [Fraction(pt[c]) for pt in segments[0]]
        for j in range(k):
            worst = max(worst, abs(forward_difference(r, j, 0) - end_target(p, m, j, True)))
        p = [Fraction(pt[c]) for pt in segments[-1]]
        for j in range(l):
            worst = max(worst, abs(forward_difference(r, j, m - j) - end_target(p, m, j, False)))
    return float(worst)


def _self_check_identities() -> None:
    """Properties that hold exactly: reproduction and Gram inverse."""
    import random

    rng = random.Random(5)
    for m, k, l in ((3, 0, 0), (7, 1, 1), (12, 1, 0), (20, 0, 1)):
        inverse, lam = free_gram_inverse(m, k, l)
        idx = list(range(k, m - l + 1))
        for r, j in enumerate(idx):
            for c in range(len(idx)):
                acc = sum(gram(m, j, h) * inverse[t][c] for t, h in enumerate(idx))
                if acc != Fraction(int(r == c), 1) * lam:
                    raise AssertionError(f"Gram inverse wrong at m={m} k={k} l={l}")
        # A degree-m curve split at knots merges back to itself exactly. Orders
        # above 1 are left out: local end derivatives of a split curve differ
        # from the whole curve's by powers of the segment width.
        # Small integers and quarter knots keep every split control a float.
        ctrl = [[rng.randint(-8, 8), rng.randint(-8, 8)] for _ in range(m + 1)]
        knots = [0.0, 0.25, 0.75, 1.0]
        segs = _split(ctrl, knots)
        got = exact_merge(segs, knots, m, k, l)
        if any(got[j][c] != Fraction(ctrl[j][c]) for j in range(m + 1) for c in range(2)):
            raise AssertionError(f"exact merge does not reproduce a degree-{m} curve")


def _split(ctrl, knots):
    """Local controls of a Bezier curve on each knot interval, checked exact as floats."""
    segs = []
    for a, b in zip(knots[:-1], knots[1:]):
        a, b = Fraction(a), Fraction(b)
        pts = [[Fraction(x) for x in pt] for pt in ctrl]
        right = _casteljau(pts, a)[1]
        left = _casteljau(right, (b - a) / (1 - a))[0]
        segs.append([[float(x) for x in pt] for pt in left])
        if any(Fraction(float(x)) != x for pt in left for x in pt):
            raise AssertionError("test split is not exactly representable")
    return segs


def _casteljau(pts, t):
    left, right, cur = [pts[0]], [pts[-1]], pts
    while len(cur) > 1:
        cur = [[(1 - t) * x + t * y for x, y in zip(p, q)] for p, q in zip(cur, cur[1:])]
        left.append(cur[0])
        right.append(cur[-1])
    return left, right[::-1]


def self_check_against_oracle(n_instances: int = 4, seed: int = 11) -> float:
    """Worst relative control-point gap between exact_merge and merge_oracle, m <= 12."""
    import numpy as np

    from bezmerge import BezierSegment, CompositeBezierCurve, MergeParams, Partition, merge_oracle

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        s = int(rng.integers(1, 4))
        degrees = rng.integers(2, 6, size=s)
        segs, prev = [], None
        for n in degrees:
            pts = rng.random((int(n) + 1, 2))
            if prev is not None:
                pts[0] = prev
            prev = pts[-1]
            segs.append(pts)
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, s - 1)), [1.0]])
        m = int(rng.integers(int(degrees.max()), 13))
        k = int(rng.integers(0, min(degrees[0] + 1, m) + 1))
        l = int(rng.integers(0, min(degrees[-1] + 1, m - k) + 1))
        curve = CompositeBezierCurve(tuple(BezierSegment(p) for p in segs), Partition(knots))
        oracle = merge_oracle(curve, MergeParams(m=m, k=k, l=l)).points
        exact = exact_merge([p.tolist() for p in segs], knots.tolist(), m, k, l)
        scale = max(1.0, float(np.abs(oracle).max()))
        gap = max(abs(float(exact[j][c]) - oracle[j, c]) for j in range(m + 1) for c in range(2))
        worst = max(worst, gap / scale)
    return worst


if __name__ == "__main__":
    import sys
    from pathlib import Path

    _self_check_identities()
    print("exact identities: ok")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    gap = self_check_against_oracle()
    print(f"exact vs merge_oracle (m <= 12): worst relative gap {gap:.2e}")
    sys.exit(0 if gap < 1e-9 else 1)
