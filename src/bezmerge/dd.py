"""Double-double scalar arithmetic (pairs of floats, ~31 significant digits).

The dual-basis conversion amplifies absolute noise in its inputs by the
inverse Gram norm, which reaches 1e7 already at degree 12; plain binary64
table recurrences leave noise around 1e-12, far above the accuracy the
control points are tested to. Carrying the c- and d-table recurrences in
double-double keeps the c-table correctly rounded through degree 24 and every
d-table entry within 2e-21 of exact. two_prod also works elementwise on numpy
arrays, for the merge's correctly rounded contraction.

Values are (hi, lo) pairs with hi the rounded sum and |lo| <= ulp(hi)/2.
All operations are plain float arithmetic in fixed order: deterministic and
portable (no extended registers, no fma requirement). The product transform
is error-free only while products stay in the normal range, far wider than
any magnitude the tables produce.
"""

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a: float, b: float):
    """Exact sum: returns (s, e) with s = fl(a + b) and a + b = s + e."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def fast_two_sum(a: float, b: float):
    """Exact sum assuming |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float):
    """Exact product: returns (p, e) with p = fl(a * b) and a * b = p + e."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(ah: float, al: float, bh: float, bl: float):
    s, e = two_sum(ah, bh)
    e += al + bl
    return fast_two_sum(s, e)


def dd_mul_float(ah: float, al: float, b: float):
    p, e = two_prod(ah, b)
    e += al * b
    return fast_two_sum(p, e)


def dd_mul(ah: float, al: float, bh: float, bl: float):
    p, e = two_prod(ah, bh)
    e += ah * bl + al * bh
    return fast_two_sum(p, e)


def dd_div_float(ah: float, al: float, b: float):
    q1 = (ah + al) / b
    p, e = two_prod(q1, b)
    # residual (ah + al - q1 * b) / b refines the quotient
    q2 = (((ah - p) - e) + al) / b
    return fast_two_sum(q1, q2)
