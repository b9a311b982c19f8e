from fractions import Fraction

import numpy as np
import pytest

from bezmerge import (
    BezierSegment,
    CompositeBezierCurve,
    DegenerateSegmentError,
    ErrorReport,
    MergeParams,
    Partition,
    a_table,
    arc_length_partition,
    bernstein_eval,
    d_table,
    eval_segment,
    eval_segment_many,
    i_nm,
    l2_error,
    max_error,
    merge,
    rho_coeffs,
    segment_arc_length,
)
from bezmerge.quadrature import gauss_legendre_unit

from conftest import random_composite


class TestATable:
    def test_degree_zero(self):
        np.testing.assert_array_equal(a_table(0, 0), [[1.0]])

    def test_degree_one(self):
        np.testing.assert_allclose(
            a_table(1, 1), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-15)

    def test_entry_against_quadrature(self):
        nodes, weights = gauss_legendre_unit(8)  # exact for degree 15
        vals = np.array(
            [bernstein_eval(5, 2, u) * bernstein_eval(10, 4, u) for u in nodes])
        want = float(weights @ vals)
        assert a_table(5, 10)[2, 4] == pytest.approx(want, abs=1e-13)

    def test_row_sums(self):
        for n, m in ((3, 3), (5, 10), (0, 7)):
            a = a_table(n, m)
            np.testing.assert_allclose(
                a.sum(axis=1), np.full(n + 1, 1 / (n + 1)), atol=1e-12)

    def test_transpose_symmetry(self):
        np.testing.assert_allclose(a_table(4, 9), a_table(9, 4).T, rtol=1e-15)


class TestInm:
    def test_constant_times_constant(self):
        assert i_nm(np.ones(4), np.ones(7), a_table(3, 6)) == pytest.approx(1.0, rel=1e-13)

    def test_u_squared(self):
        assert i_nm([0.0, 1.0], [0.0, 1.0], a_table(1, 1)) == pytest.approx(1 / 3, rel=1e-14)

    def test_against_quadrature(self):
        rng = np.random.default_rng(6)
        n, m = 7, 10
        u = rng.random(n + 1)
        v = rng.random(m + 1)
        nodes, weights = gauss_legendre_unit(10)
        f = eval_segment_many(BezierSegment(u), nodes)[:, 0]
        g = eval_segment_many(BezierSegment(v), nodes)[:, 0]
        want = float(weights @ (f * g))
        assert i_nm(u, v, a_table(n, m)) == pytest.approx(want, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        u = rng.random(5)
        v = rng.random(9)
        assert i_nm(u, v, a_table(4, 8)) == pytest.approx(
            i_nm(v, u, a_table(8, 4)), abs=1e-13)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            i_nm(np.ones(3), np.ones(3), a_table(3, 2))


class TestRhoCoeffs:
    def test_identity_partition(self):
        rng = np.random.default_rng(14)
        merged = BezierSegment(rng.random((7, 2)))
        rho = rho_coeffs(merged, Partition([0.0, 1.0]))
        np.testing.assert_allclose(rho[0], merged.points, atol=1e-15)

    def test_constant_curve(self):
        merged = BezierSegment(np.full((5, 2), 2.5))
        rho = rho_coeffs(merged, Partition([0.0, 0.3, 0.8, 1.0]))
        np.testing.assert_allclose(rho, np.full((3, 5, 2), 2.5), atol=1e-12)

    def test_reevaluation_oracle(self):
        rng = np.random.default_rng(15)
        merged = BezierSegment(rng.random((9, 2)))
        part = Partition([0.0, 0.22, 0.9, 1.0])
        rho = rho_coeffs(merged, part)
        kn = part.knots
        for i in range(3):
            local = BezierSegment(rho[i])
            for u in np.linspace(0.0, 1.0, 9):
                t = kn[i] + u * (kn[i + 1] - kn[i])
                np.testing.assert_allclose(
                    eval_segment(local, u), eval_segment(merged, t), atol=1e-10)

    def test_endpoint_rows(self, ampersand):
        merged = merge(ampersand, MergeParams(m=8, k=1, l=1))
        rho = rho_coeffs(merged, ampersand.partition)
        kn = ampersand.partition.knots
        for i in range(ampersand.n_segments):
            np.testing.assert_allclose(
                rho[i][0], eval_segment(merged, float(kn[i])), atol=1e-10)
            np.testing.assert_allclose(
                rho[i][-1], eval_segment(merged, float(kn[i + 1])), atol=1e-10)

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_matches_d_table(self, m):
        rng = np.random.default_rng(m)
        for knots in (
            np.concatenate([[0.0], np.sort(rng.random(5)), [1.0]]),
            [0.0, 1e-7, 0.4, 1.0 - 1e-6, 1.0],
            [0.0, 1e-6, 0.3, 0.3 + 1e-7, 0.7, 0.7 + 1e-6, 1.0 - 1e-7, 1.0],
        ):
            part = Partition(knots)
            r = rng.normal(size=(m + 1, 2)) * 10.0 ** rng.integers(-3, 4)
            want = np.swapaxes(d_table(m, part).coeffs, 1, 2) @ r
            got = rho_coeffs(BezierSegment(r), part)
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(r))


class TestL2Error:
    def test_exact_projection_is_zero(self):
        rng = np.random.default_rng(16)
        m = 7
        seg = BezierSegment(rng.random((m + 1, 2)))
        curve = CompositeBezierCurve(segments=(seg,), partition=Partition([0.0, 1.0]))
        merged = merge(curve, MergeParams(m=m, k=0, l=0))
        assert l2_error(curve, merged) <= 1e-10

    def test_ampersand_published_value(self, ampersand):
        merged = merge(ampersand, MergeParams(m=10, k=2, l=2))
        e2 = l2_error(ampersand, merged)
        assert e2 == pytest.approx(9.43e-3, rel=0.02)

    def test_far_from_origin(self):
        # an exact reproduction cancels terms of size |P|^2 ~ offset^2 down to
        # rounding noise, which must not read as an inconsistency
        rng = np.random.default_rng(5)
        for offset in (1e3, 1e4, 1e5, 1e6):
            for _ in range(40):
                seg = BezierSegment(offset + rng.random((4, 2)))
                curve = CompositeBezierCurve(segments=(seg,), partition=Partition([0.0, 1.0]))
                merged = merge(curve, MergeParams(m=5, k=1, l=1))
                assert l2_error(curve, merged) <= 1e-6 * offset

    def test_against_exact_at_high_degree(self, exact):
        # two-segment curves split from one curve, then perturbed, so the exact
        # distance is small (E2 ~ 1e-7..1e-5) but far above float64 rounding of
        # the inputs; the reference |P|^2 - 2<P,R> + |R|^2 is exact rationals
        rng = np.random.default_rng(0)
        knots = [0.0, 0.375, 1.0]
        for n, m, k, l, delta in ((3, 20, 1, 0, 3e-5), (5, 20, 2, 2, 1e-4), (3, 24, 1, 1, 1e-3),
                                  (5, 24, 0, 3, 3e-5), (3, 20, 0, 0, 1e-4), (5, 24, 3, 3, 1e-3),
                                  (3, 24, 2, 1, 3e-5), (5, 20, 1, 0, 1e-4)):
            left, right = _split(rng.random((n + 1, 2)), knots[1])
            right[1:-1] += delta * rng.standard_normal((n - 1, 2))
            curve = CompositeBezierCurve(
                segments=(BezierSegment(left), BezierSegment(right)), partition=Partition(knots))
            merged = merge(curve, MergeParams(m=m, k=k, l=l, derivative_convention="global"))
            r = [[Fraction(x) for x in row] for row in merged.points.tolist()]
            b = exact.inner_products([left.tolist(), right.tolist()], knots, m)
            p_r = sum(r[j][c] * b[c][j] for c in range(2) for j in range(m + 1))
            r_r = sum(r[j][c] * r[h][c] * exact.gram(m, j, h)
                      for c in range(2) for j in range(m + 1) for h in range(m + 1))
            p_p = sum((Fraction(hi) - Fraction(lo)) * Fraction(pts[q, c]) * Fraction(pts[v, c])
                      * exact.gram(n, q, v)
                      for pts, lo, hi in ((left, *knots[:2]), (right, *knots[1:]))
                      for c in range(2) for q in range(n + 1) for v in range(n + 1))
            want = float(p_p - 2 * p_r + r_r)
            assert l2_error(curve, merged) ** 2 == pytest.approx(want, rel=1e-9, abs=0.0), (n, m, k, l)

    def test_against_quadrature(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            curve = random_composite(rng, max_segments=4, max_degree=5, dims=(2,))
            if curve.n_segments == 1:
                continue
            m = max(6, curve.max_degree)
            merged = merge(curve, MergeParams(m=m, k=1, l=1))
            e2 = l2_error(curve, merged)
            nodes, weights = gauss_legendre_unit(m + 4)
            kn = curve.partition.knots
            acc = 0.0
            for i, seg in enumerate(curve.segments):
                dt = kn[i + 1] - kn[i]
                ts = kn[i] + dt * nodes
                diff = eval_segment_many(seg, nodes) - eval_segment_many(merged, ts)
                acc += dt * float(weights @ (diff * diff).sum(axis=1))
            assert e2**2 == pytest.approx(acc, rel=1e-9, abs=1e-14)


def _split(points, t):
    """Controls of a Bezier curve on [0, t] and [t, 1], by de Casteljau."""
    left, right, cur = [points[0]], [points[-1]], points
    while len(cur) > 1:
        cur = (1.0 - t) * cur[:-1] + t * cur[1:]
        left.append(cur[0])
        right.append(cur[-1])
    return np.array(left), np.array(right[::-1])


class TestMaxError:
    def test_identical_curves(self):
        rng = np.random.default_rng(20)
        m = 5
        seg = BezierSegment(rng.random((m + 1, 2)))
        curve = CompositeBezierCurve(segments=(seg,), partition=Partition([0.0, 1.0]))
        assert max_error(curve, seg, 100) == 0.0

    def test_grid_refinement_stability(self, ampersand):
        merged = merge(ampersand, MergeParams(m=8, k=2, l=1))
        coarse = max_error(ampersand, merged, 500)
        fine = max_error(ampersand, merged, 2000)
        assert abs(fine - coarse) <= 0.10 * max(fine, coarse)

    def test_nested_grid_monotonicity(self, ampersand):
        merged = merge(ampersand, MergeParams(m=8, k=2, l=1))
        # 500 is a multiple of 100, so the coarse grid is a subset of the fine one
        assert max_error(ampersand, merged, 500) >= max_error(ampersand, merged, 100) - 1e-15

    def test_exceeds_l2(self, ampersand):
        merged = merge(ampersand, MergeParams(m=8, k=2, l=1))
        e2 = l2_error(ampersand, merged)
        assert max_error(ampersand, merged, 500) >= e2

    def test_samples_validation(self, ampersand):
        merged = merge(ampersand, MergeParams(m=8, k=2, l=1))
        with pytest.raises(ValueError):
            max_error(ampersand, merged, 0)


class TestArcLengthPartition:
    def test_congruent_segments(self):
        seg1 = BezierSegment([[0.0, 0.0], [0.5, 0.4], [1.0, 0.0]])
        seg2 = BezierSegment([[1.0, 0.0], [1.5, 0.4], [2.0, 0.0]])
        part = arc_length_partition([seg1, seg2])
        assert float(part.knots[1]) == pytest.approx(0.5, abs=1e-9)

    def test_straight_line_length(self):
        seg = BezierSegment([[0.0, 0.0], [3.0, 4.0]])
        assert segment_arc_length(seg) == pytest.approx(5.0, rel=1e-12)

    def test_ampersand_knots(self, ampersand_doc):
        part = arc_length_partition(ampersand_doc.segments)
        np.testing.assert_allclose(np.round(part.knots, 2), [0.0, 0.45, 0.76, 1.0])

    def test_penguin_left_knots(self, penguin_left_doc):
        part = arc_length_partition(penguin_left_doc.segments)
        np.testing.assert_allclose(np.round(part.knots, 2), [0.0, 0.08, 0.55, 0.78, 1.0])

    def test_penguin_right_knots(self, penguin_right_doc):
        part = arc_length_partition(penguin_right_doc.segments)
        np.testing.assert_allclose(np.round(part.knots, 2), [0.0, 0.42, 0.78, 1.0])

    def test_degenerate_segment(self):
        good = BezierSegment([[0.0, 0.0], [1.0, 1.0]])
        stuck = BezierSegment(np.full((4, 2), 0.3))
        with pytest.raises(DegenerateSegmentError):
            arc_length_partition([good, stuck])

    def test_random_segments_give_valid_partition(self):
        rng = np.random.default_rng(22)
        segs = [BezierSegment(rng.random((4, 2))) for _ in range(5)]
        part = arc_length_partition(segs)
        assert np.all(np.diff(part.knots) > 0)


class TestErrorReport:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ErrorReport(e2=-1.0, e_inf=0.0, samples=500)

    def test_rejects_non_finite(self):
        # NaN < 0 is false, so a sign check alone lets NaN through
        nan, inf = float("nan"), float("inf")
        for e2, e_inf in ((nan, 0.0), (0.0, nan), (inf, 0.0), (0.0, inf)):
            with pytest.raises(ValueError):
                ErrorReport(e2=e2, e_inf=e_inf, samples=500)

    def test_consistency_on_fixture(self, ampersand):
        merged = merge(ampersand, MergeParams(m=10, k=2, l=1))
        e2 = l2_error(ampersand, merged)
        e_inf = max_error(ampersand, merged, 500)
        report = ErrorReport(e2=e2, e_inf=e_inf, samples=500)
        assert report.e2 <= report.e_inf
