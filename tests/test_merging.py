from fractions import Fraction

import numpy as np
import pytest

from bezmerge import (
    BezierSegment,
    CompositeBezierCurve,
    MergeParams,
    Partition,
    ValidationError,
    bernstein_eval,
    c_table,
    constrained_head,
    constrained_tail,
    d_table,
    dual_mid_coeffs,
    eval_segment_many,
    forward_difference,
    l2_error,
    merge,
    merge_oracle,
    mid_controls,
    segment_dual_coeffs,
    validate,
)
from bezmerge.curves import binomial
from bezmerge.quadrature import gauss_legendre_unit

from conftest import random_composite, random_valid_params


class TestValidate:
    def test_ampersand_params_valid(self, ampersand):
        assert validate(ampersand, MergeParams(m=8, k=2, l=1)) == []

    def test_degree_too_low(self, ampersand):
        problems = validate(ampersand, MergeParams(m=4, k=0, l=0))
        assert len(problems) == 1
        assert "below the maximum segment degree" in problems[0]

    def test_multiple_violations(self, ampersand):
        problems = validate(ampersand, MergeParams(m=8, k=7, l=2))
        assert len(problems) == 2
        assert any("n_1+1" in p for p in problems)
        assert any("k+l" in p for p in problems)

    def test_bad_convention(self, ampersand):
        problems = validate(
            ampersand, MergeParams(m=8, k=1, l=1, derivative_convention="chordal"))
        assert len(problems) == 1

    def test_merge_raises_with_violations(self, ampersand):
        with pytest.raises(ValidationError) as err:
            merge(ampersand, MergeParams(m=4, k=0, l=0))
        assert err.value.violations


class TestConstrainedEnds:
    def test_head_single_constraint(self, ampersand):
        head = constrained_head(ampersand.segments[0], 8, 1)
        np.testing.assert_array_equal(head, [[1.09, 0.03]])

    def test_head_expansion(self, ampersand):
        # r_1 = r_0 + (5/8) (p_1 - p_0) for quintic into degree 8
        head = constrained_head(ampersand.segments[0], 8, 2)
        np.testing.assert_allclose(head[1], [1.04625, 0.1425], rtol=1e-15)

    def test_head_constant_segment(self):
        seg = BezierSegment(np.full((4, 2), 3.5))
        head = constrained_head(seg, 9, 4)
        np.testing.assert_allclose(head, np.full((4, 2), 3.5), atol=1e-12)

    def test_tail_single_constraint(self, ampersand):
        tail = constrained_tail(ampersand.segments[-1], 8, 1)
        np.testing.assert_array_equal(tail, [[1.08, 0.22]])

    def test_tail_expansion(self, ampersand):
        # r_7 = r_8 - (5/8) (p_5 - p_4) for the last quintic into degree 8
        tail = constrained_tail(ampersand.segments[-1], 8, 2)
        np.testing.assert_allclose(tail[0], [1.105, 0.11375], rtol=1e-15)
        np.testing.assert_array_equal(tail[1], [1.08, 0.22])

    def test_tail_constant_segment(self):
        seg = BezierSegment(np.full((3, 1), -2.0))
        tail = constrained_tail(seg, 7, 3)
        np.testing.assert_allclose(tail, np.full((3, 1), -2.0), atol=1e-12)

    def test_empty_when_zero_order(self, ampersand):
        assert constrained_head(ampersand.segments[0], 8, 0).shape == (0, 2)
        assert constrained_tail(ampersand.segments[-1], 8, 0).shape == (0, 2)


class TestSegmentDualCoeffs:
    def test_constant_function(self):
        seg = BezierSegment(np.ones((4, 1)))
        m = 7
        hat = segment_dual_coeffs(seg, m)
        np.testing.assert_allclose(hat, np.full((m + 1, 1), 1 / (m + 1)), rtol=1e-14)

    def test_linear_function(self):
        # <u, 1-u> = 1/6, <u, u> = 1/3
        seg = BezierSegment([[0.0], [1.0]])
        hat = segment_dual_coeffs(seg, 1)
        np.testing.assert_allclose(hat, [[1 / 6], [1 / 3]], rtol=1e-14)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(13)
        seg = BezierSegment(rng.random((6, 2)))
        m = 10
        hat = segment_dual_coeffs(seg, m)
        nodes, weights = gauss_legendre_unit(9)  # exact for degree 15
        vals = eval_segment_many(seg, nodes)
        for v in range(m + 1):
            bern = np.array([bernstein_eval(m, v, u) for u in nodes])
            want = (weights * bern) @ vals
            np.testing.assert_allclose(hat[v], want, atol=1e-12)


class TestMidBlock:
    def test_single_free_coefficient(self):
        # projecting B^2_1 onto its own one-dimensional space returns it
        seg = BezierSegment([[0.0], [1.0], [0.0]])
        curve = CompositeBezierCurve(segments=(seg,), partition=Partition([0.0, 1.0]))
        hat_p = segment_dual_coeffs(seg, 2)
        dtab = d_table(2, curve.partition)
        head = constrained_head(seg, 2, 1)
        tail = constrained_tail(seg, 2, 1)
        hat_r = dual_mid_coeffs([hat_p], dtab, head, tail, 2, 1, 1)
        np.testing.assert_allclose(hat_r, [[2 / 15]], rtol=1e-12)
        mid = mid_controls(hat_r, c_table(2, 1, 1))
        np.testing.assert_allclose(mid, [[1.0]], rtol=1e-12)

    def test_single_segment_identity(self):
        rng = np.random.default_rng(21)
        m = 6
        seg = BezierSegment(rng.random((m + 1, 2)))
        curve = CompositeBezierCurve(segments=(seg,), partition=Partition([0.0, 1.0]))
        hat_p = segment_dual_coeffs(seg, m)
        dtab = d_table(m, curve.partition)
        head = constrained_head(seg, m, 0)
        tail = constrained_tail(seg, m, 0)
        hat_r = dual_mid_coeffs([hat_p], dtab, head, tail, m, 0, 0)
        np.testing.assert_allclose(hat_r, hat_p, rtol=1e-13)

    def test_zero_projection(self):
        hat_r = np.zeros((4, 2))
        mid = mid_controls(hat_r, c_table(3, 0, 0))
        np.testing.assert_array_equal(mid, np.zeros((4, 2)))

    def test_linear_projection_is_exact(self):
        # hat coefficients of u in degree 1 are [1/6, 1/3]; conversion gives [0, 1]
        mid = mid_controls(np.array([[1 / 6], [1 / 3]]), c_table(1, 0, 0))
        np.testing.assert_allclose(mid, [[0.0], [1.0]], atol=1e-15)

    def test_correctly_rounded_at_high_degree(self):
        # the c-table's alternating entries reach 1e19 at m = 32: only a
        # correctly rounded contraction matches the exact rational sum
        rng = np.random.default_rng(23)
        for m, k, l in [(20, 0, 0), (20, 2, 1), (28, 1, 1), (28, 3, 0), (32, 0, 0), (32, 2, 2)]:
            ctab = c_table(m, k, l)
            size = m - k - l + 1
            hat_r = rng.standard_normal((size, 2))
            want = [
                [float(sum(Fraction(ctab.coeffs[h, j]) * Fraction(hat_r[h, co])
                           for h in range(size))) for co in range(2)]
                for j in range(size)
            ]
            np.testing.assert_array_equal(mid_controls(hat_r, ctab), want)


class TestMerge:
    def test_single_segment_reproduced(self):
        rng = np.random.default_rng(17)
        m = 9
        seg = BezierSegment(rng.random((m + 1, 3)))
        curve = CompositeBezierCurve(segments=(seg,), partition=Partition([0.0, 1.0]))
        merged = merge(curve, MergeParams(m=m, k=0, l=0))
        np.testing.assert_allclose(merged.points, seg.points, atol=1e-10)
        e2 = l2_error(curve, merged)
        assert e2 <= 1e-10

    def test_against_oracle_two_cubics(self):
        rng = np.random.default_rng(23)
        curve = random_composite(rng, max_segments=2, max_degree=3, dims=(2,))
        params = MergeParams(m=7, k=2, l=2)
        r1 = merge(curve, params).points
        r2 = merge_oracle(curve, params).points
        np.testing.assert_allclose(r1, r2, rtol=1e-9, atol=1e-9)

    def test_oracle_shares_head_and_tail_exactly(self, ampersand):
        params = MergeParams(m=9, k=3, l=2)
        r1 = merge(ampersand, params).points
        r2 = merge_oracle(ampersand, params).points
        np.testing.assert_array_equal(r1[:3], r2[:3])
        np.testing.assert_array_equal(r1[-2:], r2[-2:])

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            curve = random_composite(rng)
            m, k, l = random_valid_params(rng, curve)
            merged = merge(curve, MergeParams(m=m, k=k, l=l))
            tol = 1e-8 * max(curve.bounding_box_diagonal(), 1.0)
            nodes, weights = gauss_legendre_unit(m + 2)
            kn = curve.partition.knots
            for j in range(k, m - l + 1):
                acc = np.zeros(curve.dim)
                for i, seg in enumerate(curve.segments):
                    dt = kn[i + 1] - kn[i]
                    ts = kn[i] + dt * nodes
                    diff = eval_segment_many(seg, nodes) - eval_segment_many(merged, ts)
                    bern = np.array([bernstein_eval(m, j, t) for t in ts])
                    acc += dt * ((weights * bern) @ diff)
                assert np.max(np.abs(acc)) < tol

    def test_local_optimality(self):
        rng = np.random.default_rng(31)
        curve = random_composite(rng, max_segments=3, max_degree=4, dims=(2,))
        m, k, l = 8, 1, 1
        merged = merge(curve, MergeParams(m=m, k=k, l=l))
        base = l2_error(curve, merged) ** 2
        for j in range(k, m - l + 1):
            for c in range(curve.dim):
                for delta in (1e-3, -1e-3):
                    perturbed = np.array(merged.points)
                    perturbed[j, c] += delta
                    e2 = l2_error(curve, BezierSegment(perturbed)) ** 2
                    assert e2 > base

    def test_endpoint_interpolation_exact(self, ampersand):
        merged = merge(ampersand, MergeParams(m=10, k=2, l=2))
        np.testing.assert_array_equal(merged.points[0], ampersand.segments[0].points[0])
        np.testing.assert_array_equal(merged.points[-1], ampersand.segments[-1].points[-1])

    def test_derivative_matching_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            curve = random_composite(rng)
            m, k, l = random_valid_params(rng, curve)
            if k == 0 or l == 0:
                continue
            merged = merge(curve, MergeParams(m=m, k=k, l=l))
            first, last = curve.segments[0], curve.segments[-1]
            n1, ns = first.degree, last.degree
            for j in range(k):
                lhs = binomial(m, j) * forward_difference(merged.points, j, 0)
                rhs = binomial(n1, j) * forward_difference(first.points, j, 0)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
            for j in range(l):
                lhs = binomial(m, j) * forward_difference(merged.points, j, m - j)
                rhs = binomial(ns, j) * forward_difference(last.points, j, ns - j)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_nesting_monotonicity(self):
        rng = np.random.default_rng(41)
        curve = random_composite(rng, max_segments=3, max_degree=4, dims=(2,))
        errors = []
        for m in (6, 8, 10, 12):
            merged = merge(curve, MergeParams(m=m, k=1, l=1))
            errors.append(l2_error(curve, merged))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(43)
        curve = random_composite(rng, max_segments=3, max_degree=5, dims=(2,))
        offset = np.array([13.25, -4.5])
        shifted = CompositeBezierCurve(
            segments=tuple(BezierSegment(s.points + offset) for s in curve.segments),
            partition=curve.partition,
        )
        params = MergeParams(m=8, k=1, l=2)
        base = merge(curve, params).points
        moved = merge(shifted, params).points
        np.testing.assert_allclose(moved, base + offset, atol=1e-10)

    def test_global_convention_matches_global_derivative(self):
        rng = np.random.default_rng(47)
        curve = random_composite(rng, max_segments=3, max_degree=4, dims=(2,))
        m = 8
        merged = merge(curve, MergeParams(m=m, k=2, l=2, derivative_convention="global"))
        dt0 = curve.partition.delta(0)
        dts = curve.partition.delta(curve.n_segments - 1)
        first, last = curve.segments[0], curve.segments[-1]
        # R'(0) = P'(0) in the global parameter
        lhs = m * forward_difference(merged.points, 1, 0)
        rhs = first.degree * forward_difference(first.points, 1, 0) / dt0
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)
        lhs = m * forward_difference(merged.points, 1, m - 1)
        rhs = last.degree * forward_difference(last.points, 1, last.degree - 1) / dts
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_full_constraint_budget(self):
        # k + l = m leaves a single free coefficient; pipeline still runs
        rng = np.random.default_rng(53)
        curve = random_composite(rng, max_segments=2, max_degree=3, dims=(2,))
        m = max(4, curve.max_degree)
        merged = merge(curve, MergeParams(m=m, k=2, l=m - 2))
        assert merged.points.shape == (m + 1, 2)
        assert np.all(np.isfinite(merged.points))
