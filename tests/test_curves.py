import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezmerge import (
    BezierSegment,
    CompositeBezierCurve,
    DegreeBoundError,
    DomainError,
    Partition,
    bernstein_eval,
    binomial,
    endpoint_derivative,
    eval_composite,
    eval_composite_many,
    eval_segment,
    eval_segment_many,
    forward_difference,
)


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10.0
        assert binomial(0, 0) == 1.0
        assert binomial(6, 0) == 1.0
        assert binomial(6, 6) == 1.0

    def test_out_of_range_k_is_zero(self):
        assert binomial(7, -1) == 0.0
        assert binomial(7, 8) == 0.0

    def test_large_value_exact(self):
        # exact integer arithmetic oracle
        assert binomial(40, 20) == float(math.comb(40, 20)) == 137846528820.0

    def test_correctly_rounded_to_the_bound(self):
        for n in range(67):
            for k in range(n + 1):
                assert binomial(n, k) == float(math.comb(n, k)), (n, k)

    def test_pascal_identity(self):
        for n in range(2, 30, 3):
            for k in range(1, n):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_degree_bound(self):
        with pytest.raises(DegreeBoundError):
            binomial(-1, 0)
        with pytest.raises(DegreeBoundError):
            binomial(67, 3)


class TestBernstein:
    def test_endpoint_cardinality(self):
        assert bernstein_eval(3, 0, 0.0) == 1.0
        assert bernstein_eval(2, 1, 0.5) == 0.5

    def test_matches_de_casteljau_on_unit_vector(self):
        # evaluate B^5_3 as the curve with coefficients e_3
        coeffs = np.zeros(6)
        coeffs[3] = 1.0
        seg = BezierSegment(coeffs)
        direct = bernstein_eval(5, 3, 0.3)
        assert direct == pytest.approx(float(eval_segment(seg, 0.3)[0]), rel=1e-14)

    def test_partition_of_unity(self):
        us = np.linspace(0.0, 1.0, 101)
        for n in range(31):
            for u in us:
                total = sum(bernstein_eval(n, j, u) for j in range(n + 1))
                assert abs(total - 1.0) < 1e-12

    def test_out_of_range_index_is_zero(self):
        assert bernstein_eval(4, -1, 0.0) == 0.0
        assert bernstein_eval(4, 5, 1.0) == 0.0


class TestSegmentEval:
    def test_endpoint_interpolation_exact(self):
        rng = np.random.default_rng(3)
        for n in (1, 4, 9):
            seg = BezierSegment(rng.random((n + 1, 2)))
            assert np.array_equal(eval_segment(seg, 0.0), seg.points[0])
            assert np.array_equal(eval_segment(seg, 1.0), seg.points[-1])

    def test_cubic_midpoint(self):
        seg = BezierSegment([[0, 0], [1, 0], [1, 1], [0, 1]])
        np.testing.assert_allclose(eval_segment(seg, 0.5), [0.75, 0.5], rtol=1e-15)

    def test_matches_bernstein_sum(self):
        rng = np.random.default_rng(11)
        for n in (2, 7, 15):
            seg = BezierSegment(rng.random((n + 1, 3)))
            for u in rng.random(8):
                expected = sum(
                    bernstein_eval(n, j, u) * seg.points[j] for j in range(n + 1)
                )
                np.testing.assert_allclose(eval_segment(seg, u), expected, rtol=1e-10)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        seg = BezierSegment(rng.random((6, 2)))
        us = np.linspace(0.0, 1.0, 17)
        many = eval_segment_many(seg, us)
        for i, u in enumerate(us):
            np.testing.assert_allclose(many[i], eval_segment(seg, u), rtol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(min_value=0.0, max_value=1.0), n=st.integers(1, 12))
    def test_partition_of_unity_hypothesis(self, u, n):
        total = sum(bernstein_eval(n, j, u) for j in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestCompositeEval:
    def test_global_endpoints(self, ampersand):
        np.testing.assert_array_equal(
            eval_composite(ampersand, 0.0), ampersand.segments[0].points[0])
        np.testing.assert_array_equal(
            eval_composite(ampersand, 1.0), ampersand.segments[-1].points[-1])

    def test_interior_knot_goes_right(self, ampersand):
        t1 = float(ampersand.partition.knots[1])
        np.testing.assert_allclose(eval_composite(ampersand, t1), [0.93, 1.03], rtol=1e-12)

    def test_discontinuous_tie_resolves_right(self):
        # distinct endpoint values make the chosen side observable
        with pytest.warns(UserWarning):
            curve = CompositeBezierCurve(
                segments=(BezierSegment([[0.0], [1.0]]), BezierSegment([[5.0], [6.0]])),
                partition=Partition([0.0, 0.5, 1.0]),
            )
        assert float(eval_composite(curve, 0.5)[0]) == 5.0

    def test_domain_error(self, ampersand):
        with pytest.raises(DomainError):
            eval_composite(ampersand, -0.01)
        with pytest.raises(DomainError):
            eval_composite(ampersand, 1.01)
        with pytest.raises(DomainError):
            eval_composite_many(ampersand, np.array([0.5, 1.2]))

    def test_vectorized_matches_scalar(self, ampersand):
        ts = np.linspace(0.0, 1.0, 33)
        many = eval_composite_many(ampersand, ts)
        for i, t in enumerate(ts):
            np.testing.assert_allclose(many[i], eval_composite(ampersand, t), rtol=1e-14)


class TestForwardDifference:
    def test_identity(self):
        assert forward_difference([4.0, 7.0, 9.0], 0, 1) == 7.0

    def test_second_difference(self):
        assert forward_difference([1.0, 3.0, 7.0], 2, 0) == 2.0

    def test_constant_sequence(self):
        assert forward_difference([5.0, 5.0, 5.0, 5.0], 1, 2) == 0.0

    def test_vector_coefficients(self):
        pts = np.array([[0.0, 1.0], [2.0, 5.0]])
        np.testing.assert_array_equal(forward_difference(pts, 1, 0), [2.0, 4.0])

    def test_range_error(self):
        with pytest.raises(IndexError):
            forward_difference([1.0, 2.0], 2, 0)
        with pytest.raises(IndexError):
            forward_difference([1.0, 2.0], 0, -1)


class TestEndpointDerivative:
    def test_zeroth_is_endpoint(self):
        seg = BezierSegment([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(endpoint_derivative(seg, 0, "left"), [1.0, 2.0])
        np.testing.assert_array_equal(endpoint_derivative(seg, 0, "right"), [3.0, 4.0])

    def test_cubic_first_derivative(self):
        seg = BezierSegment([[0, 0], [1, 1], [2, 0], [3, 1]])
        np.testing.assert_allclose(endpoint_derivative(seg, 1, "left"), [3.0, 3.0])

    def test_against_finite_differences(self):
        rng = np.random.default_rng(8)
        seg = BezierSegment(rng.random((6, 2)))
        # larger step for order 3: roundoff in the difference grows like eps/h^order
        for order, h in ((1, 1e-5), (2, 1e-5), (3, 1e-3)):
            for end, u0 in (("left", 0.0), ("right", 1.0)):
                # central differences; de Casteljau extrapolates fine outside [0, 1]
                us = u0 + (order / 2.0 - np.arange(order + 1)) * h
                vals = eval_segment_many(seg, us)
                fd = np.zeros(2)
                for v in range(order + 1):
                    fd += (-1.0) ** v * math.comb(order, v) * vals[v]
                fd /= h**order
                exact = endpoint_derivative(seg, order, end)
                np.testing.assert_allclose(fd, exact, rtol=1e-5)

    def test_range_error(self):
        seg = BezierSegment([[0.0], [1.0]])
        with pytest.raises(ValueError):
            endpoint_derivative(seg, 2, "left")
        with pytest.raises(ValueError):
            endpoint_derivative(seg, 0, "middle")


class TestTypes:
    def test_segment_requires_finite(self):
        with pytest.raises(ValueError):
            BezierSegment([[0.0], [np.nan]])

    def test_segment_degree_bound(self):
        with pytest.raises(DegreeBoundError):
            BezierSegment(np.zeros((34, 2)))

    def test_segment_immutable(self):
        seg = BezierSegment([[0.0], [1.0]])
        with pytest.raises(ValueError):
            seg.points[0] = 5.0

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition([0.0, 0.5])
        with pytest.raises(ValueError):
            Partition([0.1, 1.0])
        with pytest.raises(ValueError):
            Partition([0.0, 0.6, 0.4, 1.0])
        # NaN compares false both ways, so an ordering check alone lets it through
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                Partition([0.0, bad, 1.0])

    def test_composite_count_mismatch(self):
        seg = BezierSegment([[0.0], [1.0]])
        with pytest.raises(ValueError):
            CompositeBezierCurve(segments=(seg,), partition=Partition([0.0, 0.5, 1.0]))

    def test_composite_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CompositeBezierCurve(
                segments=(BezierSegment([[0.0], [1.0]]), BezierSegment([[0.0, 0.0], [1.0, 1.0]])),
                partition=Partition([0.0, 0.5, 1.0]),
            )

    def test_composite_warns_on_gap(self):
        with pytest.warns(UserWarning, match="do not join"):
            CompositeBezierCurve(
                segments=(BezierSegment([[0.0], [1.0]]), BezierSegment([[1.5], [2.0]])),
                partition=Partition([0.0, 0.5, 1.0]),
            )
