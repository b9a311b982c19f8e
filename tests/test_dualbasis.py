import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from bezmerge import ParameterError, bernstein_eval, c_table, dual_eval, gram_matrix
from bezmerge.quadrature import gauss_legendre_unit


def all_constraint_pairs(m):
    return [(k, l) for k in range(m + 1) for l in range(m + 1 - k)]


class TestGramMatrix:
    def test_degree_one(self):
        np.testing.assert_allclose(
            gram_matrix(1, 0, 0), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-15)

    def test_single_constrained_entry(self):
        # <B^2_1, B^2_1> = integral of (2u(1-u))^2
        np.testing.assert_allclose(gram_matrix(2, 1, 1), [[2 / 15]], rtol=1e-15)

    def test_row_sums(self):
        for m in (1, 4, 9):
            g = gram_matrix(m, 0, 0)
            np.testing.assert_allclose(g.sum(axis=1), np.full(m + 1, 1 / (m + 1)), rtol=1e-13)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            gram_matrix(2, 2, 1)
        with pytest.raises(ParameterError):
            gram_matrix(3, -1, 0)
        with pytest.raises(ParameterError):
            gram_matrix(40, 0, 0)


class TestCTable:
    def test_unconstrained_degree_one(self):
        table = c_table(1, 0, 0)
        np.testing.assert_allclose(table.coeffs, [[4.0, -2.0], [-2.0, 4.0]], rtol=1e-14)

    def test_fully_constrained_quadratic(self):
        table = c_table(2, 1, 1)
        np.testing.assert_allclose(table.coeffs, [[7.5]], rtol=1e-14)

    def test_value_accessor_zero_border(self):
        table = c_table(10, 3, 2)
        assert table.value(2, 5) == 0.0
        assert table.value(3, 9) == 0.0
        assert table.value(4, 4) == table.coeffs[1, 1]

    def test_gram_inverse_oracle(self):
        # independent path: LAPACK partial-pivoting inverse of the Gram matrix
        for m in range(15):
            for k, l in all_constraint_pairs(m):
                got = c_table(m, k, l).coeffs
                want = np.linalg.inv(gram_matrix(m, k, l))
                np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    def test_biorthogonality_by_quadrature(self):
        nodes_weights = {}
        for m in range(15):
            g = m + 2  # exact for degree 2m
            if g not in nodes_weights:
                nodes_weights[g] = gauss_legendre_unit(g)
            nodes, weights = nodes_weights[g]
            bern = np.array([[bernstein_eval(m, j, u) for u in nodes] for j in range(m + 1)])
            for k, l in all_constraint_pairs(m):
                c = c_table(m, k, l).coeffs
                free = slice(k, m - l + 1)
                duals = c @ bern[free]
                integrals = (duals * weights) @ bern[free].T
                np.testing.assert_allclose(
                    integrals, np.eye(m - k - l + 1), atol=1e-8)

    def test_symmetry(self):
        for m, k, l in ((6, 0, 0), (9, 2, 3), (14, 1, 0)):
            c = c_table(m, k, l).coeffs
            np.testing.assert_allclose(c, c.T, rtol=1e-9)

    def test_reflection_identity(self):
        # substituting u -> 1-u swaps the constraint orders
        for m, k, l in ((7, 2, 1), (10, 3, 2), (12, 0, 4)):
            c_kl = c_table(m, k, l)
            c_lk = c_table(m, l, k)
            for i in range(k, m - l + 1):
                for j in range(k, m - l + 1):
                    assert c_kl.value(i, j) == pytest.approx(
                        c_lk.value(m - i, m - j), rel=1e-9)

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            c_table(3, 2, 2)

    @pytest.mark.parametrize("m", [24, 28, 32])
    def test_rounding_against_exact_inverse(self, exact, m):
        # every entry is the exact inverse correctly rounded, and coeffs + lo is
        # within half an ulp of lo of the exact value
        for k in range(4):
            for l in range(4):
                inverse, lam = exact.free_gram_inverse(m, k, l)
                want = [[Fraction(x, lam) for x in row] for row in inverse]
                table = c_table(m, k, l)
                np.testing.assert_array_equal(
                    table.coeffs, [[float(x) for x in row] for row in want])
                for row, hi_row, lo_row in zip(want, table.coeffs.tolist(), table.lo.tolist()):
                    for x, hi, lo in zip(row, hi_row, lo_row):
                        half_ulp = Fraction(math.ulp(lo)) / 2
                        assert abs(Fraction(hi) + Fraction(lo) - x) <= half_ulp, (k, l)

    def test_cached_table_is_shared_and_read_only(self):
        table = c_table(12, 2, 1)
        assert c_table(12, 2, 1) is table
        with pytest.raises(ValueError):
            table.coeffs[0, 0] = 0.0

    def test_remainder_is_read_only(self):
        with pytest.raises(ValueError):
            c_table(12, 2, 1).lo[0, 0] = 0.0

    def test_conditioning_warning(self, caplog):
        c_table.cache_clear()  # the warning is logged when the table is built
        with caplog.at_level(logging.WARNING, logger="bezmerge.dualbasis"):
            c_table(24, 0, 0)
        assert any("cancellation" in r.message for r in caplog.records)

    def test_no_warning_at_moderate_degree(self, caplog):
        with caplog.at_level(logging.WARNING, logger="bezmerge.dualbasis"):
            c_table(8, 1, 1)
        assert not caplog.records


class TestDualEval:
    def test_unconstrained_linear(self):
        table = c_table(1, 0, 0)
        # D_0 = 4 - 6u
        assert dual_eval(table, 0, 0.0) == pytest.approx(4.0, rel=1e-14)
        assert dual_eval(table, 0, 1.0) == pytest.approx(-2.0, rel=1e-14)

    def test_constrained_quadratic(self):
        table = c_table(2, 1, 1)
        assert dual_eval(table, 1, 0.5) == pytest.approx(3.75, rel=1e-14)

    def test_index_error(self):
        table = c_table(5, 2, 1)
        with pytest.raises(IndexError):
            dual_eval(table, 1, 0.5)
        with pytest.raises(IndexError):
            dual_eval(table, 5, 0.5)
