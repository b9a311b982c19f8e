"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and prints a
single PASS line when it holds (run with -s to see them; a failed assertion
marks the criterion failed).
"""

import time

import numpy as np
import pytest

from bezmerge import (
    MergeParams,
    arc_length_partition,
    c_table,
    d_direct,
    d_table,
    eval_segment_many,
    forward_difference,
    gram_matrix,
    l2_error,
    max_error,
    merge,
    merge_oracle,
)
from bezmerge.bench import bench_scaling
from bezmerge.curves import Partition, binomial
from bezmerge.quadrature import gauss_legendre_unit

from conftest import random_composite, random_valid_params

TABLE2_AMPERSAND = [
    (8, 2, 1, 8.57e-3, 2.36e-2),
    (8, 2, 2, 1.99e-2, 5.46e-2),
    (8, 3, 2, 3.89e-2, 1.04e-1),
    (10, 2, 1, 3.49e-3, 1.32e-2),
    (10, 2, 2, 9.43e-3, 3.36e-2),
    (10, 3, 2, 1.98e-2, 6.08e-2),
    (12, 2, 1, 2.70e-3, 9.84e-3),
    (12, 2, 2, 5.71e-3, 2.29e-2),
    (12, 3, 2, 1.06e-2, 3.81e-2),
]

TABLE3_PENGUIN_LEFT = [
    (12, 1, 1, 7.45e-3, 1.90e-2),
    (12, 1, 2, 1.05e-2, 2.69e-2),
    (12, 2, 1, 7.85e-3, 1.93e-2),
    (12, 2, 2, 1.10e-2, 2.85e-2),
    (13, 1, 1, 6.68e-3, 1.45e-2),
    (13, 1, 2, 7.80e-3, 1.64e-2),
    (13, 2, 1, 7.28e-3, 1.48e-2),
    (13, 2, 2, 8.53e-3, 1.71e-2),
    (14, 1, 1, 4.39e-3, 1.19e-2),
    (14, 1, 2, 4.51e-3, 1.27e-2),
    (14, 2, 1, 4.86e-3, 1.17e-2),
    (14, 2, 2, 5.08e-3, 1.30e-2),
]

TABLE3_PENGUIN_RIGHT = [
    (10, 1, 1, 1.28e-2, 3.51e-2),
    (10, 2, 1, 1.28e-2, 3.48e-2),
    (10, 1, 2, 1.29e-2, 3.49e-2),
    (10, 2, 2, 1.30e-2, 3.44e-2),
    (12, 1, 1, 9.01e-3, 3.00e-2),
    (12, 2, 1, 1.02e-2, 3.27e-2),
    (12, 1, 2, 1.14e-2, 2.98e-2),
    (12, 2, 2, 1.23e-2, 3.25e-2),
    (13, 1, 1, 8.65e-3, 2.83e-2),
    (13, 2, 1, 9.16e-3, 2.81e-2),
    (13, 1, 2, 1.11e-2, 2.98e-2),
    (13, 2, 2, 1.16e-2, 2.98e-2),
]

E2_RTOL = 0.02
EINF_RTOL = 0.05


def check_rows(curve, rows):
    for m, k, l, e2_ref, einf_ref in rows:
        merged = merge(curve, MergeParams(m=m, k=k, l=l))
        e2 = l2_error(curve, merged)
        e_inf = max_error(curve, merged, 500)
        assert e2 == pytest.approx(e2_ref, rel=E2_RTOL), (m, k, l, "e2")
        assert e_inf == pytest.approx(einf_ref, rel=EINF_RTOL), (m, k, l, "e_inf")


def test_criterion_1_table2_reproduction(ampersand):
    start = time.perf_counter()
    check_rows(ampersand, TABLE2_AMPERSAND)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (reference table, 3-segment curve, 9 rows): PASS ({elapsed:.2f}s)")


def test_criterion_2_table3_reproduction(penguin_left, penguin_right):
    start = time.perf_counter()
    check_rows(penguin_left, TABLE3_PENGUIN_LEFT)
    check_rows(penguin_right, TABLE3_PENGUIN_RIGHT)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"\nACCEPTANCE 2 (reference table, both 4+3-segment curves, 24 rows): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_3_partition_values(ampersand_doc, penguin_left_doc):
    amp = arc_length_partition(ampersand_doc.segments)
    np.testing.assert_array_equal(np.round(amp.knots, 2), [0.0, 0.45, 0.76, 1.0])
    left = arc_length_partition(penguin_left_doc.segments)
    np.testing.assert_array_equal(np.round(left.knots, 2), [0.0, 0.08, 0.55, 0.78, 1.0])
    print("\nACCEPTANCE 3 (arc-length partition knots to 2 decimals): PASS")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    n_instances = 200
    worst_ctrl = 0.0
    worst_l2_rel = 0.0
    for _ in range(n_instances):
        curve = random_composite(rng, max_segments=4, max_degree=6, dims=(1, 2, 3))
        m, k, l = random_valid_params(rng, curve, max_m=12)
        params = MergeParams(m=m, k=k, l=l)
        merged = merge(curve, params)
        reference = merge_oracle(curve, params)
        scale = np.maximum(1.0, np.abs(reference.points))
        worst_ctrl = max(worst_ctrl, float(
            np.max(np.abs(merged.points - reference.points) / scale)))

        e2 = l2_error(curve, merged)
        nodes, weights = gauss_legendre_unit(m + 4)
        kn = curve.partition.knots
        acc = 0.0
        for i, seg in enumerate(curve.segments):
            dt = kn[i + 1] - kn[i]
            ts = kn[i] + dt * nodes
            diff = eval_segment_many(seg, nodes) - eval_segment_many(merged, ts)
            acc += dt * float(weights @ (diff * diff).sum(axis=1))
        # 1e-9 relative agreement of the squared distances; exact-fit instances
        # (both paths computing a true zero) are held to the closed form's
        # cancellation floor instead, since no relative statement exists at 0
        noise_floor = 1e-13 * max(curve.bounding_box_diagonal(), 1.0) ** 2
        assert abs(e2**2 - acc) <= max(1e-9 * acc, noise_floor)
        if acc > noise_floor:
            worst_l2_rel = max(worst_l2_rel, abs(e2**2 - acc) / acc)
    elapsed = time.perf_counter() - start
    assert worst_ctrl < 1e-8
    assert worst_l2_rel < 1e-9
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 (oracle equivalence, {n_instances} instances): PASS "
          f"(worst control dev {worst_ctrl:.2e}, worst squared-L2 rel dev "
          f"{worst_l2_rel:.2e}, {elapsed:.1f}s)")


def test_criterion_5_table_identities():
    for m in range(15):
        for k in range(m + 1):
            for l in range(m + 1 - k):
                prod = c_table(m, k, l).coeffs @ gram_matrix(m, k, l)
                np.testing.assert_allclose(
                    prod, np.eye(m - k - l + 1), atol=1e-7)

    rng = np.random.default_rng(512)
    for m in (3, 8, 14):
        for s in (2, 4, 6):
            while True:
                knots = np.concatenate([[0.0], np.sort(rng.random(s - 1)), [1.0]])
                if np.all(np.diff(knots) >= 1e-3):
                    break
            part = Partition(knots)
            table = d_table(m, part)
            for i in range(s):
                ref = np.array([
                    [d_direct(m, j, h, float(knots[i]), float(knots[i + 1]))
                     for h in range(m + 1)]
                    for j in range(m + 1)])
                np.testing.assert_allclose(table.coeffs[i], ref, atol=1e-9)
            np.testing.assert_allclose(
                table.coeffs.sum(axis=1), np.ones((s, m + 1)), atol=1e-10)
    print("\nACCEPTANCE 5 (dual-basis and restriction table identities): PASS")


def test_criterion_6_constraint_satisfaction(ampersand, penguin_left, penguin_right):
    rng = np.random.default_rng(77)
    cases = []
    for curve in (ampersand, penguin_left, penguin_right):
        cases += [(curve, 10, 2, 1), (curve, 12, 2, 2), (curve, 13, 1, 2)]
    for _ in range(20):
        curve = random_composite(rng)
        m, k, l = random_valid_params(rng, curve)
        if k >= 1 and l >= 1:
            cases.append((curve, m, k, l))

    for curve, m, k, l in cases:
        merged = merge(curve, MergeParams(m=m, k=k, l=l))
        np.testing.assert_array_equal(merged.points[0], curve.segments[0].points[0])
        np.testing.assert_array_equal(merged.points[-1], curve.segments[-1].points[-1])
        first, last = curve.segments[0], curve.segments[-1]
        for j in range(k):
            lhs = binomial(m, j) * forward_difference(merged.points, j, 0)
            rhs = binomial(first.degree, j) * forward_difference(first.points, j, 0)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
        for j in range(l):
            lhs = binomial(m, j) * forward_difference(merged.points, j, m - j)
            rhs = binomial(last.degree, j) * forward_difference(
                last.points, j, last.degree - j)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
    print(f"\nACCEPTANCE 6 (endpoint interpolation and derivative identities, "
          f"{len(cases)} cases): PASS")


def test_criterion_7_monotonicity(ampersand):
    errors = []
    for m in (8, 10, 12):
        merged = merge(ampersand, MergeParams(m=m, k=2, l=1))
        errors.append(l2_error(ampersand, merged))
    assert errors[0] > errors[1] > errors[2]
    print(f"\nACCEPTANCE 7 (L2 error decreases with degree: "
          f"{errors[0]:.2e} > {errors[1]:.2e} > {errors[2]:.2e}): PASS")


def test_criterion_8_complexity_scaling():
    result = bench_scaling(s_values=(2, 4, 8, 16), m_values=(8, 16, 32), repeats=5)
    assert 1.5 <= result.slope_m <= 2.5
    assert 0.7 <= result.slope_s <= 1.3
    print(f"\nACCEPTANCE 8 (merge-cost scaling: slope_m {result.slope_m:.2f} in [1.5, 2.5], "
          f"slope_s {result.slope_s:.2f} in [0.7, 1.3]): PASS")
