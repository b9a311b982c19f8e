import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bezmerge import (
    BezierSegment,
    CompositeBezierCurve,
    Partition,
    as_composite,
    data_path,
    load_curve,
)


@pytest.fixture(scope="session")
def exact():
    """perfbench/exact.py, the exact rational reference (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
    spec = importlib.util.spec_from_file_location("perfbench_exact", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ampersand_doc():
    return load_curve(data_path("ampersand.json"))


@pytest.fixture(scope="session")
def ampersand(ampersand_doc):
    return as_composite(ampersand_doc, "arc")


@pytest.fixture(scope="session")
def penguin_left_doc():
    return load_curve(data_path("penguin-left.json"))


@pytest.fixture(scope="session")
def penguin_left(penguin_left_doc):
    return as_composite(penguin_left_doc, "arc")


@pytest.fixture(scope="session")
def penguin_right_doc():
    return load_curve(data_path("penguin-right.json"))


@pytest.fixture(scope="session")
def penguin_right(penguin_right_doc):
    return as_composite(penguin_right_doc, "arc")


def random_composite(rng, max_segments=4, max_degree=6, dims=(1, 2, 3), min_gap=1e-3):
    """Random continuous composite curve for oracle comparisons."""
    s = int(rng.integers(1, max_segments + 1))
    d = int(rng.choice(dims))
    degrees = rng.integers(1, max_degree + 1, size=s)
    segments = []
    prev_end = None
    for n in degrees:
        pts = rng.random((int(n) + 1, d)) * 2.0 - 0.5
        if prev_end is not None:
            pts[0] = prev_end
        prev_end = pts[-1]
        segments.append(BezierSegment(pts))
    while True:
        if s == 1:
            knots = np.array([0.0, 1.0])
            break
        knots = np.concatenate([[0.0], np.sort(rng.random(s - 1)), [1.0]])
        if np.all(np.diff(knots) >= min_gap):
            break
    return CompositeBezierCurve(segments=tuple(segments), partition=Partition(knots))


def random_valid_params(rng, curve, max_m=12):
    """Random (m, k, l) satisfying the merge preconditions for the curve."""
    n1 = curve.segments[0].degree
    ns = curve.segments[-1].degree
    m = int(rng.integers(curve.max_degree, max_m + 1))
    k = int(rng.integers(0, min(n1 + 1, m) + 1))
    l = int(rng.integers(0, min(ns + 1, m - k) + 1))
    return m, k, l
