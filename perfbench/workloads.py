"""Seeded request streams for the three benchmark workloads.

Request i of a workload depends only on (seed, i): its structure comes from a
seeded permutation of the workload's parameter grid, one grid per block of
requests, and its curve from a generator seeded with (seed, i). A closed loop
that stops after any number of requests therefore sees the same inputs for
the same seed, and every block covers the whole grid once, so the cost mix of
a run does not depend on the seed. A cell fixes a request's structure, hence
its cost; only the curve's coordinates differ between requests of a cell.

paper-glyphs  the three bundled documents at the 33 (m, k, l) rows of the
              paper's Tables 2-3 (m = 8..14), arc-length partition; each
              request applies a fresh similarity transform (rotation,
              scale 2**U(-1, 1), shift U(-2, 2)^2), so no two inputs repeat.
              The paper's E2 and E_inf scale with the transform and are
              checked against the tables.
long-chains   s = 32 continuous cubic segments whose sizes vary by a factor
              exp(U(ln 1/4, ln 4)), so every request has a new non-uniform
              arc-length partition; m = 16, (k, l) in {1, 2}^2.
high-degree   s in {1, 2} continuous segments of degree 3 or 5 with controls
              in [0, 1]^2, segment degrees (3), (5), (3, 5) or (5, 3) fixed
              per cell; m in {20, 24, 28, 32}, k, l in {0..3}: 64 cells.
"""

from dataclasses import dataclass

import numpy as np

from bezmerge import BezierSegment, CurveDocument, MergeParams, data_path, load_curve

# (document, m, k, l, E2, E_inf) as printed in the paper's Tables 2-3.
PAPER_ROWS = (
    [("ampersand.json", m, k, l, e2, ei) for m, k, l, e2, ei in (
        (8, 2, 1, 8.57e-3, 2.36e-2), (8, 2, 2, 1.99e-2, 5.46e-2), (8, 3, 2, 3.89e-2, 1.04e-1),
        (10, 2, 1, 3.49e-3, 1.32e-2), (10, 2, 2, 9.43e-3, 3.36e-2),
        (10, 3, 2, 1.98e-2, 6.08e-2), (12, 2, 1, 2.70e-3, 9.84e-3),
        (12, 2, 2, 5.71e-3, 2.29e-2), (12, 3, 2, 1.06e-2, 3.81e-2))]
    + [("penguin-left.json", m, k, l, e2, ei) for m, k, l, e2, ei in (
        (12, 1, 1, 7.45e-3, 1.90e-2), (12, 1, 2, 1.05e-2, 2.69e-2),
        (12, 2, 1, 7.85e-3, 1.93e-2), (12, 2, 2, 1.10e-2, 2.85e-2),
        (13, 1, 1, 6.68e-3, 1.45e-2), (13, 1, 2, 7.80e-3, 1.64e-2),
        (13, 2, 1, 7.28e-3, 1.48e-2), (13, 2, 2, 8.53e-3, 1.71e-2),
        (14, 1, 1, 4.39e-3, 1.19e-2), (14, 1, 2, 4.51e-3, 1.27e-2),
        (14, 2, 1, 4.86e-3, 1.17e-2), (14, 2, 2, 5.08e-3, 1.30e-2))]
    + [("penguin-right.json", m, k, l, e2, ei) for m, k, l, e2, ei in (
        (10, 1, 1, 1.28e-2, 3.51e-2), (10, 2, 1, 1.28e-2, 3.48e-2),
        (10, 1, 2, 1.29e-2, 3.49e-2), (10, 2, 2, 1.30e-2, 3.44e-2),
        (12, 1, 1, 9.01e-3, 3.00e-2), (12, 2, 1, 1.02e-2, 3.27e-2),
        (12, 1, 2, 1.14e-2, 2.98e-2), (12, 2, 2, 1.23e-2, 3.25e-2),
        (13, 1, 1, 8.65e-3, 2.83e-2), (13, 2, 1, 9.16e-3, 2.81e-2),
        (13, 1, 2, 1.11e-2, 2.98e-2), (13, 2, 2, 1.16e-2, 2.98e-2))]
)
# Tolerances of the tables' printed precision, as in the acceptance tests.
E2_RTOL = 0.02
EINF_RTOL = 0.05


@dataclass
class Request:
    doc: CurveDocument
    params: MergeParams
    # Index of the grid cell: requests of one cell have the same structure, so
    # the same cost.
    cell: int = -1
    # Paper rows only: (similarity scale, E2, E_inf) the report must reproduce.
    paper: tuple | None = None


def _chain(rng, degrees, scales=None) -> CurveDocument:
    """Continuous 2-D chain: each segment starts where the previous one ends."""
    segments, prev = [], None
    for i, n in enumerate(degrees):
        pts = rng.random((n + 1, 2))
        if scales is not None:
            pts = (pts - 0.5) * scales[i]
        if prev is not None:
            pts += prev - pts[0]
            pts[0] = prev
        prev = pts[-1]
        segments.append(BezierSegment(pts))
    return CurveDocument(dimension=2, segments=segments)


class Workload:
    """A seeded stream of merge requests over one parameter grid."""

    name = ""
    # Requests whose outputs give the accuracy metrics: whole blocks, so the
    # figures depend on the seed alone and not on how fast the loop ran.
    accuracy_requests = 0

    def __init__(self, seed: int):
        self.seed = seed

    def grid(self) -> list:
        raise NotImplementedError

    def build(self, rng, cell) -> Request:
        raise NotImplementedError

    def request(self, i: int) -> Request:
        grid = self.grid()
        block, pos = divmod(i, len(grid))
        cell = int(np.random.default_rng([self.seed, block, 1]).permutation(len(grid))[pos])
        req = self.build(np.random.default_rng([self.seed, i, 2]), grid[cell])
        req.cell = cell
        return req

    def warmup(self, i: int) -> Request:
        """Requests from a stream disjoint from the measured one."""
        grid = self.grid()
        return self.build(np.random.default_rng([self.seed, i, 3]), grid[i % len(grid)])

    def cli_request(self) -> tuple:
        """(document path or None to write one, request) for the CLI timing."""
        raise NotImplementedError


class PaperGlyphs(Workload):
    name = "paper-glyphs"
    accuracy_requests = 33 * 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.docs = {name: load_curve(data_path(name))
                     for name in sorted({row[0] for row in PAPER_ROWS})}

    def grid(self) -> list:
        return PAPER_ROWS

    def build(self, rng, cell) -> Request:
        name, m, k, l, e2, e_inf = cell
        theta = rng.uniform(0.0, 2.0 * np.pi)
        scale = 2.0 ** rng.uniform(-1.0, 1.0)
        rot = scale * np.array([[np.cos(theta), -np.sin(theta)],
                                [np.sin(theta), np.cos(theta)]])
        shift = rng.uniform(-2.0, 2.0, size=2)
        base = self.docs[name]
        segments = [BezierSegment(seg.points @ rot.T + shift) for seg in base.segments]
        doc = CurveDocument(dimension=2, segments=segments, metadata=dict(base.metadata))
        return Request(doc, MergeParams(m=m, k=k, l=l), paper=(scale, e2, e_inf))

    def cli_request(self) -> tuple:
        return data_path("ampersand.json"), Request(self.docs["ampersand.json"],
                                                    MergeParams(m=10, k=3, l=2))


class LongChains(Workload):
    name = "long-chains"
    accuracy_requests = 4 * 32
    S = 32
    M = 16

    def grid(self) -> list:
        return [(k, l) for k in (1, 2) for l in (1, 2)]

    def build(self, rng, cell) -> Request:
        k, l = cell
        scales = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=self.S))
        doc = _chain(rng, [3] * self.S, scales)
        return Request(doc, MergeParams(m=self.M, k=k, l=l))

    def cli_request(self) -> tuple:
        return None, self.build(np.random.default_rng([self.seed, 4]), (2, 2))


class HighDegree(Workload):
    name = "high-degree"
    accuracy_requests = 64 * 4
    # Segment degrees per cell, rotating with (k - l + m/4) so that every m and
    # every (k, l) meets each pattern equally often.
    DEGREES = ((3,), (5,), (3, 5), (5, 3))

    def grid(self) -> list:
        return [(m, k, l, self.DEGREES[(k - l + m // 4) % 4])
                for m in (20, 24, 28, 32) for k in range(4) for l in range(4)]

    def build(self, rng, cell) -> Request:
        m, k, l, degrees = cell
        return Request(_chain(rng, degrees), MergeParams(m=m, k=k, l=l))

    def cli_request(self) -> tuple:
        doc = _chain(np.random.default_rng([self.seed, 4]), [5, 5])
        return None, Request(doc, MergeParams(m=32, k=2, l=2))


WORKLOADS = {w.name: w for w in (PaperGlyphs, LongChains, HighDegree)}
