"""Curve document files, merge reports, and the end-to-end merge pipeline.

A curve document is a JSON object:

    {
      "dimension": 2,
      "metadata": {"name": "..."},               // optional
      "segments": [{"degree": 5, "points": [[x, y], ...]}, ...],
      "partition": [0.0, ..., 1.0]               // optional
    }

Floats are written with Python's shortest round-trip repr, so documents and
reports reload bit-for-bit.
"""

import json
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from .curves import BezierSegment, CompositeBezierCurve, Partition
from .errors import CurveFormatError, ParameterError
from .merging import MergeParams, merge
from .metrics import (
    DEFAULT_MAX_ERROR_SAMPLES,
    ErrorReport,
    arc_length_partition,
    l2_error,
    max_error,
)

PARTITION_MODES = ("auto", "arc", "uniform", "file")


@dataclass(slots=True)
class CurveDocument:
    """Deserialized curve file: segments plus an optional knot partition."""

    dimension: int
    segments: list
    partition: list | None = None
    metadata: dict = field(default_factory=dict)


def data_path(name: str) -> Path:
    """Path of a bundled example curve file (e.g. 'ampersand.json')."""
    return Path(str(resources.files("bezmerge") / "data" / name))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CurveFormatError(message)


def load_curve(path) -> CurveDocument:
    """Parse and validate a curve document; errors name the offending field."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CurveFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    _require(isinstance(raw, dict), f"{path}: top level must be an object")
    _require("dimension" in raw, f"{path}: missing field 'dimension'")
    dim = raw["dimension"]
    _require(isinstance(dim, int) and dim >= 1, f"{path}: 'dimension' must be an integer >= 1")

    raw_segments = raw.get("segments")
    _require(isinstance(raw_segments, list) and raw_segments,
             f"{path}: 'segments' must be a non-empty list")
    segments = []
    for i, entry in enumerate(raw_segments):
        where = f"{path}: segments[{i}]"
        _require(isinstance(entry, dict), f"{where} must be an object")
        points = entry.get("points")
        _require(isinstance(points, list) and points, f"{where}.points must be a non-empty list")
        for j, pt in enumerate(points):
            _require(isinstance(pt, list) and len(pt) == dim,
                     f"{where}.points[{j}] must have {dim} coordinates")
            _require(all(isinstance(x, (int, float)) for x in pt),
                     f"{where}.points[{j}] must be numeric")
        if "degree" in entry:
            _require(entry["degree"] == len(points) - 1,
                     f"{where}.degree is {entry['degree']} but there are {len(points)} points")
        try:
            segments.append(BezierSegment(points))
        except Exception as exc:
            raise CurveFormatError(f"{where}: {exc}") from exc

    partition = raw.get("partition")
    if partition is not None:
        _require(isinstance(partition, list), f"{path}: 'partition' must be a list")
        _require(len(partition) == len(segments) + 1,
                 f"{path}: partition has {len(partition)} knots, "
                 f"expected {len(segments) + 1} for {len(segments)} segments")
        try:
            Partition(partition)
        except ValueError as exc:
            raise CurveFormatError(f"{path}: partition: {exc}") from exc
        partition = [float(x) for x in partition]

    metadata = raw.get("metadata", {})
    _require(isinstance(metadata, dict), f"{path}: 'metadata' must be an object")
    return CurveDocument(dimension=dim, segments=segments,
                         partition=partition, metadata=metadata)


def save_curve(doc: CurveDocument, path) -> None:
    payload = {
        "dimension": doc.dimension,
        "metadata": doc.metadata,
        "segments": [
            {"degree": seg.degree, "points": seg.points.tolist()} for seg in doc.segments
        ],
    }
    if doc.partition is not None:
        payload["partition"] = list(doc.partition)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def as_composite(doc: CurveDocument, partition_mode: str = "auto") -> CompositeBezierCurve:
    """Build the composite curve, choosing knots per partition_mode.

    'file' takes the document's partition (error if absent), 'arc' computes the
    arc-length partition, 'uniform' spaces knots equally, 'auto' uses the file's
    partition when present and arc length otherwise.
    """
    if partition_mode not in PARTITION_MODES:
        raise ParameterError(f"partition mode must be one of {PARTITION_MODES}")
    if partition_mode == "auto":
        partition_mode = "file" if doc.partition is not None else "arc"
    if partition_mode == "file":
        if doc.partition is None:
            raise ParameterError("document carries no partition; use 'arc' or 'uniform'")
        part = Partition(doc.partition)
    elif partition_mode == "uniform":
        s = len(doc.segments)
        part = Partition([i / s for i in range(s + 1)])
    else:
        part = arc_length_partition(doc.segments)
    return CompositeBezierCurve(segments=tuple(doc.segments), partition=part)


@dataclass
class MergeReport:
    """Everything one merge run produced, in a JSON-serializable form."""

    name: str
    dimension: int
    n_segments: int
    segment_degrees: list
    partition: list
    m: int
    k: int
    l: int
    derivative_convention: str
    controls: list
    errors: ErrorReport
    merge_seconds: float
    error_seconds: float


def run_merge(
    doc: CurveDocument,
    params: MergeParams,
    n_samples: int = DEFAULT_MAX_ERROR_SAMPLES,
    partition_mode: str = "auto",
) -> MergeReport:
    """Full pipeline: build the curve, merge, evaluate both error measures."""
    curve = as_composite(doc, partition_mode)

    t0 = time.perf_counter()
    merged = merge(curve, params)
    t1 = time.perf_counter()
    e2 = l2_error(curve, merged)
    e_inf = max_error(curve, merged, n_samples)
    t2 = time.perf_counter()

    return MergeReport(
        name=str(doc.metadata.get("name", "")),
        dimension=curve.dim,
        n_segments=curve.n_segments,
        segment_degrees=[seg.degree for seg in curve.segments],
        partition=curve.partition.knots.tolist(),
        m=params.m,
        k=params.k,
        l=params.l,
        derivative_convention=params.derivative_convention,
        controls=merged.points.tolist(),
        errors=ErrorReport(e2=e2, e_inf=e_inf, samples=n_samples),
        merge_seconds=t1 - t0,
        error_seconds=t2 - t1,
    )


def report_to_json(report: MergeReport) -> str:
    return json.dumps(asdict(report), indent=2)


def save_report(report: MergeReport, path) -> None:
    Path(path).write_text(report_to_json(report) + "\n")


def load_report(path) -> MergeReport:
    raw = json.loads(Path(path).read_text())
    raw["errors"] = ErrorReport(**raw["errors"])
    return MergeReport(**raw)
