import json

import numpy as np
import pytest

from bezmerge import (
    BezierSegment,
    CurveFormatError,
    MergeParams,
    NonFiniteError,
    ParameterError,
    ValidationError,
    as_composite,
    data_path,
    l2_error,
    load_curve,
    load_report,
    merge,
    run_merge,
    save_curve,
    save_report,
    validate,
)
from bezmerge.cli import main
from bezmerge.curveio import CurveDocument
from bezmerge.svgplot import emit_svg, emit_svg_overlays


def write_json(tmp_path, payload, name="curve.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {
    "dimension": 2,
    "segments": [
        {"degree": 1, "points": [[0.0, 0.0], [1.0, 0.5]]},
        {"degree": 2, "points": [[1.0, 0.5], [1.5, 1.0], [2.0, 0.0]]},
    ],
}


class TestLoadCurve:
    def test_ampersand_fixture(self, ampersand_doc):
        assert ampersand_doc.dimension == 2
        assert len(ampersand_doc.segments) == 3
        assert all(seg.degree == 5 for seg in ampersand_doc.segments)
        assert ampersand_doc.partition is None
        assert ampersand_doc.metadata["name"] == "Ampersand"

    def test_partition_length_error(self, tmp_path):
        payload = dict(MINIMAL, partition=[0.0, 1.0, 2.0, 3.0])
        with pytest.raises(CurveFormatError, match="partition"):
            load_curve(write_json(tmp_path, payload))

    def test_non_increasing_partition(self, tmp_path):
        payload = dict(MINIMAL, partition=[0.0, 0.9, 1.0][:3])
        payload["partition"] = [0.0, 1.0, 1.0][:3]
        with pytest.raises(CurveFormatError, match="increasing"):
            load_curve(write_json(tmp_path, payload))

    def test_nan_partition(self, tmp_path):
        payload = dict(MINIMAL, partition=[0.0, float("nan"), 1.0])
        with pytest.raises(CurveFormatError, match="finite"):
            load_curve(write_json(tmp_path, payload))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "dimension": 2,\n  "segments": [}\n')
        with pytest.raises(CurveFormatError, match="line 3"):
            load_curve(path)

    def test_dimension_mismatch_names_field(self, tmp_path):
        payload = {
            "dimension": 2,
            "segments": [{"points": [[0.0, 0.0], [1.0]]}],
        }
        with pytest.raises(CurveFormatError, match=r"segments\[0\].points\[1\]"):
            load_curve(write_json(tmp_path, payload))

    def test_degree_mismatch(self, tmp_path):
        payload = {
            "dimension": 1,
            "segments": [{"degree": 3, "points": [[0.0], [1.0]]}],
        }
        with pytest.raises(CurveFormatError, match="degree"):
            load_curve(write_json(tmp_path, payload))

    def test_roundtrip_bit_exact(self, tmp_path, ampersand_doc):
        out = tmp_path / "resaved.json"
        save_curve(ampersand_doc, out)
        reloaded = load_curve(out)
        for a, b in zip(ampersand_doc.segments, reloaded.segments):
            np.testing.assert_array_equal(a.points, b.points)
        awkward = CurveDocument(
            dimension=1,
            segments=[BezierSegment([[0.1], [1 / 3], [0.7000000000000001]])],
            partition=[0.0, 1.0],
        )
        save_curve(awkward, out)
        got = load_curve(out)
        np.testing.assert_array_equal(got.segments[0].points, awkward.segments[0].points)
        assert got.partition == awkward.partition


class TestAsComposite:
    def test_auto_uses_arc_when_absent(self, ampersand_doc):
        curve = as_composite(ampersand_doc)
        np.testing.assert_allclose(np.round(curve.partition.knots, 2), [0.0, 0.45, 0.76, 1.0])

    def test_uniform(self, ampersand_doc):
        curve = as_composite(ampersand_doc, "uniform")
        np.testing.assert_allclose(curve.partition.knots, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_file_mode_requires_partition(self, ampersand_doc):
        with pytest.raises(ParameterError, match="no partition"):
            as_composite(ampersand_doc, "file")

    def test_file_mode_uses_document_knots(self, tmp_path):
        payload = dict(MINIMAL, partition=[0.0, 0.25, 1.0])
        doc = load_curve(write_json(tmp_path, payload))
        curve = as_composite(doc, "file")
        np.testing.assert_array_equal(curve.partition.knots, [0.0, 0.25, 1.0])

    def test_bad_mode(self, ampersand_doc):
        with pytest.raises(ParameterError):
            as_composite(ampersand_doc, "chebyshev")


class TestRunMerge:
    def test_ampersand_report(self, ampersand_doc):
        report = run_merge(ampersand_doc, MergeParams(m=8, k=2, l=1))
        assert report.errors.e2 == pytest.approx(8.57e-3, rel=0.02)
        assert report.errors.e_inf == pytest.approx(2.36e-2, rel=0.05)
        assert report.n_segments == 3
        assert report.segment_degrees == [5, 5, 5]
        assert report.m == 8 and report.k == 2 and report.l == 1
        assert len(report.controls) == 9
        assert report.merge_seconds >= 0.0 and report.error_seconds >= 0.0

    def test_single_segment_exact(self, tmp_path):
        payload = {
            "dimension": 2,
            "segments": [{"points": [[0.0, 0.0], [0.4, 1.0], [1.0, 0.2]]}],
            "partition": [0.0, 1.0],
        }
        doc = load_curve(write_json(tmp_path, payload))
        report = run_merge(doc, MergeParams(m=2, k=0, l=0))
        assert report.errors.e2 <= 1e-10

    def test_arc_length_overflow_raises_named_error(self, ampersand_doc):
        # squared speeds overflow in the arc-length quadrature near 1e200
        huge = CurveDocument(
            dimension=2, segments=[BezierSegment(seg.points * 1e200) for seg in ampersand_doc.segments])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            run_merge(huge, MergeParams(m=10, k=2, l=1), partition_mode="arc")

    def test_report_roundtrip(self, tmp_path, ampersand_doc):
        report = run_merge(ampersand_doc, MergeParams(m=8, k=2, l=1))
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.controls == report.controls
        assert loaded.errors.e2 == report.errors.e2
        assert loaded.errors.e_inf == report.errors.e_inf
        assert loaded.partition == report.partition

    @pytest.mark.parametrize("name", ["ampersand.json", "penguin-left.json", "penguin-right.json"])
    @pytest.mark.parametrize("mkl", [(6, 1, 1), (10, 3, 2), (14, 0, 2)])
    def test_shared_table_matches_separate_builds(self, name, mkl):
        doc = load_curve(data_path(name))
        params = MergeParams(*mkl)
        report = run_merge(doc, params)
        curve = as_composite(doc)
        merged = merge(curve, params)
        assert report.controls == merged.points.tolist()
        assert report.errors.e2 == l2_error(curve, merged)

    @pytest.mark.parametrize("mkl", [(33, 7, 1), (4, 3, 2)])
    def test_invalid_params_raise_full_violation_list(self, ampersand_doc, mkl):
        params = MergeParams(*mkl)
        expected = validate(as_composite(ampersand_doc), params)
        assert len(expected) >= 2
        with pytest.raises(ValidationError) as err:
            run_merge(ampersand_doc, params)
        assert err.value.violations == expected

    def test_deterministic_apart_from_timing(self, ampersand_doc):
        a = run_merge(ampersand_doc, MergeParams(m=10, k=2, l=2))
        b = run_merge(ampersand_doc, MergeParams(m=10, k=2, l=2))
        assert a.controls == b.controls
        assert a.errors == b.errors
        assert a.partition == b.partition


class TestSvg:
    def test_overlay_contains_both_curves(self, tmp_path, ampersand_doc, ampersand):
        merged = merge(ampersand, MergeParams(m=10, k=3, l=2))
        out = tmp_path / "plot.svg"
        emit_svg(ampersand_doc, merged, out)
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 4  # three segments plus the merged curve
        assert "stroke-dasharray" in text

    def test_original_only(self, tmp_path, ampersand_doc):
        out = tmp_path / "orig.svg"
        emit_svg(ampersand_doc, None, out)
        assert out.read_text().count("<polyline") == 3

    def test_control_polygons(self, tmp_path, ampersand_doc, ampersand):
        merged = merge(ampersand, MergeParams(m=8, k=1, l=1))
        out = tmp_path / "ctrl.svg"
        emit_svg(ampersand_doc, merged, out, show_controls=True)
        assert out.read_text().count("<polyline") == 8

    def test_two_curve_overlay(self, tmp_path, penguin_left, penguin_right):
        left_merged = merge(penguin_left, MergeParams(m=12, k=1, l=2))
        right_merged = merge(penguin_right, MergeParams(m=10, k=2, l=1))
        out = tmp_path / "penguin.svg"
        emit_svg_overlays(
            [(penguin_left.segments, left_merged), (penguin_right.segments, right_merged)],
            out)
        assert out.read_text().count("<polyline") == 9

    def test_rejects_other_dimensions(self, tmp_path):
        doc = CurveDocument(
            dimension=3,
            segments=[BezierSegment([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])],
        )
        with pytest.raises(ValueError, match="2-D"):
            emit_svg(doc, None, tmp_path / "bad.svg")


class TestCli:
    def test_merge_command(self, tmp_path, capsys):
        report_path = tmp_path / "out.json"
        svg_path = tmp_path / "out.svg"
        code = main([
            "merge", str(data_path("ampersand.json")),
            "--m", "8", "--k", "2", "--l", "1",
            "--report", str(report_path), "--svg", str(svg_path),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert payload["errors"]["e2"] == pytest.approx(8.57e-3, rel=0.02)
        assert report_path.exists() and svg_path.exists()
        on_disk = json.loads(report_path.read_text())
        assert on_disk["controls"] == payload["controls"]

    def test_merge_validation_failure_exit_code(self, capsys):
        code = main(["merge", str(data_path("ampersand.json")), "--m", "4"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_missing_file(self, capsys):
        code = main(["partition", "no-such-file.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_partition_command(self, capsys):
        code = main(["partition", str(data_path("penguin-left.json"))])
        assert code == 0
        knots = [float(x) for x in capsys.readouterr().out.strip().split(",")]
        np.testing.assert_allclose(np.round(knots, 2), [0.0, 0.08, 0.55, 0.78, 1.0])

    def test_dump_ctable(self, capsys):
        code = main(["dump-ctable", "--m", "2", "--k", "1", "--l", "1"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(7.5)

    def test_dump_dtable(self, tmp_path):
        out = tmp_path / "dtable.csv"
        code = main([
            "dump-dtable", str(data_path("ampersand.json")),
            "--m", "6", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines.count("# segment 1") == 1
        assert len(lines) == 3 * 8  # three blocks of seven rows plus headers

    def test_bench_smoke(self, capsys):
        code = main([
            "bench", "--s-values", "2,4", "--m-values", "4,8",
            "--repeats", "1", "--m-fixed", "6", "--s-fixed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "slope in s" in out and "slope in m" in out
