"""The benchmark's per-layer spans still find the functions they wrap.

bench/tracing.py wraps fieldreg functions under the names by which
fieldreg.pipeline looks them up, and reads their counts from positional
arguments and results.  A renamed function, or a changed positional
signature, would make the benchmark's per-layer metrics read null.  The
tests only read bench/.  One runs the tracer around a short filter run with
estimated motion, the way the stream workload does; the others around
`fieldreg evaluate`, `fieldreg calibrate` and `fieldreg baseline` on the
golden files, the way the offline workload does.
"""

import pathlib

import numpy as np
import pytest

from fieldreg import pipeline
from fieldreg.cli import main as cli_main
from fieldreg.defaults import default_covariance_bank
from fieldreg.pipeline import FilterOptions
from fieldreg.seqio import SequenceFrame, read_report, read_sequence
from fieldreg.simulator import SimConfig, generate_sequence, pan_motion_script
from helpers import DIMS, TEMPLATE, view_homography

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
N_FRAMES = 20


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def flow_frames():
    cfg = SimConfig(template=TEMPLATE, dims=DIMS, n_frames=N_FRAMES,
                    initial_homography=view_homography(),
                    motions=pan_motion_script(N_FRAMES), dropout=0.2, seed=3)
    frames = generate_sequence(cfg)
    out = [SequenceFrame(frame_index=0, measurements=frames[0].measurements)]
    for prev, curr in zip(frames, frames[1:]):
        common = np.intersect1d(prev.gt_ids, curr.gt_ids)
        out.append(SequenceFrame(
            frame_index=curr.frame_index, measurements=curr.measurements,
            flow=(prev.gt_positions[np.searchsorted(prev.gt_ids, common)],
                  curr.gt_positions[np.searchsorted(curr.gt_ids, common)])))
    return out


def test_tracer_spans_cover_the_filter_layers(tracing):
    frames = flow_frames()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        estimates = list(pipeline.iter_filter(frames, TEMPLATE, default_covariance_bank(),
                                              FilterOptions(motion_source="estimate")))
    finally:
        tracer.uninstall()
    assert len(estimates) == N_FRAMES
    assert not tracer.missing

    spans = {}
    for layer, _, _, _, info, error in tracer.spans:
        assert error is None, layer
        spans.setdefault(layer, []).append(info)
    steady = N_FRAMES - 1
    assert len(spans["pipeline.iter_filter"]) == N_FRAMES
    assert spans["keypoint_filter.lkf_update"] == [f.measurements.k for f in frames]
    assert len(spans["homography_filter.ekf_update"]) == steady
    assert all(k > 0 for k in spans["homography_filter.ekf_update"])
    motion = spans["motion.estimate_global_motion"]
    assert [pairs for pairs, _ in motion] == [f.flow[0].shape[0] for f in frames[1:]]
    assert all(frac == 1.0 for _, frac in motion)   # exact flow has no outliers

    metrics = tracer.layer_metrics(1, N_FRAMES, 1)
    for name in ("homography_filter.ekf_update_ms", "homography_filter.ekf_predict_ms",
                 "keypoint_filter.lkf_update_ms", "motion.estimate_global_motion_ms",
                 "homography_filter.active_per_update", "motion.inlier_frac",
                 "pipeline.iter_filter_self_ms"):
        assert metrics[name]["value"] > 0, name


EVALUATE_LAYERS = ("metrics.projection_error", "metrics.iou_entire",
                   "metrics.iou_entire_image", "metrics.iou_part",
                   "metrics.reprojection_error")


def test_tracer_spans_cover_the_evaluate_layers(tracing, tmp_path):
    data = pathlib.Path(__file__).parent / "data"
    report = tmp_path / "report.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli_main(["evaluate", "--input", str(data / "golden_estimates.jsonl"),
                         "--truth", str(data / "golden_sequence.jsonl"),
                         "--projection-samples", "100", "--output", str(report)]) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    scored = read_report(report)["counts"]["scored"]
    assert scored == 10

    calls = {}
    for layer, _, _, _, _, error in tracer.spans:
        assert error is None, layer
        calls[layer] = calls.get(layer, 0) + 1
    for layer in EVALUATE_LAYERS:
        assert calls.get(layer) == scored, layer
    # nrmse twice, precision_recall and average_precision once per frame
    assert calls.get("metrics.keypoint_metrics") == 4 * scored
    # three IoUs and the projection error's visible pitch
    assert calls.get("geometry.clip_polygon") == 4 * scored
    assert calls.get("pipeline.run_evaluate") == 1

    metrics = tracer.layer_metrics(1, scored, 1)
    for name in [f"{layer}_ms" for layer in EVALUATE_LAYERS] + [
            "metrics.keypoint_metrics_ms", "geometry.clip_polygon_us",
            "geometry.clip_polygon_calls", "pipeline.run_evaluate_self_ms",
            "seqio.read_estimates_ms_per_frame", "seqio.read_sequence_ms_per_frame",
            "seqio.write_report_ms"]:
        assert metrics[name]["value"] is not None, name
        assert metrics[name]["value"] > 0, name


def traced_cli(tracing, argv):
    """The spans of one traced `fieldreg` run, which must exit 0, as
    {layer: [(parent layer, info)]}, each span without an error."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli_main(argv) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    spans = {}
    for layer, _, _, parent, info, error in tracer.spans:
        assert error is None, layer
        spans.setdefault(layer, []).append((tracer.spans[parent][0] if parent >= 0 else None,
                                            info))
    return tracer, spans


def test_tracer_spans_cover_the_calibrate_and_baseline_layers(tracing, tmp_path):
    data = pathlib.Path(__file__).parent / "data"
    seq = str(data / "golden_sequence.jsonl")
    _, frames = read_sequence(seq, TEMPLATE)
    fits = sum(1 for f in frames if f.measurements.k >= 4)
    annotated_fits = sum(1 for f in frames if f.measurements.k >= 4
                         and f.gt_homography is not None)
    assert annotated_fits > 0

    # calibrate: pipeline looks calibrate_bank up, calibrate_bank looks
    # estimate_init_homography_cov up, and that looks ransac_homography up
    tracer, spans = traced_cli(tracing, ["calibrate", "--input", seq, "--seed", "5",
                                         "--output", str(tmp_path / "bank.json")])
    assert spans["calibration.calibrate_bank"] == [(None, None)]
    assert [p for p, _ in spans["calibration.estimate_init_homography_cov"]] == [
        "calibration.calibrate_bank"]
    fit_spans = spans["geometry.ransac_homography"]
    assert [p for p, _ in fit_spans] == [
        "calibration.estimate_init_homography_cov"] * annotated_fits
    assert all(0 < frac <= 1 for _, frac in fit_spans)
    metrics = tracer.layer_metrics(1, len(frames), 1)
    for name in ("calibration.calibrate_bank_self_ms",
                 "calibration.estimate_init_homography_cov_self_ms",
                 "geometry.ransac_homography_ms", "geometry.ransac_calls"):
        assert metrics[name]["value"] > 0, name

    # baseline: the CLI looks run_ransac_baseline up, and pipeline
    # ransac_homography
    tracer, spans = traced_cli(tracing, ["baseline", "--input", seq,
                                         "--output", str(tmp_path / "est.jsonl")])
    assert spans["pipeline.run_ransac_baseline"] == [(None, None)]
    assert [p for p, _ in spans["geometry.ransac_homography"]] == [
        "pipeline.run_ransac_baseline"] * fits
    metrics = tracer.layer_metrics(1, len(frames), 1)
    for name in ("pipeline.run_ransac_baseline_self_ms", "geometry.ransac_homography_ms",
                 "geometry.ransac_calls"):
        assert metrics[name]["value"] > 0, name
