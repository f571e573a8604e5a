"""Pipeline orchestration, file formats, and the CLI front end."""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import fieldreg
from fieldreg.cli import main as cli_main
from fieldreg.defaults import DEFAULT_MEASUREMENT, default_covariance_bank
from fieldreg.errors import (
    FormatError,
    FrameMismatch,
    NoInitializableFrame,
    UnknownKeypointId,
)
from fieldreg.field import FieldTemplate
from fieldreg.geometry import RansacParams, apply_homography
from fieldreg.keypoint_filter import MeasurementFrame
from fieldreg.motion import AffineSimilarity
from fieldreg.pipeline import (
    FilterOptions,
    FrameEstimate,
    run_calibrate,
    run_evaluate,
    run_filter,
    run_ransac_baseline,
)
from fieldreg.seqio import (
    SequenceFrame,
    SequenceHeader,
    read_bank,
    read_estimates,
    read_report,
    read_sequence,
    read_template,
    training_records,
    write_bank,
    write_estimates,
    write_report,
    write_sequence,
    write_template,
)
from fieldreg.simulator import SimConfig, SimNoise, generate_sequence, pan_motion_script
from helpers import DIMS, TEMPLATE, view_homography


def sim_frames(n_frames=20, seed=0, **kw):
    cfg = SimConfig(template=TEMPLATE, dims=DIMS, n_frames=n_frames,
                    initial_homography=view_homography(),
                    motions=pan_motion_script(n_frames), seed=seed, **kw)
    return generate_sequence(cfg)


def manual_frame(frame_index, ids, positions, motion=None, **kw):
    return SequenceFrame(frame_index=frame_index,
                         measurements=MeasurementFrame(frame_index, ids, positions),
                         motion=motion, **kw)


def test_run_filter_noiseless_tracks_truth():
    frames = sim_frames()
    ests = run_filter(frames, TEMPLATE, default_covariance_bank())
    assert len(ests) == len(frames)
    assert "init" in ests[0].flags
    for fr, est in zip(frames, ests):
        assert est.frame_index == fr.frame_index
        assert np.abs(est.homography - fr.gt_homography).max() < 1e-6
        # emitted keypoints are this frame's refined tracks
        assert np.array_equal(est.keypoint_ids, fr.measurements.ids)
        assert np.allclose(est.keypoint_positions, fr.measurements.positions, atol=1e-6)
    assert ests[1].flags == ()


def test_pre_init_frames_are_flagged():
    frames = sim_frames(n_frames=6)
    crippled = []
    for t, fr in enumerate(frames):
        if t < 2:
            m = MeasurementFrame(t, fr.measurements.ids[:3], fr.measurements.positions[:3])
            crippled.append(SequenceFrame(frame_index=t, measurements=m, motion=fr.motion))
        else:
            crippled.append(SequenceFrame(frame_index=t, measurements=fr.measurements,
                                          motion=fr.motion))
    ests = run_filter(crippled, TEMPLATE, default_covariance_bank())
    for t in range(2):
        assert ests[t].homography is None
        assert "pre_init" in ests[t].flags
        assert ests[t].keypoint_ids.size == 0
    assert "init" in ests[2].flags
    assert ests[3].homography is not None


def test_init_failure_flag_then_recovery():
    # first frame offers only collinear template points: robust init cannot
    # fit, the filter flags it and initializes on the next frame
    frames = sim_frames(n_frames=4)
    collinear = np.array([0, 3, 11, 14, 15, 18])
    pos0 = apply_homography(frames[0].gt_homography, TEMPLATE.positions[collinear])
    doctored = [manual_frame(0, collinear, pos0)]
    for fr in frames[1:]:
        doctored.append(SequenceFrame(frame_index=fr.frame_index,
                                      measurements=fr.measurements, motion=fr.motion))
    ests = run_filter(doctored, TEMPLATE, default_covariance_bank())
    assert ests[0].homography is None
    assert "init_failed" in ests[0].flags and "pre_init" in ests[0].flags
    assert "init" in ests[1].flags


def test_no_initializable_frame_raises():
    ids = np.array([0, 1, 2])
    frames = [manual_frame(t, ids, np.full((3, 2), float(t))) for t in range(3)]
    with pytest.raises(NoInitializableFrame):
        run_filter(frames, TEMPLATE, default_covariance_bank())


def test_missing_motion_falls_back_to_identity():
    frames = sim_frames(n_frames=3)
    stripped = [SequenceFrame(frame_index=f.frame_index, measurements=f.measurements,
                              motion=None) for f in frames]
    ests = run_filter(stripped, TEMPLATE, default_covariance_bank(),
                      FilterOptions(motion_source="provided"))
    assert "identity_motion_fallback" in ests[1].flags
    ests = run_filter(stripped, TEMPLATE, default_covariance_bank(),
                      FilterOptions(motion_source="identity"))
    assert "identity_motion_fallback" not in ests[1].flags


def test_estimated_motion_from_flow():
    frames = sim_frames(n_frames=5)
    with_flow = [SequenceFrame(frame_index=frames[0].frame_index,
                               measurements=frames[0].measurements)]
    for prev, curr in zip(frames, frames[1:]):
        common = np.intersect1d(prev.gt_ids, curr.gt_ids)
        p = prev.gt_positions[np.searchsorted(prev.gt_ids, common)]
        c = curr.gt_positions[np.searchsorted(curr.gt_ids, common)]
        with_flow.append(SequenceFrame(frame_index=curr.frame_index,
                                       measurements=curr.measurements,
                                       flow=(p, c)))
    ests = run_filter(with_flow, TEMPLATE, default_covariance_bank(),
                      FilterOptions(motion_source="estimate"))
    for fr, est in zip(frames, ests):
        assert "identity_motion_fallback" not in est.flags
        assert np.abs(est.homography - fr.gt_homography).max() < 1e-5


def test_motion_estimation_is_seeded_from_the_ransac_seed(monkeypatch):
    seeds = []

    def spy(prev_pts, curr_pts, rng_seed=0):
        seeds.append(rng_seed)
        return AffineSimilarity.identity(), np.ones(len(prev_pts), dtype=bool)

    monkeypatch.setattr(fieldreg.pipeline, "estimate_global_motion", spy)
    frames = [dataclasses.replace(fr, flow=(fr.gt_positions, fr.gt_positions))
              for fr in sim_frames(n_frames=5)]
    run_filter(frames, TEMPLATE, default_covariance_bank(),
               FilterOptions(motion_source="estimate", ransac=RansacParams(seed=7)))
    # frame 0 initializes; every later frame seeds its motion fit with seed + frame
    assert seeds == [7 + fr.frame_index for fr in frames[1:]]


def test_empty_frame_mid_sequence():
    frames = sim_frames(n_frames=5)
    rebuilt = list(frames[:3])
    rebuilt.append(SequenceFrame(frame_index=3,
                                 measurements=MeasurementFrame(3, np.empty(0, dtype=int),
                                                               np.empty((0, 2))),
                                 motion=frames[3].motion))
    rebuilt.append(frames[4])
    ests = run_filter(rebuilt, TEMPLATE, default_covariance_bank())
    assert "no_active_keypoints" in ests[3].flags
    assert ests[3].homography is not None      # predict-only frame still reports
    assert ests[3].keypoint_ids.size == 0


def test_skipped_keypoint_update_emits_no_keypoints():
    # zero measurement and process blocks for template index 0: once it is
    # tracked, its innovation P + R is 0, so every later frame measuring it
    # skips the keypoint update, and that frame's estimate lists no keypoints
    bank = default_covariance_bank()
    zero = {int(TEMPLATE.ids[0]): np.zeros((2, 2))}
    bank = dataclasses.replace(bank, measurement={**bank.measurement, **zero},
                               keypoint_process={**bank.keypoint_process, **zero})
    H = view_homography()
    frames = [manual_frame(t, ids, apply_homography(H, TEMPLATE.positions[ids]),
                           motion=AffineSimilarity.identity())
              for t, ids in enumerate([np.arange(6), np.arange(6), np.r_[0, 6:12]])]
    # the EKF fuses nothing under measured_now; under measured_ever, the
    # zero block of index 0 skips its update
    for active_set, ekf_flag in (("measured_now", "no_active_keypoints"),
                                 ("measured_ever", "homography_update_skipped")):
        ests = run_filter(frames, TEMPLATE, bank, FilterOptions(ekf_active_set=active_set))
        assert np.array_equal(ests[0].keypoint_ids, np.arange(6))
        for est in ests[1:]:
            assert est.flags == ("keypoint_update_skipped", ekf_flag)
            assert est.keypoint_ids.size == 0 and est.keypoint_positions.shape == (0, 2)
            assert est.homography is not None


def test_baseline_noiseless_exact():
    frames = sim_frames(n_frames=8)
    ests = run_ransac_baseline(frames, TEMPLATE)
    for fr, est in zip(frames, ests):
        assert np.abs(est.homography - fr.gt_homography).max() < 1e-9
        assert np.array_equal(est.keypoint_ids, fr.measurements.ids)
        assert np.array_equal(est.keypoint_positions, fr.measurements.positions)
        assert est.flags == ()


def test_baseline_insufficient_measurements():
    ids = np.array([0, 1, 2])
    frames = [manual_frame(0, ids, np.zeros((3, 2)))]
    ests = run_ransac_baseline(frames, TEMPLATE)
    assert ests[0].homography is None
    assert "insufficient_measurements" in ests[0].flags


def test_evaluate_against_truth():
    frames = sim_frames(n_frames=10)
    preds = run_filter(frames, TEMPLATE, default_covariance_bank())
    report = run_evaluate(preds, frames, TEMPLATE, DIMS, projection_samples=200)
    assert report.counts["frames"] == 10
    assert report.counts["scored"] == 10
    agg = report.aggregates
    assert agg["iou_entire"]["mean"] == pytest.approx(1.0, abs=1e-9)
    assert agg["projection_error_m"]["mean"] == pytest.approx(0.0, abs=1e-6)
    assert agg["precision"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert agg["recall"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert agg["average_precision"]["mean"] == pytest.approx(1.0, abs=1e-12)
    assert len(report.frames) == 10
    doc = report.as_document()
    assert doc["kind"] == "metrics_report"
    assert len(doc["frames"]) == 10


def test_evaluate_counts_exclusions():
    frames = sim_frames(n_frames=4)
    empty = np.empty(0, dtype=int)
    behind = np.linalg.inv(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.02, 0.0, 1.0]]))
    preds = [
        FrameEstimate(0, None, empty, np.empty((0, 2)), ("pre_init",)),
        FrameEstimate(1, frames[1].gt_homography, frames[1].measurements.ids,
                      frames[1].measurements.positions, ()),
        FrameEstimate(2, behind / behind[2, 2], empty, np.empty((0, 2)), ()),
        FrameEstimate(3, frames[3].gt_homography, frames[3].measurements.ids,
                      frames[3].measurements.positions, ()),
    ]
    report = run_evaluate(preds, frames, TEMPLATE, DIMS, projection_samples=100)
    assert report.counts["pre_init"] == 1
    assert report.counts["degenerate_projection"] == 1
    assert report.counts["scored"] == 2
    flagged = {fm.frame_index: fm.flags for fm in report.frames}
    assert "degenerate_projection" in flagged[2]
    assert report.aggregates["iou_entire"]["mean"] == pytest.approx(1.0, abs=1e-9)


def test_evaluate_frame_mismatch():
    frames = sim_frames(n_frames=3)
    preds = run_filter(frames, TEMPLATE, default_covariance_bank())
    with pytest.raises(FrameMismatch):
        run_evaluate(preds[:-1], frames, TEMPLATE, DIMS)


def test_sequence_round_trip(tmp_path):
    frames = sim_frames(n_frames=6, noise=SimNoise(measurement=DEFAULT_MEASUREMENT),
                        dropout=0.1)
    path = tmp_path / "seq.jsonl"
    write_sequence(path, SequenceHeader("trip", DIMS), frames, TEMPLATE)
    header, back = read_sequence(path, TEMPLATE)
    assert header.sequence_id == "trip"
    assert header.dims == DIMS
    assert len(back) == 6
    for fr, rb in zip(frames, back):
        assert rb.frame_index == fr.frame_index
        assert np.array_equal(rb.measurements.ids, fr.measurements.ids)
        assert np.allclose(rb.measurements.positions, fr.measurements.positions, atol=0)
        assert np.allclose(rb.gt_homography, fr.gt_homography, atol=1e-12)
        assert np.array_equal(rb.gt_ids, fr.gt_ids)
        assert np.allclose(rb.gt_positions, fr.gt_positions, atol=0)
        if fr.motion is None:
            assert rb.motion is None
        else:
            assert np.allclose(rb.motion.params(), fr.motion.params(), atol=0)
    recs = training_records(back)
    assert len(recs) == 6
    assert recs[1].motion is not None


def test_raw_ids_round_trip(tmp_path):
    # template with non-contiguous raw ids: files carry raw ids, memory
    # carries canonical indices
    tpl = FieldTemplate(ids=np.array([100, 205, 311, 400]),
                        positions=np.array([[0.0, 0.0], [105.0, 0.0],
                                            [105.0, 68.0], [0.0, 68.0]]))
    frame = manual_frame(0, np.array([2, 0]), np.array([[7.0, 8.0], [1.0, 2.0]]))
    path = tmp_path / "raw.jsonl"
    write_sequence(path, SequenceHeader("raw", DIMS), [frame], tpl)
    text = path.read_text()
    assert "311" in text and "100" in text
    _, back = read_sequence(path, tpl)
    assert np.array_equal(back[0].measurements.ids, [2, 0])
    tpl_path = tmp_path / "tpl.json"
    write_template(tpl, tpl_path)
    tpl2 = read_template(tpl_path)
    assert np.array_equal(tpl2.ids, tpl.ids)
    assert np.array_equal(tpl2.positions, tpl.positions)
    assert tpl2.width_m == tpl.width_m


def test_sequence_format_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(FormatError):
        read_sequence(bad, TEMPLATE)
    # frame indices must strictly increase
    head = json.dumps({"kind": "sequence", "version": 1, "sequence_id": "x",
                       "width_px": 100, "height_px": 100})
    row = json.dumps({"frame": 0, "measurements": []})
    nondec = tmp_path / "nondec.jsonl"
    nondec.write_text(head + "\n" + row + "\n" + row + "\n")
    with pytest.raises(FormatError):
        read_sequence(nondec, TEMPLATE)
    # unknown raw keypoint id
    rowbad = json.dumps({"frame": 0, "measurements": [[999, 1.0, 2.0]]})
    unk = tmp_path / "unk.jsonl"
    unk.write_text(head + "\n" + rowbad + "\n")
    with pytest.raises(UnknownKeypointId):
        read_sequence(unk, TEMPLATE)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(FormatError):
        read_sequence(empty, TEMPLATE)
    with pytest.raises(FormatError):
        read_template(bad)


def _format_error(reader, path, line):
    with pytest.raises(FormatError) as info:
        reader(path, TEMPLATE)
    err = info.value
    assert (err.path, err.line) == (path, line)
    assert str(err).startswith(f"{path}: line {line}: ")
    return str(err)


def _estimates_lines(tmp_path):
    ests = run_filter(sim_frames(n_frames=3), TEMPLATE, default_covariance_bank())
    path = tmp_path / "est.jsonl"
    write_estimates(path, SequenceHeader("est", DIMS), ests, TEMPLATE)
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


@pytest.mark.parametrize("verb", ["filter", "baseline", "evaluate"])
def test_negative_frame_index_is_a_format_error(tmp_path, capsys, verb):
    # per-frame seeds are seed + frame: a negative frame is rejected where it
    # is read, by path and line, before it can seed a generator
    for name in ("golden_sequence.jsonl", "golden_estimates.jsonl"):
        rows = [json.loads(line) for line in (GOLDEN / name).read_text().splitlines()]
        for row in rows[1:]:
            row["frame"] -= 100
        _write_rows(tmp_path / name, rows)
    seq, est = tmp_path / "golden_sequence.jsonl", tmp_path / "golden_estimates.jsonl"
    # evaluate reads its estimates before its truth
    inputs, bad = ((["--input", str(est), "--truth", str(seq)], est) if verb == "evaluate"
                   else (["--input", str(seq)], seq))
    out = tmp_path / "out"
    assert cli_main([verb, "--output", str(out)] + inputs) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 2: frame must be at least 0, got -100\n"
    assert not out.exists()


def test_estimates_header_without_sequence_id_is_a_format_error(tmp_path):
    path, rows = _estimates_lines(tmp_path)
    del rows[0]["sequence_id"]
    _write_rows(path, rows)
    assert "sequence_id" in _format_error(read_estimates, path, 1)


def test_non_numeric_motion_is_a_format_error(tmp_path):
    path = tmp_path / "seq.jsonl"
    write_sequence(path, SequenceHeader("seq", DIMS), sim_frames(n_frames=3), TEMPLATE)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[2]["motion"] = [1.0, 0.0, "x", 0.0]
    _write_rows(path, rows)
    assert "motion" in _format_error(read_sequence, path, 3)


def test_misshapen_homography_is_a_format_error(tmp_path):
    path, rows = _estimates_lines(tmp_path)
    rows[3]["homography"] = [[1.0, 0.0], [0.0, 1.0]]
    _write_rows(path, rows)
    assert "homography" in _format_error(read_estimates, path, 4)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_estimate_homography_is_a_format_error(tmp_path, value):
    path, rows = _estimates_lines(tmp_path)
    rows[3]["homography"][1][0] = value
    _write_rows(path, rows)
    assert "homography" in _format_error(read_estimates, path, 4)


def test_estimate_homography_is_normalized_or_a_format_error(tmp_path):
    path, rows = _estimates_lines(tmp_path)
    H = np.array(rows[2]["homography"])
    rows[2]["homography"] = (4.0 * H).tolist()
    _write_rows(path, rows)
    _, ests = read_estimates(path, TEMPLATE)
    assert np.array_equal(ests[1].homography, H)
    rows[3]["homography"][2][2] = 0.0
    _write_rows(path, rows)
    assert "homography" in _format_error(read_estimates, path, 4)


@pytest.mark.parametrize("flags", [5, "init", [[1]], ["init", None]])
def test_estimate_flags_must_be_a_list_of_strings(tmp_path, flags):
    path, rows = _estimates_lines(tmp_path)
    rows[2]["flags"] = flags
    _write_rows(path, rows)
    assert "flags" in _format_error(read_estimates, path, 3)


@pytest.mark.parametrize("which, key", [("golden_estimates.jsonl", "homography"),
                                        ("golden_sequence.jsonl", "gt_homography")])
def test_cli_evaluate_flags_a_singular_homography_degenerate(tmp_path, which, key):
    # the golden run with one frame's estimate or ground truth made singular
    data = pathlib.Path(__file__).parent / "data"
    inputs = {name: data / name for name in ("golden_estimates.jsonl", "golden_sequence.jsonl")}
    rows = [json.loads(line) for line in (data / which).read_text().splitlines()]
    H = np.array(rows[3][key])
    H[:, 1] = 2.0 * H[:, 0]
    rows[3][key] = H.tolist()
    inputs[which] = tmp_path / which
    _write_rows(inputs[which], rows)
    rep = str(tmp_path / "report.json")
    assert cli_main(["evaluate", "--input", str(inputs["golden_estimates.jsonl"]),
                     "--truth", str(inputs["golden_sequence.jsonl"]), "--seed", "5",
                     "--projection-samples", "400", "--output", rep]) == 0
    doc = read_report(rep)
    golden = read_report(data / "golden_report.json")
    assert doc["counts"]["degenerate_projection"] == 1
    assert doc["counts"]["scored"] == golden["counts"]["scored"] - 1
    for got, want in zip(doc["frames"], golden["frames"]):
        if got["frame"] == rows[3]["frame"]:
            assert got == {**{k: None for k in want}, "frame": want["frame"],
                           "flags": ["degenerate_projection"]}
        else:
            assert got == want


def _sequence_rows(tmp_path):
    path = tmp_path / "seq.jsonl"
    write_sequence(path, SequenceHeader("seq", DIMS), sim_frames(n_frames=3), TEMPLATE)
    return path, [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("key", ["flow", "gt_homography"])
def test_wrongly_typed_flow_or_homography_is_a_format_error(tmp_path, key):
    path, rows = _sequence_rows(tmp_path)
    rows[2][key] = [[1, 2, 3, {"x": 1}]]
    _write_rows(path, rows)
    assert key in _format_error(read_sequence, path, 3)


@pytest.mark.parametrize("key, value", [
    ("flow", [[1.0, 2.0, 3.0, 4.0], [5.0, float("nan"), 7.0, 8.0]]),
    ("gt_homography", [[float("inf"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
])
def test_non_finite_flow_or_homography_is_a_format_error(tmp_path, key, value):
    path, rows = _sequence_rows(tmp_path)
    rows[1][key] = value
    _write_rows(path, rows)
    assert key in _format_error(read_sequence, path, 2)


def _rows_of(which, tmp_path):
    """(path, rows, reader) of a small written sequence or estimates file."""
    if which == "sequence":
        return (*_sequence_rows(tmp_path), read_sequence)
    return (*_estimates_lines(tmp_path), read_estimates)


@pytest.mark.parametrize("value", [float("inf"), 2.7, True, "2", None])
@pytest.mark.parametrize("which, line, at", [
    ("sequence", 1, ("width_px",)),
    ("sequence", 3, ("frame",)),
    ("sequence", 3, ("measurements", 0, 0)),
    ("sequence", 3, ("gt_keypoints", 1, 0)),
    ("estimates", 1, ("height_px",)),
    ("estimates", 3, ("frame",)),
    ("estimates", 3, ("keypoints", 0, 0)),
])
def test_integers_must_be_json_integers(tmp_path, which, line, at, value):
    path, rows, reader = _rows_of(which, tmp_path)
    target = rows[line - 1]
    for k in at[:-1]:
        target = target[k]
    target[at[-1]] = value
    _write_rows(path, rows)
    assert at[0] in _format_error(reader, path, line)


@pytest.mark.parametrize("which", ["sequence", "estimates"])
@pytest.mark.parametrize("key, value", [("kind", "metrics_report"), ("version", 2),
                                        ("version", True), ("version", 1.0)])
def test_wrong_header_kind_or_version_names_the_line(tmp_path, which, key, value):
    path, rows, reader = _rows_of(which, tmp_path)
    rows[0][key] = value
    _write_rows(path, rows)
    _format_error(reader, path, 1)


@pytest.mark.parametrize("value", [float("inf"), 2.7, True])
def test_template_ids_and_bank_counts_must_be_json_integers(tmp_path, value):
    tpl = tmp_path / "tpl.json"
    write_template(TEMPLATE, tpl)
    doc = json.loads(tpl.read_text())
    doc["keypoints"][0][0] = value
    tpl.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(str(tpl))}: keypoints"):
        read_template(tpl)
    bank = tmp_path / "bank.json"
    doc = json.loads((GOLDEN / "golden_bank.json").read_text())
    doc["measurement"]["counts"]["0"] = value
    bank.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(str(bank))}: measurement counts"):
        read_bank(bank)


@pytest.mark.parametrize("fault", ["duplicate", "nan", "inf"])
@pytest.mark.parametrize("which, key", [("sequence", "measurements"),
                                        ("sequence", "gt_keypoints"),
                                        ("estimates", "keypoints")])
def test_id_xy_lists_reject_duplicate_ids_and_non_finite_positions(tmp_path, which, key,
                                                                   fault):
    path, rows, reader = _rows_of(which, tmp_path)
    entries = rows[2][key]
    if fault == "duplicate":
        entries.append([entries[0][0], 1.0, 2.0])
    else:
        entries[1][2] = float(fault)
    _write_rows(path, rows)
    assert key in _format_error(reader, path, 3)


def test_estimates_round_trip(tmp_path):
    frames = sim_frames(n_frames=5)
    ests = run_filter(frames, TEMPLATE, default_covariance_bank())
    path = tmp_path / "est.jsonl"
    write_estimates(path, SequenceHeader("est", DIMS), ests, TEMPLATE)
    header, back = read_estimates(path, TEMPLATE)
    assert header.sequence_id == "est"
    for a, b in zip(ests, back):
        assert b.frame_index == a.frame_index
        assert np.allclose(b.homography, a.homography, atol=0)
        assert np.array_equal(b.keypoint_ids, a.keypoint_ids)
        assert np.allclose(b.keypoint_positions, a.keypoint_positions, atol=0)
        assert b.flags == a.flags


def test_bank_round_trip(tmp_path):
    frames = sim_frames(n_frames=25, noise=SimNoise(measurement=DEFAULT_MEASUREMENT))
    bank = run_calibrate([training_records(frames)], TEMPLATE)
    path = tmp_path / "bank.json"
    write_bank(bank, path)
    back = read_bank(path)
    assert np.array_equal(back.measurement_pooled, bank.measurement_pooled)
    assert set(back.measurement.keys()) == set(bank.measurement.keys())
    for k in bank.measurement:
        assert np.array_equal(back.measurement[k], bank.measurement[k])
    assert np.array_equal(back.homography_process, bank.homography_process)
    assert np.array_equal(back.init_homography, bank.init_homography)
    assert back.init_homography_samples == bank.init_homography_samples
    # the parameter-order tag is validated on read
    doc = json.loads(path.read_text())
    doc["homography_param_order"] = "something else"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        read_bank(path)


def test_report_round_trip(tmp_path):
    frames = sim_frames(n_frames=4)
    preds = run_filter(frames, TEMPLATE, default_covariance_bank())
    report = run_evaluate(preds, frames, TEMPLATE, DIMS, projection_samples=100)
    path = tmp_path / "report.json"
    write_report(report, path)
    doc = read_report(path)
    assert doc["kind"] == "metrics_report"
    assert doc["counts"]["scored"] == 4
    assert doc["aggregates"]["iou_entire"]["mean"] == pytest.approx(1.0, abs=1e-9)


def test_cli_end_to_end(tmp_path):
    seq = str(tmp_path / "seq.jsonl")
    bank = str(tmp_path / "bank.json")
    est = str(tmp_path / "est.jsonl")
    base = str(tmp_path / "base.jsonl")
    rep = str(tmp_path / "report.json")
    assert cli_main(["simulate", "--output", seq, "--frames", "25",
                     "--noise", "measurement", "--dropout", "0.1", "--seed", "5"]) == 0
    assert cli_main(["calibrate", "--input", seq, "--output", bank]) == 0
    assert cli_main(["filter", "--input", seq, "--bank", bank, "--output", est]) == 0
    assert cli_main(["baseline", "--input", seq, "--output", base]) == 0
    assert cli_main(["evaluate", "--input", est, "--truth", seq, "--output", rep,
                     "--projection-samples", "200"]) == 0
    doc = read_report(rep)
    assert doc["counts"]["frames"] == 25
    assert doc["aggregates"]["iou_entire"]["mean"] > 0.9
    header, ests = read_estimates(est, TEMPLATE)
    assert len(ests) == 25


def test_cli_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"frames": 7, "dropout": 0.0, "sequence_id": "cfg",
                               "motion": {"kind": "static"}}))
    seq = str(tmp_path / "seq.jsonl")
    assert cli_main(["simulate", "--config", str(cfg), "--output", seq]) == 0
    header, frames = read_sequence(seq, TEMPLATE)
    assert header.sequence_id == "cfg"
    assert len(frames) == 7
    assert np.allclose(frames[1].motion.params(), [1.0, 0.0, 0.0, 0.0], atol=0)
    # an explicit flag wins over the config value
    assert cli_main(["simulate", "--config", str(cfg), "--output", seq,
                     "--frames", "4"]) == 0
    _, frames = read_sequence(seq, TEMPLATE)
    assert len(frames) == 4


def test_cli_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    out = str(tmp_path / "out.jsonl")
    assert cli_main(["filter", "--input", missing, "--output", out]) == 1
    with pytest.raises(SystemExit) as exc:         # argparse rejects the choice
        cli_main(["simulate", "--output", str(tmp_path / "s.jsonl"),
                  "--noise", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:         # tracks start only from detections
        cli_main(["filter", "--init-from-homography", "--input", missing, "--output", out])
    assert exc.value.code == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("[]")
    assert cli_main(["simulate", "--output", out, "--config", str(bad_cfg)]) == 1
    # a noise config that is neither a preset nor an object, a misspelt key
    # and the removed field_process and keypoint_process keys are errors, not
    # zero noise
    for noise, named in ((5, "int"), ({"measurment": [[1, 0], [0, 1]]}, "'measurment'"),
                         ({"field_process": [[0.01, 0], [0, 0.01]]}, "'field_process'"),
                         ({"keypoint_process": [[0.01, 0], [0, 0.01]]}, "'keypoint_process'")):
        bad_cfg.write_text(json.dumps({"noise": noise, "frames": 3}))
        capsys.readouterr()
        assert cli_main(["simulate", "--output", out, "--config", str(bad_cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
    # a malformed config file is an error that names it, never a traceback
    seq = ["--input", str(GOLDEN / "golden_sequence.jsonl")]
    inputs = {"simulate": [], "calibrate": seq, "filter": seq, "baseline": seq,
              "evaluate": ["--input", str(GOLDEN / "golden_estimates.jsonl"),
                           "--truth", str(GOLDEN / "golden_sequence.jsonl")]}
    # a negative seed names the key, and the file when the config gives it
    for verb in inputs:
        capsys.readouterr()
        assert cli_main([verb, "--seed", "-1", "--output", out] + inputs[verb]) == 1, verb
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n", verb
    for verb, text, message in (
            ("simulate", '{"frames": 3,', "invalid JSON"),
            ("simulate", '{"motion": 5}', "motion must be an object"),
            ("simulate", '{"initial_homography": [[1, 0], [0, 1]]}',
             "initial_homography must have shape (3, 3)"),
            ("simulate", '{"motion": {"kind": "pan", "translation_amplitude": 3}}',
             "motion translation_amplitude must be an array of two numbers"),
            ("simulate", '{"frames": [1]}', "frames must be an integer"),
            ("simulate", '{"frames": Infinity}', "frames must be an integer"),
            ("simulate", '{"frames": 3, "noise": {"measurement": [[NaN, 0], [0, 1]]}}',
             "non-finite entries in measurement"),
            ("simulate", '{"view_corners": [[NaN, 100], [1000, 100], [1200, 700], [50, 700]], '
                         '"frames": 3}', "view_corners: non-finite point coordinates"),
            ("simulate", '{"initial_homography": [[1, 0, 0], [0, 1, 0], [0, 0, Infinity]], '
                         '"frames": 3}', "non-finite entries in initial_homography"),
            ("filter", '{"max_condition": null}', "max_condition must be a number"),
            ("filter", '{"init_from_homography": true}', "unknown key 'init_from_homography'"),
            ("evaluate", '{"projection_samples": 0}', "projection_samples must be at least 1"),
            *((verb, '{"seed": -1}', "seed must be at least 0, got -1") for verb in inputs)):
        bad_cfg.write_text(text)
        capsys.readouterr()
        argv = [verb, "--config", str(bad_cfg), "--output", out] + inputs[verb]
        assert cli_main(argv) == 1, text
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_cfg}: {message}"), (text, err)
    assert not pathlib.Path(out).exists()


@pytest.mark.parametrize("verb", ["simulate", "filter", "evaluate"])
def test_cli_rejects_config_keys_no_verb_reads(tmp_path, capsys, verb):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    inputs = {"simulate": [], "filter": ["--input", str(GOLDEN / "golden_sequence.jsonl")],
              "evaluate": ["--input", str(GOLDEN / "golden_estimates.jsonl"),
                           "--truth", str(GOLDEN / "golden_sequence.jsonl")]}[verb]
    cfg.write_text(json.dumps({"threshhold_px": 0.5, "frames": 3}))
    assert cli_main([verb, "--config", str(cfg), "--output", str(out)] + inputs) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown key 'threshhold_px'\n"
    assert not out.exists()
    # a key that another verb reads stays accepted, so one file serves several verbs
    cfg.write_text(json.dumps({"threshold_px": 0.5, "frames": 3, "projection_samples": 30}))
    assert cli_main([verb, "--config", str(cfg), "--output", str(out)] + inputs) == 0
    assert out.exists()


@pytest.mark.parametrize("make", [
    lambda: RansacParams(seed=-1),
    lambda: SimConfig(template=TEMPLATE, dims=DIMS, n_frames=1,
                      initial_homography=np.eye(3), motions=(), seed=-1),
    lambda: run_evaluate([], [], TEMPLATE, DIMS, rng_seed=-1),
], ids=["RansacParams", "SimConfig", "run_evaluate"])
def test_negative_seeds_are_rejected_by_name(make):
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        make()


@pytest.mark.parametrize("verb, config, flag, inputs", [
    ("filter", {"active_set": "measured_ever"}, ["--active-set", "measured_now"],
     ["--input", "golden_sequence.jsonl"]),
    ("baseline", {"threshold_px": 0.5}, ["--threshold-px", "3"],
     ["--input", "golden_sequence.jsonl"]),
    ("calibrate", {"min_samples": 1}, ["--min-samples", "10"],
     ["--input", "golden_sequence.jsonl"]),
    ("evaluate", {"pr_threshold_px": 1.0}, ["--pr-threshold-px", "20"],
     ["--input", "golden_estimates.jsonl", "--truth", "golden_sequence.jsonl",
      "--projection-samples", "30"]),
])
def test_cli_config_changes_each_verb_and_a_flag_wins(tmp_path, verb, config, flag, inputs):
    # each flag restates the library default, so config plus flag gives the default output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [verb] + [str(GOLDEN / a) if a.endswith(".jsonl") else a for a in inputs]

    def output(*extra):
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(argv + ["--output", str(out), *extra]) == 0
        return out.read_bytes()

    default = output()
    assert output("--config", str(cfg)) != default
    assert output("--config", str(cfg), *flag) == default


@pytest.mark.parametrize("key", ["width_m", "height_m"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_template_field_size_must_be_finite_and_positive(tmp_path, key, value):
    tpl = tmp_path / "tpl.json"
    write_template(TEMPLATE, tpl)
    doc = json.loads(tpl.read_text())
    doc[key] = value
    tpl.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(str(tpl))}: bad template document: "
                                          "field dimensions must be finite and positive"):
        read_template(tpl)


@pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.0])
def test_filter_options_reject_condition_caps_below_one(cap):
    # a cap that no condition number can meet would skip every update
    with pytest.raises(ValueError, match="max_condition"):
        FilterOptions(max_condition=cap)


def test_filter_options_accept_condition_caps_from_one_to_inf():
    for cap in (1.0, 1e12, float("inf")):
        assert FilterOptions(max_condition=cap).max_condition == cap


@pytest.mark.parametrize("field, value", [
    ("inlier_threshold_px", float("nan")), ("inlier_threshold_px", float("inf")),
    ("inlier_threshold_px", 0.0), ("inlier_threshold_px", -1.0),
    ("max_iters", 0), ("max_iters", -5),
    ("confidence", 0.0), ("confidence", 1.0), ("confidence", 1.5),
    ("confidence", float("nan")),
])
def test_ransac_params_reject_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        RansacParams(**{field: value})


@pytest.mark.parametrize("make, field, value", [
    *((lambda v: RansacParams(max_iters=v), "max_iters", v) for v in (2.5, True, 100.0)),
    *((lambda v: RansacParams(seed=v), "seed", v) for v in (2.5, False)),
    *((lambda v: SimConfig(template=TEMPLATE, dims=DIMS, n_frames=1, initial_homography=np.eye(3),
                           motions=(), seed=v), "seed", v) for v in (2.5, True)),
    (lambda v: SimConfig(template=TEMPLATE, dims=DIMS, n_frames=v, initial_homography=np.eye(3),
                         motions=()), "n_frames", True),
])
def test_integer_settings_reject_floats_and_bools_by_name(make, field, value):
    # a float or a bool used to pass the range check, and then a float failed
    # inside NumPy with an error that named no field
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
        make(value)


def test_integer_settings_take_numpy_integers():
    assert RansacParams(max_iters=np.int64(7), seed=np.uint8(3)).max_iters == 7


def test_ransac_params_accept_edge_values():
    p = RansacParams(inlier_threshold_px=1e-9, max_iters=1, confidence=1e-9)
    assert (p.inlier_threshold_px, p.max_iters, p.confidence) == (1e-9, 1, 1e-9)
    assert RansacParams(confidence=1.0 - 1e-12).confidence == 1.0 - 1e-12


GOLDEN = pathlib.Path(__file__).parent / "data"


def _cli_verb_args(verb, tmp_path):
    seq = str(GOLDEN / "golden_sequence.jsonl")
    if verb == "calibrate":
        return ["calibrate", "--input", seq, "--output", str(tmp_path / "out")]
    return [verb, "--input", seq, "--output", str(tmp_path / "out")]


@pytest.mark.parametrize("verb", ["baseline", "filter", "calibrate"])
@pytest.mark.parametrize("flag, value, field", [
    ("--threshold-px", "nan", "inlier_threshold_px"),
    ("--threshold-px", "-1", "inlier_threshold_px"),
    ("--max-iters", "0", "max_iters"),
    ("--max-iters", "-5", "max_iters"),
])
def test_cli_rejects_bad_ransac_settings(tmp_path, capsys, verb, flag, value, field):
    assert cli_main(_cli_verb_args(verb, tmp_path) + [flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1.0", "1.5", "nan", "0"])
def test_cli_baseline_rejects_bad_confidence(tmp_path, capsys, value):
    assert cli_main(_cli_verb_args("baseline", tmp_path) + ["--confidence", value]) == 1
    assert capsys.readouterr().err.startswith("error: confidence must be")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap", ["nan", "0", "-1"])
def test_cli_filter_rejects_bad_max_condition(tmp_path, capsys, cap):
    out = tmp_path / "est.jsonl"
    assert cli_main(["filter", "--input", str(GOLDEN / "golden_sequence.jsonl"),
                     "--max-condition", cap, "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: max_condition")
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_evaluate_rejects_nonpositive_projection_samples(tmp_path, capsys, n):
    out = tmp_path / "report.json"
    assert cli_main(["evaluate", "--input", str(GOLDEN / "golden_estimates.jsonl"),
                     "--truth", str(GOLDEN / "golden_sequence.jsonl"),
                     "--projection-samples", n, "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: projection_samples")
    assert not out.exists()


@pytest.mark.parametrize("at", [("measurement", "pooled"), ("measurement", "per_id", "0"),
                                ("homography_process",), ("init_homography",)])
def test_bank_matrices_must_be_finite(tmp_path, capsys, at):
    doc = json.loads((GOLDEN / "golden_bank.json").read_text())
    matrix = doc
    for key in at:
        matrix = matrix[key]
    matrix[1][1] = float("nan")
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    key = " ".join(at)
    with pytest.raises(FormatError, match=f"^{re.escape(str(bank))}: non-finite {key} value"):
        read_bank(bank)
    out = tmp_path / "est.jsonl"
    assert cli_main(["filter", "--input", str(GOLDEN / "golden_sequence.jsonl"),
                     "--bank", str(bank), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bank}: non-finite {key} value")
    assert not out.exists()


@pytest.mark.parametrize("at, value, message", [
    # every keypoint has its own block in the golden bank, so the pooled
    # keypoint_process is unused, and it is checked all the same
    (("keypoint_process", "pooled", 0, 1), 1.0, "keypoint_process pooled must be symmetric"),
    (("homography_process", 0, 1), 1.0, "homography_process must be symmetric"),
    (("init_homography", 2, 2), -1.0, "init_homography must have nonnegative diagonals"),
    (("measurement", "per_id", "0", 1, 1), -1.0,
     "measurement per_id 0 must have nonnegative diagonals"),
    # a bad block is named by its id, wherever it sits among the valid ones
    (("keypoint_process", "per_id", "5", 0, 1), 1.0, "keypoint_process per_id 5 must be symmetric"),
])
def test_bank_covariances_are_checked_on_read(tmp_path, capsys, at, value, message):
    doc = json.loads((GOLDEN / "golden_bank.json").read_text())
    row = doc
    for key in at[:-1]:
        row = row[key]
    row[at[-1]] = value
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(doc))
    out = tmp_path / "est.jsonl"
    assert cli_main(["filter", "--input", str(GOLDEN / "golden_sequence.jsonl"),
                     "--bank", str(bank), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bank}: bad covariance bank: {message}\n"
    assert not out.exists()


def test_non_utf8_input_names_the_path(tmp_path, capsys):
    # one Latin-1 e-acute in the sequence header, and in a bank document
    seq = tmp_path / "seq.jsonl"
    seq.write_bytes((GOLDEN / "golden_sequence.jsonl").read_bytes()
                    .replace(b'"sequence_id": "golden"', b'"sequence_id": "gold\xe9n"', 1))
    bank = tmp_path / "bank.json"
    bank.write_bytes((GOLDEN / "golden_bank.json").read_bytes()
                     .replace(b'"column-stacked', b'"column-stack\xe9d', 1))
    out = tmp_path / "est.jsonl"
    assert cli_main(["filter", "--input", str(seq), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {seq}: line 1: not valid UTF-8")
    assert cli_main(["filter", "--input", str(GOLDEN / "golden_sequence.jsonl"),
                     "--bank", str(bank), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bank}: not valid UTF-8")
    assert not out.exists()


@pytest.mark.parametrize("key", ["width_px", "height_px"])
def test_image_dimension_too_large_for_a_float_is_rejected(tmp_path, capsys, key):
    lines = (GOLDEN / "golden_sequence.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = int("9" * 401)
    seq = tmp_path / "seq.jsonl"
    seq.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    out = tmp_path / "est.jsonl"
    assert cli_main(["filter", "--input", str(seq), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {seq}: line 1: {key} is too large")
    assert not out.exists()


def test_cli_module_entry(tmp_path):
    # the subprocess imports the same fieldreg as this process, installed or not
    seq = str(tmp_path / "seq.jsonl")
    src = str(pathlib.Path(fieldreg.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-m", "fieldreg", "simulate",
                           "--output", seq, "--frames", "3"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 3 frames" in proc.stdout
