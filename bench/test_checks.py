"""The benchmark's checks reject wrong outputs and accept right ones.

Each test feeds one check a real fieldreg output (which must pass) and a
deliberately wrong one (which must fail).  Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import dataclasses
import json
import sys
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

import fieldreg  # noqa: E402
from fieldreg import pipeline  # noqa: E402
from fieldreg.keypoint_filter import MeasurementFrame  # noqa: E402
from fieldreg.seqio import SequenceFrame  # noqa: E402


def shifted_on_ground(H, dx_m=1.0):
    """H composed with a 1 m translation of the field plane."""
    return H @ np.array([[1.0, 0.0, dx_m], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def truth(fr):
    """A scene frame with its ground truth, as a sequence file carries it."""
    return SequenceFrame(fr.index, MeasurementFrame(fr.index, fr.meas_idx, fr.meas_pos),
                         motion=workloads._motion(fr), gt_homography=fr.H, gt_ids=fr.gt_idx,
                         gt_positions=fr.gt_pos)


def small_spec(spec, n):
    return dataclasses.replace(spec, n_frames=n)


class GroundTruthCheck(unittest.TestCase):
    def setUp(self):
        self.template = inputs.grid_template()
        self.frames = inputs.generate_scene(small_spec(workloads.STREAM_SPEC, 5),
                                            self.template, [7, 0])
        self.dlt = float(np.median(checks.dlt_ground_errors(self.frames, self.template.positions)))

    def test_shift_of_one_meter_reads_one_meter(self):
        H = self.frames[0].H
        self.assertAlmostEqual(checks.ground_error(H, shifted_on_ground(H)), 1.0, places=9)
        self.assertEqual(checks.ground_error(H, H), 0.0)

    def test_rejects_estimates_shifted_by_one_meter(self):
        good = np.mean([checks.ground_error(f.H, f.H) for f in self.frames])
        checks.check_beats_dlt(good, self.dlt, "truth")
        bad = np.mean([checks.ground_error(f.H, shifted_on_ground(f.H)) for f in self.frames])
        with self.assertRaises(CheckFailed):
            checks.check_beats_dlt(bad, self.dlt, "shifted")


class EstimatesCheck(unittest.TestCase):
    H = np.diag([10.0, 10.0, 1.0])

    def test_accepts_pre_init_then_estimates(self):
        checks.check_estimates([0, 1, 2], [0, 1, 2], [None, self.H, self.H])

    def test_rejects_missing_frame(self):
        with self.assertRaises(CheckFailed):
            checks.check_estimates([0, 1, 2], [0, 2], [self.H, self.H])

    def test_rejects_non_finite_estimate(self):
        bad = self.H.copy()
        bad[0, 2] = np.nan
        with self.assertRaises(CheckFailed):
            checks.check_estimates([0, 1], [0, 1], [self.H, bad])

    def test_rejects_lost_estimate_after_init(self):
        with self.assertRaises(CheckFailed):
            checks.check_estimates([0, 1, 2], [0, 1, 2], [self.H, None, self.H])


class FromFieldreg(unittest.TestCase):
    """Checks fed with what fieldreg computes on a short offline scene."""

    @classmethod
    def setUpClass(cls):
        cls.template = inputs.standard_template()
        cls.ft = workloads._fr_template(cls.template)
        cls.spec = small_spec(workloads.OFFLINE_SPEC, 40)
        cls.frames = inputs.generate_scene(cls.spec, cls.template, [3, 1])
        truth_frames = [truth(f) for f in cls.frames]
        cls.estimates = pipeline.run_filter([workloads._handover(f, True) for f in cls.frames],
                                            cls.ft, fieldreg.default_covariance_bank())
        cls.report = pipeline.run_evaluate(cls.estimates, truth_frames, cls.ft,
                                           workloads.DIMS).as_document()
        cls.truth_H = {f.index: f.H for f in cls.frames}
        cls.pred_H = {e.frame_index: e.homography for e in cls.estimates}
        records = [fieldreg.TrainingRecord(f.index, f.H, f.gt_idx, f.gt_pos, f.meas_idx,
                                           f.meas_pos, workloads._motion(f))
                   for f in cls.frames]
        cls.bank = pipeline.run_calibrate([records], cls.ft)
        cls.baseline = pipeline.run_ransac_baseline(truth_frames, cls.ft)

    # -- evaluate

    def test_report_passes(self):
        checks.check_report(self.report, self.truth_H, self.pred_H, self.template.positions)

    def test_rejects_iou_altered_in_third_digit(self):
        for name in ("iou_entire", "iou_entire_image", "iou_part"):
            doc = _copy(self.report)
            row = next(r for r in doc["frames"] if r[name] is not None)
            row[name] = round(row[name] - 0.001, 12)
            with self.subTest(name), self.assertRaises(CheckFailed):
                checks.check_report(doc, self.truth_H, self.pred_H, self.template.positions)

    def test_rejects_reprojection_error_off_by_a_part_in_a_million(self):
        doc = _copy(self.report)
        row = next(r for r in doc["frames"] if r["reprojection_error"] is not None)
        row["reprojection_error"] *= 1.000001
        with self.assertRaises(CheckFailed):
            checks.check_report(doc, self.truth_H, self.pred_H, self.template.positions)

    def test_rejects_report_of_predictions_shifted_by_one_meter(self):
        shifted = {k: None if H is None else shifted_on_ground(H) for k, H in self.pred_H.items()}
        with self.assertRaises(CheckFailed):
            checks.check_report(self.report, self.truth_H, shifted, self.template.positions)

    def test_projection_error_matches_quadrature_not_a_quarter_off(self):
        row = next(r for r in self.report["frames"] if r["projection_error_m"] is not None)
        h_gt, h_pred = self.truth_H[row["frame"]], self.pred_H[row["frame"]]
        checks.check_report_frame(row, h_gt, h_pred, self.template.positions)
        # the Monte Carlo tolerance is 5 standard errors of 2500 samples
        bad = dict(row, projection_error_m=row["projection_error_m"] * 1.25)
        with self.assertRaises(CheckFailed):
            checks.check_report_frame(bad, h_gt, h_pred, self.template.positions)

    # -- calibrate

    def test_bank_passes(self):
        checks.check_measurement_cov(self.bank.measurement_pooled,
                                     sum(self.bank.measurement_counts.values()),
                                     self.spec.measurement)

    def test_rejects_bank_scaled_by_two(self):
        with self.assertRaises(CheckFailed):
            checks.check_measurement_cov(2.0 * self.bank.measurement_pooled,
                                         sum(self.bank.measurement_counts.values()),
                                         self.spec.measurement)

    # -- baseline

    def test_baseline_passes_and_shift_of_one_meter_fails(self):
        hs = [e.homography for e in self.baseline]
        self.assertTrue(any(H is not None for H in hs))
        checks.check_baseline(self.frames, hs, self.template.positions)
        shifted = [None if H is None else shifted_on_ground(H) for H in hs]
        with self.assertRaises(CheckFailed):
            checks.check_baseline(self.frames, shifted, self.template.positions)

    # -- simulate

    def test_simulated_keypoints_must_be_the_homography_images(self):
        cfg = fieldreg.SimConfig(
            template=self.ft, dims=workloads.DIMS, n_frames=5,
            initial_homography=self.frames[0].H,
            motions=[workloads._motion(f) for f in self.frames[1:5]],
            noise=fieldreg.SimNoise(measurement=np.array(self.spec.measurement)),
            dropout=0.3, seed=1)
        for s in fieldreg.generate_sequence(cfg):
            checks.check_simulated_frame(s.gt_homography, s.gt_ids, s.gt_positions,
                                         self.template.positions, s.frame_index)
            moved = s.gt_positions + [0.0, 1e-3]
            with self.assertRaises(CheckFailed):
                checks.check_simulated_frame(s.gt_homography, s.gt_ids, moved,
                                             self.template.positions, s.frame_index)


class TraceReportsMissing(unittest.TestCase):
    def test_renamed_function_reads_null_not_zero(self):
        original = pipeline.lkf_predict
        del pipeline.lkf_predict
        try:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            pipeline.lkf_predict = original
        m = tracer.layer_metrics(wall_ns=1, frames=1, rounds=1)
        self.assertIn("keypoint_filter.lkf_predict", tracer.missing)
        self.assertIsNone(m["keypoint_filter.lkf_predict_ms"]["value"])
        self.assertEqual(m["keypoint_filter.lkf_update_ms"]["value"], 0.0)

    def test_wrappers_are_removed_after_the_run(self):
        before = pipeline.ekf_update
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(pipeline.ekf_update, before)
        tracer.uninstall()
        self.assertIs(pipeline.ekf_update, before)


def _copy(doc):
    return json.loads(json.dumps(doc))


if __name__ == "__main__":
    unittest.main()
