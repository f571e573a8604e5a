"""Orchestration: the filter run, the per-frame robust baseline, calibration
and evaluation.  These are the verbs the CLI exposes; each one is usable as a
plain function on in-memory objects."""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .calibration import MIN_SAMPLES_PER_KEYPOINT, calibrate_bank
from .errors import (
    DegenerateConfiguration,
    DegenerateProjection,
    FrameMismatch,
    InsufficientPoints,
    NoConsensus,
    NoInitializableFrame,
    NoMatchedKeypoints,
    NumericalDegeneracy,
    SingularInnovation,
    UnknownKeypointId,
)
from .geometry import EPS_DET, RansacParams, apply_homography, ransac_homography
from .homography_filter import (
    ekf_init,
    ekf_predict,
    ekf_update,
    reconstruct_homography,
)
from .keypoint_filter import (
    init_keypoint_state,
    init_keypoint_state_from_positions,
    lkf_predict,
    lkf_update,
)
from .metrics import (
    AP_THRESHOLDS_PX,
    average_precision,
    iou_entire,
    iou_entire_image,
    iou_part,
    nrmse,
    precision_recall,
    projection_error,
    reprojection_error,
)
from .motion import AffineSimilarity, estimate_global_motion

MOTION_SOURCES = ("provided", "estimate", "identity")


@dataclass(frozen=True)
class FilterOptions:
    """Run-time knobs for the two-stage filter."""

    motion_source: str = "provided"
    ransac: RansacParams = dc_field(default_factory=RansacParams)
    ekf_active_set: str = "measured_now"      # or "measured_ever"
    init_all_from_homography: bool = False
    max_condition: float = 1e12
    motion_threshold_px: float = 1.5
    motion_max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.motion_source not in MOTION_SOURCES:
            raise ValueError(f"motion_source must be one of {MOTION_SOURCES}")
        if self.ekf_active_set not in ("measured_now", "measured_ever"):
            raise ValueError("ekf_active_set must be 'measured_now' or 'measured_ever'")


@dataclass(frozen=True)
class FrameEstimate:
    """Per-frame pipeline output: homography (or None), refined keypoints, flags."""

    frame_index: int
    homography: np.ndarray
    keypoint_ids: np.ndarray
    keypoint_positions: np.ndarray
    flags: tuple


def _resolve_motion(frame, options):
    src = options.motion_source
    if src == "identity":
        return AffineSimilarity.identity(), []
    if src == "provided":
        if frame.motion is not None:
            return frame.motion, []
        return AffineSimilarity.identity(), ["identity_motion_fallback"]
    # estimate: robust fit over the frame's flow correspondences
    flow = getattr(frame, "flow", None)
    if flow is None or flow[0].shape[0] < 2:
        return AffineSimilarity.identity(), ["identity_motion_fallback"]
    try:
        model, _ = estimate_global_motion(
            flow[0], flow[1],
            inlier_threshold_px=options.motion_threshold_px,
            max_iters=options.motion_max_iters,
            rng_seed=options.seed + frame.frame_index)
    except (InsufficientPoints, NoConsensus):
        return AffineSimilarity.identity(), ["identity_motion_fallback"]
    return model, []


def _emit(frame_index, h_state, kp_state, flags):
    H = reconstruct_homography(h_state)
    if not np.all(np.isfinite(H)) or abs(np.linalg.det(H)) <= EPS_DET:
        H = None
        flags = flags + ["degenerate_estimate"]
    ids = np.flatnonzero(kp_state.measured_now)
    return FrameEstimate(
        frame_index=frame_index,
        homography=H,
        keypoint_ids=ids,
        keypoint_positions=kp_state.keypoint_means()[ids].copy(),
        flags=tuple(flags),
    )


def iter_filter(frames, template, bank, options=FilterOptions()):
    """Run the two-stage filter over a frame iterable, yielding FrameEstimate.

    Initialization happens at the first frame with >= 4 measurements whose
    robust fit succeeds; earlier frames (and failed-init frames) yield
    pre_init estimates with no homography.  Per steady-state frame: resolve
    motion, keypoint predict + update, homography predict + update over the
    active set, emit.  Update failures are flagged and skipped, never fatal.
    State memory is flat in sequence length.  The keypoint stage is linear
    in keypoint count; the homography stage stores a (2N + 8)-square
    covariance, but with a static field its update is 8x8 algebra in
    information form, gated by a certified bound on the innovation's
    condition number (the exact eigenvalue test runs only when the bound
    cannot decide).

    Raises NoInitializableFrame (after the sequence ends) if nothing
    initialized, and UnknownKeypointId on out-of-template indices.
    """
    kp_noise = bank.noise_for(template)
    h_noise = bank.homography_noise()
    kp_state = None
    h_state = None

    for frame in frames:
        flags = []
        meas = frame.measurements
        if h_state is None:
            if meas.k >= 4:
                try:
                    h_state = ekf_init(meas, template, h_noise, ransac=options.ransac)
                except (InsufficientPoints, DegenerateConfiguration):
                    flags.append("init_failed")
            if h_state is None:
                yield FrameEstimate(frame.frame_index, None, np.empty(0, dtype=int),
                                    np.empty((0, 2)), tuple(flags + ["pre_init"]))
                continue
            if options.init_all_from_homography:
                projected = apply_homography(reconstruct_homography(h_state),
                                             template.positions)
                kp_state = init_keypoint_state_from_positions(projected, kp_noise)
            else:
                kp_state = init_keypoint_state(template.n)
            kp_state = lkf_update(kp_state, meas, kp_noise)
            yield _emit(frame.frame_index, h_state, kp_state, flags + ["init"])
            continue

        motion, mflags = _resolve_motion(frame, options)
        flags += mflags
        kp_state = lkf_predict(kp_state, motion, kp_noise)
        try:
            kp_state = lkf_update(kp_state, meas, kp_noise)
        except SingularInnovation:
            flags.append("keypoint_update_skipped")
        h_state = ekf_predict(h_state, motion, h_noise)
        if options.ekf_active_set == "measured_now":
            active = np.flatnonzero(kp_state.measured_now)
        else:
            active = np.flatnonzero(kp_state.measured_ever)
        if active.size:
            try:
                h_state = ekf_update(h_state, kp_state, active,
                                     max_condition=options.max_condition)
            except (SingularInnovation, NumericalDegeneracy):
                flags.append("homography_update_skipped")
        else:
            flags.append("no_active_keypoints")
        yield _emit(frame.frame_index, h_state, kp_state, flags)

    if h_state is None:
        raise NoInitializableFrame("sequence ended with no frame fit to initialize on")


def run_filter(frames, template, bank, options=FilterOptions()):
    """List-returning convenience over iter_filter."""
    return list(iter_filter(frames, template, bank, options))


def run_ransac_baseline(frames, template, ransac=RansacParams()):
    """Per-frame robust homography fits, no temporal model.

    Frames with fewer than 4 measurements or no consensus yield no
    homography (flagged).  Emitted keypoints are the raw measurements.  The
    per-frame RANSAC seed is ransac.seed + frame_index.
    """
    out = []
    for frame in frames:
        meas = frame.measurements
        if meas.ids.size and meas.ids.max() >= template.n:
            raise UnknownKeypointId(
                f"keypoint index {meas.ids.max()} out of range for {template.n} keypoints")
        H = None
        flags = []
        if meas.k < 4:
            flags.append("insufficient_measurements")
        else:
            try:
                H, _ = ransac_homography(
                    template.positions[meas.ids], meas.positions,
                    inlier_threshold_px=ransac.inlier_threshold_px,
                    max_iters=ransac.max_iters,
                    rng_seed=ransac.seed + frame.frame_index,
                    confidence=ransac.confidence)
            except (NoConsensus, DegenerateConfiguration):
                flags.append("no_consensus")
        out.append(FrameEstimate(
            frame_index=frame.frame_index,
            homography=H,
            keypoint_ids=meas.ids.copy(),
            keypoint_positions=meas.positions.copy(),
            flags=tuple(flags)))
    return out


def run_calibrate(record_sequences, template, ransac=RansacParams(),
                  min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Covariance bank from ground-truth-annotated training sequences."""
    return calibrate_bank(record_sequences, template, ransac=ransac, min_samples=min_samples)


HOMOGRAPHY_METRICS = ("iou_entire", "iou_entire_image", "iou_part",
                      "projection_error_m", "reprojection_error")
KEYPOINT_METRICS = ("nrmse_x", "nrmse_y", "precision", "recall", "average_precision")


@dataclass(frozen=True)
class FrameMetrics:
    frame_index: int
    values: dict
    flags: tuple


@dataclass(frozen=True)
class MetricsReport:
    frames: tuple
    aggregates: dict   # metric -> {"mean": float|None, "median": float|None}
    counts: dict

    def as_document(self):
        frame_rows = []
        for fm in self.frames:
            row = {"frame": fm.frame_index}
            for name in HOMOGRAPHY_METRICS + KEYPOINT_METRICS:
                row[name] = fm.values.get(name)
            row["flags"] = list(fm.flags)
            frame_rows.append(row)
        return {
            "kind": "metrics_report",
            "version": 1,
            "aggregates": self.aggregates,
            "counts": self.counts,
            "frames": frame_rows,
        }


def run_evaluate(predictions, truth_frames, template, dims, rng_seed=0,
                 ap_thresholds=AP_THRESHOLDS_PX, pr_threshold_px=20.0,
                 projection_samples=2500):
    """Score predictions against ground truth, frame-aligned by index.

    Frames without a prediction (pre-init) or without ground truth are
    counted and excluded from aggregates; frames whose quads leave the valid
    projective region are flagged degenerate and likewise excluded.
    Aggregates carry mean and median per metric over the scored frames; the
    average_precision mean is the mAP.  Raises FrameMismatch when the two
    frame sets differ.
    """
    preds = {p.frame_index: p for p in predictions}
    truths = {t.frame_index: t for t in truth_frames}
    if set(preds) != set(truths):
        only_p = sorted(set(preds) - set(truths))[:3]
        only_t = sorted(set(truths) - set(preds))[:3]
        raise FrameMismatch(
            f"prediction and truth frame sets differ (pred-only {only_p}, truth-only {only_t})")

    frames = []
    counts = {
        "frames": len(preds), "scored": 0, "pre_init": 0, "no_ground_truth": 0,
        "degenerate_projection": 0, "undefined_precision": 0, "undefined_recall": 0,
    }
    per_metric = {name: [] for name in HOMOGRAPHY_METRICS + KEYPOINT_METRICS}

    for idx in sorted(preds):
        pred = preds[idx]
        truth = truths[idx]
        flags = list(pred.flags)
        values = {}

        if truth.gt_homography is None:
            counts["no_ground_truth"] += 1
            flags.append("no_ground_truth")
            frames.append(FrameMetrics(idx, values, tuple(flags)))
            continue
        if pred.homography is None:
            counts["pre_init"] += 1
            frames.append(FrameMetrics(idx, values, tuple(flags)))
            continue

        try:
            h_gt = truth.gt_homography
            h_pred = pred.homography
            values["iou_entire"] = iou_entire(h_gt, h_pred, template, dims)
            values["iou_entire_image"] = iou_entire_image(h_gt, h_pred, dims)
            values["iou_part"] = iou_part(h_gt, h_pred, dims)
            values["projection_error_m"] = projection_error(
                h_gt, h_pred, template, dims, n_samples=projection_samples,
                rng_seed=rng_seed + idx)
            values["reprojection_error"] = reprojection_error(h_gt, h_pred, template, dims)
        except DegenerateProjection:
            counts["degenerate_projection"] += 1
            flags.append("degenerate_projection")
            frames.append(FrameMetrics(idx, {}, tuple(flags)))
            continue

        counts["scored"] += 1
        for name in HOMOGRAPHY_METRICS:
            per_metric[name].append(values[name])

        if truth.gt_ids is not None and truth.gt_ids.size:
            raw_det = template.ids[pred.keypoint_ids]
            raw_gt = template.ids[truth.gt_ids]
            try:
                values["nrmse_x"] = nrmse(raw_det, pred.keypoint_positions,
                                          raw_gt, truth.gt_positions, dims, axis="x")
                values["nrmse_y"] = nrmse(raw_det, pred.keypoint_positions,
                                          raw_gt, truth.gt_positions, dims, axis="y")
                per_metric["nrmse_x"].append(values["nrmse_x"])
                per_metric["nrmse_y"].append(values["nrmse_y"])
            except NoMatchedKeypoints:
                flags.append("no_matched_keypoints")
            pr = precision_recall(raw_det, pred.keypoint_positions,
                                  raw_gt, truth.gt_positions, dims,
                                  threshold_px=pr_threshold_px)
            values["precision"] = pr.precision
            values["recall"] = pr.recall
            if not pr.precision_defined:
                counts["undefined_precision"] += 1
                flags.append("undefined_precision")
            if not pr.recall_defined:
                counts["undefined_recall"] += 1
                flags.append("undefined_recall")
            per_metric["precision"].append(pr.precision)
            per_metric["recall"].append(pr.recall)
            values["average_precision"] = average_precision(
                raw_det, pred.keypoint_positions, raw_gt, truth.gt_positions,
                dims, thresholds=ap_thresholds)
            per_metric["average_precision"].append(values["average_precision"])

        frames.append(FrameMetrics(idx, values, tuple(flags)))

    aggregates = {}
    for name in HOMOGRAPHY_METRICS + KEYPOINT_METRICS:
        vals = per_metric[name]
        aggregates[name] = {
            "mean": float(np.mean(vals)) if vals else None,
            "median": float(np.median(vals)) if vals else None,
        }
    return MetricsReport(frames=tuple(frames), aggregates=aggregates, counts=counts)
