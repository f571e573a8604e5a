"""Orchestration: the filter run, the per-frame robust baseline, calibration
and evaluation.  These are the verbs the CLI exposes; each one is usable as a
plain function on in-memory objects."""

import math
from dataclasses import dataclass, field as dc_field, replace

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
    SingularMatrix,
    UnknownKeypointId,
)
from .geometry import EPS_DET, RansacParams, check_int, check_positive, ransac_homography
from .homography_filter import (
    MAX_INNOVATION_CONDITION,
    ekf_init,
    ekf_predict,
    ekf_update,
)
from .keypoint_filter import (
    init_keypoint_state,
    lkf_predict,
    lkf_update,
)
from .metrics import (
    PR_THRESHOLD_PX,
    PROJECTION_ERROR_SAMPLES,
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

# the first of each is the default
MOTION_SOURCES = ("provided", "estimate", "identity")
# keypoints driving the homography update, named by the KeypointFilterState mask
ACTIVE_SETS = ("measured_now", "measured_ever")


@dataclass(frozen=True)
class FilterOptions:
    """Run-time knobs for the two-stage filter."""

    motion_source: str = MOTION_SOURCES[0]
    ransac: RansacParams = dc_field(default_factory=RansacParams)
    ekf_active_set: str = ACTIVE_SETS[0]
    max_condition: float = MAX_INNOVATION_CONDITION

    def __post_init__(self):
        if self.motion_source not in MOTION_SOURCES:
            raise ValueError(f"motion_source must be one of {MOTION_SOURCES}")
        if self.ekf_active_set not in ACTIVE_SETS:
            raise ValueError(f"ekf_active_set must be one of {ACTIVE_SETS}")
        # a condition number is never below 1: a smaller cap, or NaN, would
        # skip every homography update
        if not self.max_condition >= 1.0:
            raise ValueError(f"max_condition must be at least 1, got {self.max_condition}")


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
    flow = frame.flow
    if flow is None or flow[0].shape[0] < 2:
        return AffineSimilarity.identity(), ["identity_motion_fallback"]
    try:
        model, _ = estimate_global_motion(flow[0], flow[1],
                                          rng_seed=options.ransac.seed + frame.frame_index)
    except (InsufficientPoints, NoConsensus):
        return AffineSimilarity.identity(), ["identity_motion_fallback"]
    return model, []


def _emit(frame_index, h_state, kp_state, flags):
    # H's entries from the column-stacked parameters, with h33 = 1
    a, d, g, b, e, h, c, f = h_state.h_mean.tolist()
    i = 1.0
    # closed-form determinant; a non-finite entry makes it non-finite
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if math.isfinite(det) and abs(det) > EPS_DET:
        H = np.array([[a, b, c], [d, e, f], [g, h, i]])
    else:
        H = None
        flags = flags + ["degenerate_estimate"]
    ids = kp_state.measured_now.nonzero()[0]
    return FrameEstimate(
        frame_index=frame_index,
        homography=H,
        keypoint_ids=ids,
        keypoint_positions=kp_state.keypoint_means()[ids],
        flags=tuple(flags),
    )


def iter_filter(frames, template, bank, options=FilterOptions()):
    """Run the two-stage filter over a frame iterable, yielding FrameEstimate.

    Initialization happens at the first frame with >= 4 measurements whose
    robust fit succeeds; earlier frames (and failed-init frames) yield
    pre_init estimates with no homography.  Per steady-state frame: resolve
    motion, keypoint predict + update, homography predict + update over the
    active set, emit.  Update failures are flagged and skipped, never fatal;
    a skipped keypoint update leaves no keypoint measured this frame.
    State memory is flat in sequence length.  The keypoint stage is linear
    in keypoint count.  The bank, checked when it was built, is the only
    noise: its blocks in template order for the keypoint stage, its 8x8
    matrices as they are for the homography stage.  That stage stores only
    the homography and its 8x8 covariance over the static template; its
    update is 8x8 algebra in information form over the 2K x 8 Jacobian, gated
    by a certified bound on the innovation's condition number (the exact
    eigenvalue test runs only when the bound cannot decide).  Motion under
    "estimate" is fitted in closed form.

    Raises NoInitializableFrame (after the sequence ends) if nothing
    initialized, and UnknownKeypointId on out-of-template indices.
    """
    kp_noise = bank.noise_for(template)
    kp_state = None
    h_state = None

    for frame in frames:
        flags = []
        meas = frame.measurements
        if h_state is None:
            if meas.k >= 4:
                try:
                    h_state = ekf_init(meas, template, bank, ransac=options.ransac)
                except (InsufficientPoints, DegenerateConfiguration):
                    flags.append("init_failed")
            if h_state is None:
                yield FrameEstimate(frame.frame_index, None, np.empty(0, dtype=int),
                                    np.empty((0, 2)), tuple(flags + ["pre_init"]))
                continue
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
            # no measurement was fused this frame
            kp_state = replace(kp_state, measured_now=np.zeros(template.n, dtype=bool))
        h_state = ekf_predict(h_state, motion, bank)
        active = getattr(kp_state, options.ekf_active_set).nonzero()[0]
        if active.size:
            try:
                h_state = ekf_update(h_state, kp_state, active, template,
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
                H, _ = ransac_homography(template.positions[meas.ids], meas.positions,
                                         replace(ransac, seed=ransac.seed + frame.frame_index))
            except (NoConsensus, DegenerateConfiguration):
                flags.append("no_consensus")
        out.append(FrameEstimate(
            frame_index=frame.frame_index,
            homography=H,
            keypoint_ids=meas.ids.copy(),
            keypoint_positions=meas.positions.copy(),
            flags=tuple(flags)))
    return out


def run_calibrate(sequences, template, ransac=RansacParams(),
                  min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Covariance bank from annotated sequences, lists of SequenceFrame."""
    return calibrate_bank(sequences, template, ransac=ransac, min_samples=min_samples)


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


def check_evaluate_settings(**settings):
    """run_evaluate's keyword settings back; a ValueError names one out of
    range, and a TypeError a seed that is not an integer."""
    check_int("seed", settings.get("rng_seed", 0), 0)
    if (n := settings.get("projection_samples", 1)) < 1:
        raise ValueError(f"projection_samples must be at least 1, got {n}")
    check_positive("pr_threshold_px", settings.get("pr_threshold_px", PR_THRESHOLD_PX))
    return settings


def run_evaluate(predictions, truth_frames, template, dims, rng_seed=0,
                 pr_threshold_px=PR_THRESHOLD_PX, projection_samples=PROJECTION_ERROR_SAMPLES):
    """Score predictions against ground truth, frame-aligned by index.

    Frames without a prediction (pre-init) or without ground truth are
    counted and excluded from aggregates; frames whose quads leave the valid
    projective region, or whose prediction or ground truth is singular, are
    flagged degenerate and likewise excluded.
    Aggregates carry mean and median per metric over the scored frames; the
    average_precision mean is the mAP.  Raises FrameMismatch when the two
    frame sets differ, and ValueError naming a setting out of range.
    """
    check_evaluate_settings(rng_seed=rng_seed, pr_threshold_px=pr_threshold_px,
                            projection_samples=projection_samples)
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
            values["iou_entire"] = iou_entire(h_gt, h_pred, template)
            values["iou_entire_image"] = iou_entire_image(h_gt, h_pred, dims)
            values["iou_part"] = iou_part(h_gt, h_pred, dims)
            values["projection_error_m"] = projection_error(
                h_gt, h_pred, template, dims, n_samples=projection_samples,
                rng_seed=rng_seed + idx)
            values["reprojection_error"] = reprojection_error(h_gt, h_pred, template, dims)
        except (DegenerateProjection, SingularMatrix):
            counts["degenerate_projection"] += 1
            flags.append("degenerate_projection")
            frames.append(FrameMetrics(idx, {}, tuple(flags)))
            continue

        counts["scored"] += 1

        if truth.gt_ids is not None and truth.gt_ids.size:
            raw_det = template.ids[pred.keypoint_ids]
            raw_gt = template.ids[truth.gt_ids]
            try:
                values["nrmse_x"] = nrmse(raw_det, pred.keypoint_positions,
                                          raw_gt, truth.gt_positions, dims, axis="x")
                values["nrmse_y"] = nrmse(raw_det, pred.keypoint_positions,
                                          raw_gt, truth.gt_positions, dims, axis="y")
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
            values["average_precision"] = average_precision(
                raw_det, pred.keypoint_positions, raw_gt, truth.gt_positions, dims)

        frames.append(FrameMetrics(idx, values, tuple(flags)))

    aggregates = {}
    for name in HOMOGRAPHY_METRICS + KEYPOINT_METRICS:
        vals = [fm.values[name] for fm in frames if name in fm.values]
        aggregates[name] = {
            "mean": float(np.mean(vals)) if vals else None,
            "median": float(np.median(vals)) if vals else None,
        }
    return MetricsReport(frames=tuple(frames), aggregates=aggregates, counts=counts)
