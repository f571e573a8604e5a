"""Covariance calibration from ground-truth-annotated sequences.

Every estimator here is a mean of squared errors about zero, not a sample
covariance about the sample mean: the noise model treats residuals as
zero-mean, so a systematic offset must show up as variance, not vanish into
a fitted mean.  Consecutive-frame pairing is by frame_index (difference of
exactly 1) inside each sequence, never across sequences.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, FieldRegError, NoSamples
from .geometry import RansacParams, check_int, homography_params, ransac_homography
from .keypoint_filter import NoiseConfig, check_covariance

MIN_SAMPLES_PER_KEYPOINT = 10


def _annotated(frames):
    """The frames that carry a ground-truth homography, in order."""
    return (f for f in frames if f.gt_homography is not None)


def _gt_keypoints(frame):
    """(index, position) of each ground-truth keypoint of frame."""
    return () if frame.gt_ids is None else zip(frame.gt_ids.tolist(), frame.gt_positions)


def _consecutive_pairs(sequences):
    """(a, b) per annotated frame b with a motion, a the annotated frame one index before b."""
    for seq in sequences:
        frames = sorted(_annotated(seq), key=lambda f: f.frame_index)
        for a, b in zip(frames, frames[1:]):
            if b.frame_index == a.frame_index + 1 and b.motion is not None:
                yield a, b


def _per_keypoint_mse(samples, min_samples):
    """(blocks, pooled, counts) of 2x2 mean squares from samples, a dict
    keypoint index -> list of 2-vectors.  A keypoint with fewer than
    min_samples samples gets the pooled matrix; counts are the raw counts."""
    check_int("min_samples", min_samples, 1)
    sums = {}
    counts = {}
    total = np.zeros((2, 2))
    total_n = 0
    for idx, errs in samples.items():
        E = np.asarray(errs, dtype=float)
        s = E.T @ E
        sums[idx] = s
        counts[idx] = E.shape[0]
        total += s
        total_n += E.shape[0]
    if total_n == 0:
        raise NoSamples("no residual samples")
    pooled = total / total_n
    blocks = {}
    for idx, s in sums.items():
        n = counts[idx]
        blocks[idx] = s / n if n >= min_samples else pooled.copy()
    return blocks, pooled, counts


def estimate_keypoint_process_cov(sequences, min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Process covariance of the image-keypoint dynamics.

    Residual per keypoint and consecutive pair: x_t - A_t(x_{t-1}), both
    positions ground truth.  Returns (blocks, pooled, counts); raises NoSamples.
    """
    samples = {}
    for a, b in _consecutive_pairs(sequences):
        prev = dict(_gt_keypoints(a))
        for idx, pos in _gt_keypoints(b):
            if idx in prev:
                e = pos - b.motion.transform(prev[idx])
                samples.setdefault(idx, []).append(e)
    return _per_keypoint_mse(samples, min_samples)


def estimate_homography_process_cov(sequences):
    """Process covariance of the homography dynamics.

    Residual per consecutive pair: the 8 column-stacked parameters of
    H_t - A_t H_{t-1}.  Returns ((8, 8) matrix, sample count); raises
    NoSamples.
    """
    acc = np.zeros((8, 8))
    n = 0
    for a, b in _consecutive_pairs(sequences):
        pred = b.motion.as_matrix() @ a.gt_homography
        e = homography_params(b.gt_homography) - homography_params(pred)
        acc += np.outer(e, e)
        n += 1
    if n == 0:
        raise NoSamples("no consecutive ground-truth pairs")
    return acc / n, n


def estimate_measurement_cov(frames, min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Measurement covariance from the residual y - x_gt of each measured keypoint
    with ground truth.  Returns (blocks, pooled, counts); raises NoSamples."""
    samples = {}
    for frame in _annotated(frames):
        gt = dict(_gt_keypoints(frame))
        for idx, pos in zip(frame.measurements.ids.tolist(), frame.measurements.positions):
            if idx in gt:
                samples.setdefault(idx, []).append(pos - gt[idx])
    return _per_keypoint_mse(samples, min_samples)


def estimate_init_homography_cov(frames, template, ransac=RansacParams()):
    """Covariance of the robust initial homography estimate about ground truth.

    Re-runs the initialization RANSAC on the measurements of each annotated
    frame, the i-th seeded ransac.seed + i, and averages the squared
    parameter error against its ground truth.  Frames where the fit fails
    are skipped.  Returns ((8, 8) matrix, sample count); raises NoSamples.
    """
    acc = np.zeros((8, 8))
    n = 0
    for i, frame in enumerate(_annotated(frames)):
        m = frame.measurements
        if m.ids.size < 4:
            continue
        try:
            H, _ = ransac_homography(template.positions[m.ids], m.positions,
                                     replace(ransac, seed=ransac.seed + i))
        except FieldRegError:
            continue
        e = homography_params(H) - homography_params(frame.gt_homography)
        acc += np.outer(e, e)
        n += 1
    if n == 0:
        raise NoSamples("no frame admitted a robust homography fit")
    return acc / n, n


def repair_psd(M):
    """Nearest positive semidefinite matrix in the eigenvalue-clamping sense.

    Symmetrize, clamp negative eigenvalues to zero, re-assemble,
    re-symmetrize.  A PSD input comes back unchanged up to floating-point
    reconstruction error.
    """
    A = 0.5 * (np.asarray(M, dtype=float) + np.asarray(M, dtype=float).T)
    w, V = np.linalg.eigh(A)
    w = np.clip(w, 0.0, None)
    R = (V * w) @ V.T
    return 0.5 * (R + R.T)


@dataclass(frozen=True, kw_only=True)
class CovarianceBank:
    """Every covariance a filter run needs, keyed by raw template keypoint id.

    Construction checks every matrix, unused pooled ones included: finite,
    shaped, symmetric, nonnegative diagonal.  Calibrated matrices are
    PSD-repaired.  The 8x8 matrices follow the column-stacked parameter order
    (h11 h21 h31 h12 h22 h32 h13 h23, h33 fixed at 1) that the bank file tags.
    """

    keypoint_process_pooled: np.ndarray     # (2, 2)
    measurement_pooled: np.ndarray          # (2, 2)
    homography_process: np.ndarray          # (8, 8)
    init_homography: np.ndarray             # (8, 8)
    keypoint_process: dict = field(default_factory=dict)    # raw id -> (2, 2)
    keypoint_process_counts: dict = field(default_factory=dict)
    measurement: dict = field(default_factory=dict)
    measurement_counts: dict = field(default_factory=dict)
    homography_process_samples: int = 0
    init_homography_samples: int = 0

    def __post_init__(self):
        # errors name a matrix by its key in the bank file
        for name, k in (("keypoint_process_pooled", 2), ("measurement_pooled", 2),
                        ("homography_process", 8), ("init_homography", 8)):
            key = name.replace("_pooled", " pooled")
            object.__setattr__(self, name, check_covariance(key, getattr(self, name), (k, k)))
        for name in ("keypoint_process", "measurement"):
            blocks = getattr(self, name)
            if not blocks:
                continue
            try:
                check_covariance(f"{name} per_id", list(blocks.values()), (len(blocks), 2, 2))
            except (DimensionMismatch, ValueError):
                # a valid bank, read once per clip, costs one stacked
                # check; the blocks are checked one at a time only to name
                # the bad one
                for i, block in blocks.items():
                    check_covariance(f"{name} per_id {i}", block, (2, 2))
                raise

    def noise_for(self, template):
        """Materialize per-keypoint NoiseConfig blocks in template order."""
        n = template.n
        proc = np.empty((n, 2, 2))
        meas = np.empty((n, 2, 2))
        for i in range(n):
            rid = int(template.ids[i])
            proc[i] = self.keypoint_process.get(rid, self.keypoint_process_pooled)
            meas[i] = self.measurement.get(rid, self.measurement_pooled)
        return NoiseConfig(process=proc, measurement=meas)


def calibrate_bank(sequences, template, ransac=RansacParams(),
                   min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Run all four estimators over training sequences and assemble a bank.

    sequences: lists of SequenceFrame.  A frame without a gt_homography is
    skipped, and one without gt_keypoints has no ground-truth keypoints.
    Raises NoSamples if any estimator has nothing to work with.
    """
    kp_blocks, kp_pooled, kp_counts = estimate_keypoint_process_cov(
        sequences, min_samples=min_samples)
    sigma_h, n_h = estimate_homography_process_cov(sequences)
    frames = [f for seq in sequences for f in seq]
    m_blocks, m_pooled, m_counts = estimate_measurement_cov(frames, min_samples=min_samples)
    init_cov, n_init = estimate_init_homography_cov(frames, template, ransac=ransac)

    def by_raw_id(values, f):
        return {int(template.ids[i]): f(v) for i, v in values.items()}

    return CovarianceBank(
        keypoint_process=by_raw_id(kp_blocks, repair_psd),
        keypoint_process_pooled=repair_psd(kp_pooled),
        keypoint_process_counts=by_raw_id(kp_counts, int),
        measurement=by_raw_id(m_blocks, repair_psd),
        measurement_pooled=repair_psd(m_pooled),
        measurement_counts=by_raw_id(m_counts, int),
        homography_process=repair_psd(sigma_h),
        homography_process_samples=n_h,
        init_homography=repair_psd(init_cov),
        init_homography_samples=n_init,
    )
