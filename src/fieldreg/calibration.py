"""Covariance calibration from ground-truth-annotated sequences.

Every estimator here is a mean of squared errors about zero, not a sample
covariance about the sample mean: the noise model treats residuals as
zero-mean, so a systematic offset must show up as variance, not vanish into
a fitted mean.  Consecutive-frame pairing is by frame_index (difference of
exactly 1) inside each sequence, never across sequences.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FieldRegError, NoSamples
from .geometry import RansacParams, homography_params, normalize_homography, ransac_homography
from .keypoint_filter import NoiseConfig
from .homography_filter import HomographyNoiseConfig
from .motion import AffineSimilarity

MIN_SAMPLES_PER_KEYPOINT = 10


@dataclass(frozen=True)
class TrainingRecord:
    """One annotated frame: ground truth plus raw detector measurements.

    ids are canonical template indices.  motion is the global
    AffineSimilarity from the previous frame to this one (None when unknown
    or at a sequence start).
    """

    frame_index: int
    gt_homography: np.ndarray
    gt_ids: np.ndarray
    gt_positions: np.ndarray
    measured_ids: np.ndarray
    measured_positions: np.ndarray
    motion: AffineSimilarity = None

    def __post_init__(self):
        H = normalize_homography(np.asarray(self.gt_homography, dtype=float))
        if not np.all(np.isfinite(H)):
            raise ValueError("non-finite ground-truth homography")
        object.__setattr__(self, "gt_homography", H)
        for nm in ("gt_ids", "measured_ids"):
            object.__setattr__(self, nm, np.asarray(getattr(self, nm), dtype=int).reshape(-1))
        for nm in ("gt_positions", "measured_positions"):
            object.__setattr__(self, nm, np.asarray(getattr(self, nm), dtype=float).reshape(-1, 2))
        if self.gt_ids.size != self.gt_positions.shape[0]:
            raise ValueError("gt ids and positions disagree")
        if self.measured_ids.size != self.measured_positions.shape[0]:
            raise ValueError("measured ids and positions disagree")


@dataclass(frozen=True)
class PerKeypointCovariance:
    """Per-keypoint 2x2 matrices with a pooled fallback.

    blocks maps keypoint index -> matrix for every keypoint that appeared at
    all; sparsely observed keypoints (fewer than the min_samples cut) carry
    the pooled matrix.  counts records the raw per-keypoint sample counts.
    """

    blocks: dict
    pooled: np.ndarray
    counts: dict

    def block_for(self, idx):
        return self.blocks.get(int(idx), self.pooled)


def _consecutive_pairs(sequence):
    recs = sorted(sequence, key=lambda r: r.frame_index)
    for a, b in zip(recs, recs[1:]):
        if b.frame_index == a.frame_index + 1 and b.motion is not None:
            yield a, b


def _per_keypoint_mse(samples, min_samples):
    # samples: dict idx -> list of 2-vectors
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
    return PerKeypointCovariance(blocks=blocks, pooled=pooled, counts=counts)


def estimate_keypoint_process_cov(sequences, min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Process covariance of the image-keypoint dynamics.

    Residual per keypoint and consecutive pair: x_t - A_t(x_{t-1}), both
    positions ground truth.  Returns PerKeypointCovariance; raises NoSamples.
    """
    samples = {}
    for a, b in _iter_pairs(sequences):
        prev = dict(zip(a.gt_ids.tolist(), a.gt_positions))
        for idx, pos in zip(b.gt_ids.tolist(), b.gt_positions):
            if idx in prev:
                e = pos - b.motion.transform(prev[idx])
                samples.setdefault(idx, []).append(e)
    return _per_keypoint_mse(samples, min_samples)


def _iter_pairs(sequences):
    for seq in sequences:
        yield from _consecutive_pairs(seq)


def estimate_homography_process_cov(sequences):
    """Process covariance of the homography dynamics.

    Residual per consecutive pair: the 8 column-stacked parameters of
    H_t - A_t H_{t-1}.  Returns ((8, 8) matrix, sample count); raises
    NoSamples.
    """
    acc = np.zeros((8, 8))
    n = 0
    for a, b in _iter_pairs(sequences):
        pred = b.motion.as_matrix() @ a.gt_homography
        e = homography_params(b.gt_homography) - homography_params(pred)
        acc += np.outer(e, e)
        n += 1
    if n == 0:
        raise NoSamples("no consecutive ground-truth pairs")
    return acc / n, n


def estimate_measurement_cov(records, min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Measurement covariance: residual y - x_gt per measured keypoint with ground truth."""
    samples = {}
    for rec in records:
        gt = dict(zip(rec.gt_ids.tolist(), rec.gt_positions))
        for idx, pos in zip(rec.measured_ids.tolist(), rec.measured_positions):
            if idx in gt:
                samples.setdefault(idx, []).append(pos - gt[idx])
    return _per_keypoint_mse(samples, min_samples)


def estimate_init_homography_cov(records, template, ransac=RansacParams()):
    """Covariance of the robust initial homography estimate about ground truth.

    Re-runs the initialization RANSAC on each record's measurements (seeded
    per record for determinism) and averages the squared parameter error
    against the record's ground truth.  Records where the fit fails are
    skipped.  Returns ((8, 8) matrix, sample count); raises NoSamples.
    """
    acc = np.zeros((8, 8))
    n = 0
    for i, rec in enumerate(records):
        if rec.measured_ids.size < 4:
            continue
        try:
            H, _ = ransac_homography(
                template.positions[rec.measured_ids], rec.measured_positions,
                inlier_threshold_px=ransac.inlier_threshold_px,
                max_iters=ransac.max_iters, rng_seed=ransac.seed + i,
                confidence=ransac.confidence)
        except FieldRegError:
            continue
        e = homography_params(H) - homography_params(rec.gt_homography)
        acc += np.outer(e, e)
        n += 1
    if n == 0:
        raise NoSamples("no record admitted a robust homography fit")
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


@dataclass(frozen=True)
class CovarianceBank:
    """Every covariance a filter run needs, keyed by raw template keypoint id.

    Matrices are stored PSD-repaired.  The homography matrices follow the
    package's column-stacked parameter order (h11 h21 h31 h12 h22 h32 h13
    h23, h33 fixed at 1), and the bank file records that tag explicitly.
    """

    keypoint_process: dict            # raw id -> (2, 2)
    keypoint_process_pooled: np.ndarray
    keypoint_process_counts: dict
    measurement: dict
    measurement_pooled: np.ndarray
    measurement_counts: dict
    homography_process: np.ndarray    # (8, 8)
    homography_process_samples: int
    init_homography: np.ndarray       # (8, 8)
    init_homography_samples: int

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

    def homography_noise(self):
        return HomographyNoiseConfig(homography_process=self.homography_process,
                                     init_cov=self.init_homography)


def calibrate_bank(sequences, template, ransac=RansacParams(),
                   min_samples=MIN_SAMPLES_PER_KEYPOINT):
    """Run all four estimators over training sequences and assemble a bank.

    sequences: list of lists of TrainingRecord (ids canonical indices).
    Raises NoSamples if any estimator has nothing to work with.
    """
    kp_proc = estimate_keypoint_process_cov(sequences, min_samples=min_samples)
    sigma_h, n_h = estimate_homography_process_cov(sequences)
    records = [r for seq in sequences for r in seq]
    meas = estimate_measurement_cov(records, min_samples=min_samples)
    init_cov, n_init = estimate_init_homography_cov(records, template, ransac=ransac)

    def by_raw_id(pkc):
        blocks = {int(template.ids[i]): repair_psd(m) for i, m in pkc.blocks.items()}
        counts = {int(template.ids[i]): c for i, c in pkc.counts.items()}
        return blocks, counts

    kp_blocks, kp_counts = by_raw_id(kp_proc)
    m_blocks, m_counts = by_raw_id(meas)
    return CovarianceBank(
        keypoint_process=kp_blocks,
        keypoint_process_pooled=repair_psd(kp_proc.pooled),
        keypoint_process_counts=kp_counts,
        measurement=m_blocks,
        measurement_pooled=repair_psd(meas.pooled),
        measurement_counts=m_counts,
        homography_process=repair_psd(sigma_h),
        homography_process_samples=n_h,
        init_homography=repair_psd(init_cov),
        init_homography_samples=n_init,
    )
