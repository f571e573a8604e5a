"""Synthetic broadcast sequences with exact homography bookkeeping.

The homography chain is H_t = A_t H_{t-1} plus optional parameter-space
process noise; ground-truth keypoints are always the exact homography images
of the static template points, so the generated data satisfies the same
identities the filter assumes.  Measurements are ground truth plus
i.i.d. Gaussian noise with i.i.d. dropout.  Everything is driven by one
seeded generator in a fixed draw order, so a config and seed pin the output
bit for bit.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .calibration import CovarianceBank, repair_psd
from .defaults import DEFAULT_INIT_HOMOGRAPHY
from .errors import DegenerateHomography, DimensionMismatch, EmptyVisibleRegion
from .geometry import (
    EPS_DET,
    EPS_T,
    check_int,
    homography_from_params,
    homography_params,
    normalize_homography,
    project,
)
from .keypoint_filter import MeasurementFrame, check_covariance
from .motion import AffineSimilarity
from .seqio import SequenceFrame


@dataclass(frozen=True)
class SimNoise:
    """Noise terms of the generative model, both injected during generation.

    There is no keypoint process noise: ground-truth keypoints stay exact
    homography images by construction.
    """

    measurement: np.ndarray = dc_field(default_factory=lambda: np.zeros((2, 2)))
    homography_process: np.ndarray = dc_field(default_factory=lambda: np.zeros((8, 8)))

    def __post_init__(self):
        object.__setattr__(self, "measurement",
                           check_covariance("measurement", self.measurement, (2, 2)))
        object.__setattr__(self, "homography_process",
                           check_covariance("homography_process", self.homography_process, (8, 8)))


def _chol_or_none(cov):
    if not np.any(cov):
        return None
    return np.linalg.cholesky(repair_psd(cov) + 1e-15 * np.eye(cov.shape[0]))


@dataclass(frozen=True)
class SimConfig:
    template: object                 # FieldTemplate
    dims: object                     # ImageDims
    n_frames: int
    initial_homography: np.ndarray
    motions: tuple                   # n_frames - 1 AffineSimilarity increments
    noise: SimNoise = dc_field(default_factory=SimNoise)
    dropout: float = 0.0
    seed: int = 0
    sequence_id: str = "sim"

    def __post_init__(self):
        h0 = np.asarray(self.initial_homography, dtype=float)
        if h0.shape != (3, 3):
            raise DimensionMismatch(f"initial_homography must have shape (3, 3), got {h0.shape}")
        if not np.isfinite(h0).all():
            raise ValueError("non-finite entries in initial_homography")
        object.__setattr__(self, "initial_homography", normalize_homography(h0))
        object.__setattr__(self, "motions", tuple(self.motions))
        check_int("n_frames", self.n_frames, 1)
        if len(self.motions) != self.n_frames - 1:
            raise DimensionMismatch(
                f"{self.n_frames} frames need {self.n_frames - 1} motions, got {len(self.motions)}")
        if not all(isinstance(m, AffineSimilarity) for m in self.motions):
            raise TypeError("motions must be AffineSimilarity instances")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        check_int("seed", self.seed, 0)


def visible_keypoints(H, template, dims):
    """(indices, projected positions) of template keypoints landing in-bounds
    with a positive projective denominator."""
    positions = template.positions
    H = np.asarray(H, dtype=float)
    den = project(H, *positions.T)[2]
    idx = np.flatnonzero(den > EPS_T)
    proj = (positions[idx] @ H[:2, :2].T + H[:2, 2]) / den[idx, None]
    w, h = float(dims.width_px), float(dims.height_px)
    inb = (proj[:, 0] >= 0) & (proj[:, 0] <= w) & (proj[:, 1] >= 0) & (proj[:, 1] <= h)
    return idx[inb], proj[inb]


def pan_motion_script(n_frames, angle_amplitude=0.0015, scale_amplitude=0.001,
                      translation_amplitude=(3.0, 1.0), period=120.0, phase=0.0):
    """Smooth broadcast-style pan: sinusoidal per-frame motion increments.

    Returns n_frames - 1 AffineSimilarity steps whose rotation, zoom and
    translation oscillate with the given period (frames), so the camera sways
    back and forth instead of drifting away.  Raises ValueError on a zero
    period.
    """
    if period == 0.0:
        raise ValueError("period must be nonzero")
    steps = []
    for t in range(1, n_frames):
        w = 2.0 * np.pi * (t + phase) / period
        steps.append(AffineSimilarity.from_params(
            angle=angle_amplitude * np.sin(w),
            scale=1.0 + scale_amplitude * np.sin(w + 0.7),
            translation=(translation_amplitude[0] * np.sin(w),
                         translation_amplitude[1] * np.cos(w)),
        ))
    return steps


def generate_sequence(config):
    """Run the generative model; returns a list of SequenceFrame.

    Per-frame draw order is fixed (homography noise, dropout, measurement
    noise), so output is bit-identical for identical config and seed.
    Raises EmptyVisibleRegion when the initial homography shows no
    keypoint at all, and DegenerateHomography if the chain goes singular.
    """
    rng = np.random.default_rng(config.seed)
    chol_h = _chol_or_none(config.noise.homography_process)
    chol_m = _chol_or_none(config.noise.measurement)

    H = config.initial_homography.copy()
    frames = []
    for t in range(config.n_frames):
        motion = None
        if t > 0:
            motion = config.motions[t - 1]
            H = motion.as_matrix() @ H
            if chol_h is not None:
                H = homography_from_params(homography_params(H) + chol_h @ rng.standard_normal(8))
            if abs(np.linalg.det(H)) <= EPS_DET:
                raise DegenerateHomography(f"frame {t}: homography chain went singular")

        vis_idx, vis_pos = visible_keypoints(H, config.template, config.dims)
        if t == 0 and vis_idx.size == 0:
            raise EmptyVisibleRegion("initial homography leaves no template keypoint in view")

        if vis_idx.size and config.dropout > 0.0:
            keep = rng.random(vis_idx.size) >= config.dropout
        else:
            keep = np.ones(vis_idx.size, dtype=bool)
        meas_idx = vis_idx[keep]
        meas_pos = vis_pos[keep].copy()
        if chol_m is not None and meas_idx.size:
            meas_pos = meas_pos + rng.standard_normal((meas_idx.size, 2)) @ chol_m.T

        frames.append(SequenceFrame(
            frame_index=t,
            measurements=MeasurementFrame(t, meas_idx, meas_pos),
            motion=motion,
            gt_homography=H.copy(),
            gt_ids=vis_idx,
            gt_positions=vis_pos,
        ))
    return frames


def matched_bank(config, init_homography_cov=None):
    """Covariance bank matching a simulation config (pooled entries only).

    The keypoint process is zero, as in the generative model.  The init
    covariance is not part of the model; pass one or get the package's
    reference default.
    """
    init_cov = DEFAULT_INIT_HOMOGRAPHY if init_homography_cov is None else init_homography_cov
    return CovarianceBank(
        keypoint_process_pooled=np.zeros((2, 2)),
        measurement_pooled=repair_psd(config.noise.measurement),
        homography_process=repair_psd(config.noise.homography_process),
        init_homography=repair_psd(np.asarray(init_cov, dtype=float)),
    )
