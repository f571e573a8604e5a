"""Linear Kalman filter over stacked image-keypoint positions.

State is the 2N vector (x0, y0, x1, y1, ...) over every template keypoint,
driven by the global AffineSimilarity motion and corrected with whichever
keypoints the detector produced this frame.  Keypoints are independent by
construction: the motion acts on each one alone, the measurement selects
keypoints and the noise is per keypoint.  So the covariance is kept as its
(N, 2, 2) diagonal blocks, and every step is closed-form 2x2 algebra over
the stack.  Keypoints never seen yet are masked out via measured_ever; their
blocks are initialized directly from the first observation.

A caller's KeypointFilterState is checked when it is built.  The states the
steps return are built by _built_state, without those checks: each step
makes new arrays of the checked dtypes and shapes, so the checks could only
repeat themselves, and on a few keypoints they cost as much as the
arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    SingularInnovation,
    UnknownKeypointId,
)
from .motion import AffineSimilarity

_I2 = np.eye(2)
# adj([[a, b], [c, d]]) = [[d, -b], [-c, a]]: the block flipped on both axes
# and transposed, times these signs
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class MeasurementFrame:
    """Detector output for one frame: keypoint indices and pixel positions."""

    frame_index: int
    ids: np.ndarray        # (K,) canonical template indices, unique
    positions: np.ndarray  # (K, 2) pixels

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int).reshape(-1)
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "positions", pos)
        if pos.shape[0] != ids.size:
            raise ValueError(f"{ids.size} ids with {pos.shape[0]} positions")
        if ids.size and len(set(ids.tolist())) != ids.size:
            raise ValueError("duplicate keypoint ids within a frame")
        if ids.size and ids.min() < 0:
            raise UnknownKeypointId(f"negative keypoint index {ids.min()}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("non-finite measurement position")

    @property
    def k(self):
        return self.ids.size


def check_covariance(name, value, shape):
    """value as a float array of the given shape whose matrices (over the last
    two axes) are finite and symmetric with nonnegative diagonals.  Raises
    DimensionMismatch or ValueError naming the value otherwise."""
    a = np.asarray(value, dtype=float)
    if a.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite entries in {name}")
    if np.max(np.abs(a - np.swapaxes(a, -1, -2))) > 1e-9:
        raise ValueError(f"{name} must be symmetric")
    if np.any(np.diagonal(a, axis1=-2, axis2=-1) < 0):
        raise ValueError(f"{name} must have nonnegative diagonals")
    return a


@dataclass(frozen=True)
class NoiseConfig:
    """Per-keypoint 2x2 process and measurement covariance blocks."""

    process: np.ndarray      # (N, 2, 2)
    measurement: np.ndarray  # (N, 2, 2)

    def __post_init__(self):
        n = np.asarray(self.process).shape[0]
        proc = check_covariance("process", self.process, (n, 2, 2))
        meas = check_covariance("measurement", self.measurement, (n, 2, 2))
        object.__setattr__(self, "process", proc)
        object.__setattr__(self, "measurement", meas)

    @property
    def n(self):
        return self.process.shape[0]


@dataclass(frozen=True)
class KeypointFilterState:
    mean: np.ndarray           # (2N,) stacked (x, y) per keypoint
    cov: np.ndarray            # (N, 2, 2) covariance block per keypoint; cross-covariances are zero
    measured_ever: np.ndarray  # (N,) bool
    measured_now: np.ndarray   # (N,) bool

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        ever = np.asarray(self.measured_ever, dtype=bool)
        now = np.asarray(self.measured_now, dtype=bool)
        for nm, v in (("mean", mean), ("cov", cov), ("measured_ever", ever), ("measured_now", now)):
            object.__setattr__(self, nm, v)
        n = mean.shape[0] // 2
        if (mean.shape[0] % 2 or cov.shape != (n, 2, 2)
                or ever.shape != (n,) or now.shape != ever.shape):
            raise DimensionMismatch(
                f"inconsistent state shapes: mean {mean.shape}, cov {cov.shape} "
                f"(expected ({n}, 2, 2)), masks {ever.shape}/{now.shape}")

    @property
    def n(self):
        return self.mean.shape[0] // 2

    def keypoint_means(self):
        """(N, 2) view of the stacked mean."""
        return self.mean.reshape(-1, 2)


def _built_state(mean, cov, measured_ever, measured_now):
    """A KeypointFilterState over new arrays of the checked dtypes and shapes
    ((2N,) and (N, 2, 2) float64, two (N,) bool), made without
    __post_init__'s conversions and checks."""
    state = object.__new__(KeypointFilterState)
    state.__dict__.update(mean=mean, cov=cov, measured_ever=measured_ever,
                          measured_now=measured_now)
    return state


def init_keypoint_state(n):
    """Empty state: nothing measured, zero mean and covariance."""
    return KeypointFilterState(
        mean=np.zeros(2 * n),
        cov=np.zeros((n, 2, 2)),
        measured_ever=np.zeros(n, dtype=bool),
        measured_now=np.zeros(n, dtype=bool),
    )


def _symmetric(blocks):
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


def lkf_predict(state, motion, noise):
    """Propagate every keypoint through the global motion and inflate by process noise.

    mean_j <- A mean_j + t and P_j <- A P_j A^T + Q_j for each keypoint j,
    with A the motion's 2x2 linear part.  Masks are untouched.
    """
    if not isinstance(motion, AffineSimilarity):
        raise TypeError(f"motion must be an AffineSimilarity, got {type(motion)!r}")
    n = state.n
    if noise.n != n:
        raise DimensionMismatch(f"state has {n} keypoints, noise has {noise.n}")

    A = motion.linear
    mean = (state.keypoint_means() @ A.T + motion.translation).ravel()
    cov = _symmetric(A @ state.cov @ A.T + noise.process)
    return _built_state(mean, cov, state.measured_ever.copy(), state.measured_now.copy())


def lkf_update(state, frame, noise):
    """Fuse one frame of detections.

    Keypoints observed for the first time are initialized directly: mean from
    the observation, covariance block from that keypoint's measurement noise
    (the covariance-at-first-observation convention of this package).
    Previously seen keypoints get a standard Kalman update of their own
    block: S_j = P_j + R_j, K_j = P_j S_j^-1, Joseph-form covariance.
    measured_now is rewritten to exactly this frame's ids; measured_ever
    accumulates.

    Raises UnknownKeypointId for out-of-range indices and SingularInnovation
    when an innovation block is not positive definite.
    """
    n = state.n
    if noise.n != n:
        raise DimensionMismatch(f"state has {n} keypoints, noise has {noise.n}")
    ids = frame.ids
    if ids.size and ids.max() >= n:
        raise UnknownKeypointId(f"keypoint index {ids.max()} out of range for {n} keypoints")

    measured_now = np.zeros(n, dtype=bool)
    measured_now[ids] = True
    measured_ever = state.measured_ever | measured_now

    seen = state.measured_ever[ids]
    known = ids[seen]
    mean = state.keypoint_means().copy()
    cov = state.cov.copy()

    if known.size:
        P = cov[known]
        R = noise.measurement[known]
        S = P + R
        a, b, c, d = S[:, 0, 0], S[:, 0, 1], S[:, 1, 0], S[:, 1, 1]
        det = a * d - b * c
        if not (np.minimum(a, det) > 0).all():
            raise SingularInnovation("innovation covariance is not positive definite")
        S_inv = S[:, ::-1, ::-1].transpose(0, 2, 1) * _ADJ_SIGNS / det[:, None, None]
        K = P @ S_inv
        prior = mean[known]
        innovation = frame.positions[seen] - prior
        mean[known] = prior + (K @ innovation[:, :, None])[:, :, 0]
        IK = _I2 - K
        cov[known] = (IK @ P @ IK.transpose(0, 2, 1)
                      + K @ R @ K.transpose(0, 2, 1))

    new = ~seen
    first = ids[new]
    mean[first] = frame.positions[new]
    cov[first] = noise.measurement[first]
    return _built_state(mean.ravel(), _symmetric(cov), measured_ever, measured_now)
