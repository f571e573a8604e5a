"""Dense reference forms of both filter stages, for tests only.

These are the textbook equations with every matrix spelled out: the keypoint
stage carries a full (2N, 2N) covariance, and the EKF forms the dense 2K x 2K
innovation covariance, a Kalman gain and a Joseph-form update of the 8x8
homography covariance.  fieldreg's own filters exploit structure these
matrices keep by construction (2x2 keypoint blocks, an information-form
update in the state dimension); the tests check that they agree.

The functions take and return the same things as their fieldreg namesakes,
except that keypoint states are DenseKeypointState, so they can stand in for
them inside fieldreg.pipeline.iter_filter.  predict_measurements has no
namesake: it maps the active keypoints through apply_homography, apart from
(and so independently of) the projection code in fieldreg.homography_filter
that the tests check.
"""

from dataclasses import dataclass, replace

import numpy as np

from fieldreg.errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    InsufficientPoints,
    NoConsensus,
    SingularInnovation,
    UnknownKeypointId,
)
from fieldreg.geometry import (
    RansacParams,
    apply_homography,
    homography_from_params,
    homography_params,
    ransac_homography,
)
from fieldreg.homography_filter import (
    MAX_INNOVATION_CONDITION,
    HomographyFilterState,
    measurement_jacobian,
)


@dataclass(frozen=True)
class DenseKeypointState:
    mean: np.ndarray           # (2N,)
    cov: np.ndarray            # (2N, 2N)
    measured_ever: np.ndarray  # (N,) bool
    measured_now: np.ndarray   # (N,) bool

    @property
    def n(self):
        return self.mean.shape[0] // 2

    def keypoint_means(self):
        return self.mean.reshape(-1, 2)


def block_diag(blocks):
    """(2K, 2K) matrix with the (K, 2, 2) blocks on its diagonal."""
    blocks = np.asarray(blocks, dtype=float)
    k = blocks.shape[0]
    out = np.zeros((2 * k, 2 * k))
    for j in range(k):
        out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blocks[j]
    return out


def _coord_idx(ids):
    ids = np.asarray(ids, dtype=int)
    out = np.empty(2 * ids.size, dtype=int)
    out[0::2] = 2 * ids
    out[1::2] = 2 * ids + 1
    return out


# -- keypoint stage ----------------------------------------------------------


def init_keypoint_state(n):
    return DenseKeypointState(np.zeros(2 * n), np.zeros((2 * n, 2 * n)),
                              np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))


def lkf_predict(state, motion, noise):
    n = state.n
    mean = (state.keypoint_means() @ motion.linear.T + motion.translation).ravel()
    F = np.kron(np.eye(n), motion.linear)
    cov = F @ state.cov @ F.T + block_diag(noise.process)
    cov = 0.5 * (cov + cov.T)
    return replace(state, mean=mean, cov=cov,
                   measured_ever=state.measured_ever.copy(),
                   measured_now=state.measured_now.copy())


def lkf_update(state, frame, noise):
    n = state.n
    ids = frame.ids
    if ids.size and ids.max() >= n:
        raise UnknownKeypointId(f"keypoint index {ids.max()} out of range for {n} keypoints")
    measured_now = np.zeros(n, dtype=bool)
    measured_now[ids] = True
    measured_ever = state.measured_ever | measured_now
    if ids.size == 0:
        return replace(state, mean=state.mean.copy(), cov=state.cov.copy(),
                       measured_ever=measured_ever, measured_now=measured_now)

    new_mask = ~state.measured_ever[ids]
    known_ids = ids[~new_mask]
    mean = state.mean.copy()
    cov = state.cov.copy()
    if known_ids.size:
        ci = _coord_idx(known_ids)
        y = frame.positions[~new_mask].ravel()
        R = block_diag(noise.measurement[known_ids])
        S = cov[np.ix_(ci, ci)] + R
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise SingularInnovation("innovation covariance is not positive definite") from None
        K = np.linalg.solve(S, cov[ci, :]).T
        mean = mean + K @ (y - mean[ci])
        A = np.eye(2 * n)
        A[:, ci] -= K
        cov = A @ cov @ A.T + K @ R @ K.T
    for r, j in enumerate(ids):
        if not new_mask[r]:
            continue
        sl = slice(2 * j, 2 * j + 2)
        mean[sl] = frame.positions[r]
        cov[sl, :] = 0.0
        cov[:, sl] = 0.0
        cov[sl, sl] = noise.measurement[j]
    cov = 0.5 * (cov + cov.T)
    return replace(state, mean=mean, cov=cov,
                   measured_ever=measured_ever, measured_now=measured_now)


# -- homography stage --------------------------------------------------------


def _transition_matrix(motion):
    A3 = motion.as_matrix()
    F = np.zeros((8, 8))
    F[0:3, 0:3] = A3
    F[3:6, 3:6] = A3
    F[6:8, 6:8] = A3[:2, :2]
    return F


def ekf_init(frame, template, bank, ransac=RansacParams()):
    if frame.k < 4:
        raise InsufficientPoints(f"initialization needs >= 4 measurements, got {frame.k}")
    try:
        H0, _ = ransac_homography(template.positions[frame.ids], frame.positions, ransac)
    except NoConsensus as e:
        raise DegenerateConfiguration(f"no RANSAC consensus at init: {e}") from e
    return HomographyFilterState(h_mean=homography_params(H0), cov=bank.init_homography.copy())


def predict_measurements(state, active_idx, template):
    """Projected pixel positions (K, 2) of the active template keypoints."""
    return apply_homography(homography_from_params(state.h_mean), template.positions[active_idx])


def ekf_predict(state, motion, bank):
    H_new = motion.as_matrix() @ homography_from_params(state.h_mean)
    F = _transition_matrix(motion)
    cov = F @ state.cov @ F.T + bank.homography_process
    cov = 0.5 * (cov + cov.T)
    return replace(state, h_mean=homography_params(H_new), cov=cov)


def ekf_update(state, kp_state, active_idx, template, max_condition=MAX_INNOVATION_CONDITION):
    active_idx = np.asarray(active_idx, dtype=int)
    if active_idx.size == 0:
        return state
    n = template.n
    if kp_state.n != n:
        raise DimensionMismatch(f"keypoint state has {kp_state.n} keypoints, template has {n}")
    if not np.all(kp_state.measured_ever[active_idx]):
        raise ValueError("active keypoint was never measured; it has no estimate to fuse")
    ci = _coord_idx(active_idx)
    z = kp_state.mean[ci]
    R = kp_state.cov[np.ix_(ci, ci)]
    J = measurement_jacobian(state, active_idx, template)
    pred = predict_measurements(state, active_idx, template).ravel()
    P = state.cov
    S = J @ P @ J.T + R
    S = 0.5 * (S + S.T)
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > max_condition:
        raise SingularInnovation(f"innovation condition number {cond:.3e} exceeds {max_condition:.1e}")
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise SingularInnovation("innovation covariance is not positive definite") from None
    K = np.linalg.solve(S, J @ P).T
    A = np.eye(8) - K @ J
    cov = A @ P @ A.T + K @ R @ K.T
    cov = 0.5 * (cov + cov.T)
    return replace(state, h_mean=state.h_mean + K @ (z - pred), cov=cov)


# Names iter_filter looks up in fieldreg.pipeline, mapped to their dense forms.
PIPELINE_NAMES = {
    "init_keypoint_state": init_keypoint_state,
    "lkf_predict": lkf_predict,
    "lkf_update": lkf_update,
    "ekf_init": ekf_init,
    "ekf_predict": ekf_predict,
    "ekf_update": ekf_update,
}
