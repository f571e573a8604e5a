"""Extended Kalman filter over the homography and the field-template keypoints.

State is (X0, Y0, ..., X_{N-1}, Y_{N-1}, h) with h the 8 column-stacked free
homography parameters (h33 fixed at 1).  The predict step applies the global
AffineSimilarity to the homography, exactly: the mean goes through the 3x3
product A H, whose last-row structure leaves (h31, h32) bitwise unchanged.
The update step treats the first-stage filter's posterior keypoint means as
the measurement and its posterior covariance sub-block as the measurement
noise, so the two stages stay probabilistically coupled.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    InsufficientPoints,
    NoConsensus,
    NumericalDegeneracy,
    SingularInnovation,
    UnknownKeypointId,
)
from .geometry import (
    EPS_T,
    RansacParams,
    homography_from_params,
    homography_params,
    ransac_homography,
)
from .motion import AffineSimilarity

MAX_INNOVATION_CONDITION = 1e12


def _check_square(name, arr, k):
    a = np.asarray(arr, dtype=float)
    if a.shape != (k, k):
        raise DimensionMismatch(f"{name} must be ({k}, {k}), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite entries in {name}")
    if np.max(np.abs(a - a.T)) > 1e-9:
        raise ValueError(f"{name} must be symmetric")
    return a


@dataclass(frozen=True)
class HomographyNoiseConfig:
    """Process noise for the joint field/homography state plus the init covariance."""

    homography_process: np.ndarray       # (8, 8)
    init_cov: np.ndarray                 # (8, 8) covariance of the RANSAC init
    field_process: np.ndarray = None     # (N, 2, 2); None means zero (static field)

    def __post_init__(self):
        object.__setattr__(self, "homography_process",
                           _check_square("homography_process", self.homography_process, 8))
        object.__setattr__(self, "init_cov", _check_square("init_cov", self.init_cov, 8))
        if self.field_process is not None:
            fp = np.asarray(self.field_process, dtype=float)
            if fp.ndim != 3 or fp.shape[1:] != (2, 2):
                raise DimensionMismatch(f"field_process must be (N, 2, 2), got {fp.shape}")
            object.__setattr__(self, "field_process", fp)

    def field_blocks(self, n):
        """The (N, 2, 2) field process blocks, or None for a static field."""
        if self.field_process is None:
            return None
        if self.field_process.shape[0] != n:
            raise DimensionMismatch(
                f"field_process covers {self.field_process.shape[0]} keypoints, state has {n}")
        return self.field_process


@dataclass(frozen=True)
class HomographyFilterState:
    field_mean: np.ndarray  # (2N,) template coordinates, meters
    h_mean: np.ndarray      # (8,) column-stacked homography parameters
    cov: np.ndarray         # (2N + 8, 2N + 8)

    def __post_init__(self):
        fm = np.asarray(self.field_mean, dtype=float)
        hm = np.asarray(self.h_mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "field_mean", fm)
        object.__setattr__(self, "h_mean", hm)
        object.__setattr__(self, "cov", cov)
        d = fm.shape[0] + 8
        if fm.ndim != 1 or fm.shape[0] % 2 or hm.shape != (8,) or cov.shape != (d, d):
            raise DimensionMismatch(
                f"inconsistent state shapes: field {fm.shape}, h {hm.shape}, cov {cov.shape}")

    @property
    def n(self):
        return self.field_mean.shape[0] // 2

    def stacked_mean(self):
        return np.concatenate([self.field_mean, self.h_mean])

    def field_points(self):
        return self.field_mean.reshape(-1, 2)


def reconstruct_homography(state):
    """The state's homography as a 3x3 matrix with h33 = 1."""
    return homography_from_params(state.h_mean)


def ekf_init(frame, template, noise, ransac=RansacParams()):
    """Initialize from one frame: robust homography fit against the template.

    frame.ids are canonical template indices; needs >= 4 observations.  The
    field part of the state starts at the template positions with the
    configured (default zero) field covariance; the homography part at the
    RANSAC estimate with the configured init covariance.

    Raises InsufficientPoints and DegenerateConfiguration (which also covers
    a failed RANSAC consensus).
    """
    if frame.k < 4:
        raise InsufficientPoints(f"initialization needs >= 4 measurements, got {frame.k}")
    if frame.ids.max() >= template.n:
        raise UnknownKeypointId(
            f"keypoint index {frame.ids.max()} out of range for {template.n} keypoints")
    try:
        H0, _ = ransac_homography(
            template.positions[frame.ids], frame.positions,
            inlier_threshold_px=ransac.inlier_threshold_px,
            max_iters=ransac.max_iters, rng_seed=ransac.seed,
            confidence=ransac.confidence)
    except NoConsensus as e:
        raise DegenerateConfiguration(f"no RANSAC consensus at init: {e}") from e

    n = template.n
    cov = np.zeros((2 * n + 8, 2 * n + 8))
    _add_field_process(cov, noise)
    cov[2 * n:, 2 * n:] = noise.init_cov
    return HomographyFilterState(
        field_mean=template.positions.ravel().copy(),
        h_mean=homography_params(H0),
        cov=cov,
    )


def _add_diagonal_blocks(square, blocks):
    """square[2j:2j+2, 2j:2j+2] += blocks[j] for each of the (k, 2, 2) blocks, in place."""
    k = blocks.shape[0]
    j = np.arange(k)
    square[:2 * k, :2 * k].reshape(k, 2, k, 2)[j, :, j, :] += blocks


def _add_field_process(cov, noise):
    fb = noise.field_blocks((cov.shape[0] - 8) // 2)
    if fb is not None:
        _add_diagonal_blocks(cov, fb)


def _transition_matrix(motion):
    # Exact linearization of h -> vec8(A H): the affine map acts per column.
    A3 = motion.as_matrix()
    F = np.zeros((8, 8))
    F[0:3, 0:3] = A3
    F[3:6, 3:6] = A3
    F[6:8, 6:8] = A3[:2, :2]
    return F


def ekf_predict(state, motion, noise):
    """Propagate: field points static, homography through H <- A H.

    The homography mean is computed as the literal 3x3 product, so the
    predicted (h31, h32) equal their priors bitwise (A's last row is exactly
    (0, 0, 1)).  The covariance goes through blockdiag(I, F), with F the 8x8
    transition, by transforming only the 8 homography rows and columns; then
    the process noise is added.
    """
    if not isinstance(motion, AffineSimilarity):
        raise TypeError(f"motion must be an AffineSimilarity, got {type(motion)!r}")
    n = state.n
    H_new = motion.as_matrix() @ reconstruct_homography(state)
    h_mean = homography_params(H_new)

    F = _transition_matrix(motion)
    h = slice(2 * n, 2 * n + 8)
    cov = state.cov.copy()
    cov[h] = F @ cov[h]
    cov[:, h] = cov[:, h] @ F.T
    _add_field_process(cov, noise)
    cov[h, h] += noise.homography_process
    cov = 0.5 * (cov + cov.T)
    return replace(state, field_mean=state.field_mean.copy(), h_mean=h_mean, cov=cov)


def _projection_terms(state, active_idx, eps):
    h = state.h_mean
    pts = state.field_points()[active_idx]
    X, Y = pts[:, 0], pts[:, 1]
    D = h[2] * X + h[5] * Y + 1.0
    if np.any(np.abs(D) <= eps):
        raise NumericalDegeneracy("projective denominator vanished at a field keypoint")
    u = (h[0] * X + h[3] * Y + h[6]) / D
    v = (h[1] * X + h[4] * Y + h[7]) / D
    return X, Y, D, u, v


def predict_measurements(state, active_idx, eps=EPS_T):
    """Projected pixel positions (K, 2) of the active field keypoints."""
    active_idx = np.asarray(active_idx, dtype=int)
    _, _, _, u, v = _projection_terms(state, active_idx, eps)
    return np.stack([u, v], axis=1)


def measurement_jacobian(state, active_idx, eps=EPS_T):
    """Jacobian (2K, 2N + 8) of the projections w.r.t. the full state.

    Rows alternate u, v per active keypoint.  Nonzero columns are the active
    keypoint's own (X, Y) and the 8 homography parameters; with
    D = h31 X + h32 Y + 1:

        du/dX = (h11 - u h31)/D        dv/dX = (h21 - v h31)/D
        du/dY = (h12 - u h32)/D        dv/dY = (h22 - v h32)/D
        du/d(h11, h12, h13) = (X, Y, 1)/D         (v-row: h21, h22, h23)
        du/d(h31, h32) = -(u X, u Y)/D            (v-row: -(v X, v Y)/D)

    Raises NumericalDegeneracy when a denominator magnitude is <= eps.
    """
    active_idx = np.asarray(active_idx, dtype=int)
    n = state.n
    if active_idx.size and (active_idx.min() < 0 or active_idx.max() >= n):
        raise UnknownKeypointId(f"active index out of range for {n} keypoints")
    h = state.h_mean
    X, Y, D, u, v = _projection_terms(state, active_idx, eps)
    k = active_idx.size
    J = np.zeros((2 * k, 2 * n + 8))
    rows_u = np.arange(0, 2 * k, 2)
    rows_v = rows_u + 1

    J[rows_u, 2 * active_idx] = (h[0] - u * h[2]) / D
    J[rows_u, 2 * active_idx + 1] = (h[3] - u * h[5]) / D
    J[rows_v, 2 * active_idx] = (h[1] - v * h[2]) / D
    J[rows_v, 2 * active_idx + 1] = (h[4] - v * h[5]) / D

    hcol = 2 * n
    J[rows_u, hcol + 0] = X / D
    J[rows_u, hcol + 2] = -u * X / D
    J[rows_u, hcol + 3] = Y / D
    J[rows_u, hcol + 5] = -u * Y / D
    J[rows_u, hcol + 6] = 1.0 / D
    J[rows_v, hcol + 1] = X / D
    J[rows_v, hcol + 2] = -v * X / D
    J[rows_v, hcol + 4] = Y / D
    J[rows_v, hcol + 5] = -v * Y / D
    J[rows_v, hcol + 7] = 1.0 / D
    return J


def ekf_update(state, kp_state, active_idx, max_condition=MAX_INNOVATION_CONDITION,
               eps=EPS_T):
    """Correct the joint state against the first-stage posterior.

    The measurement for each active keypoint is the first-stage filter's
    posterior mean, with that filter's posterior covariance block as the
    measurement noise.  Joseph-form covariance update.  An empty active set
    returns the state unchanged (pure-predict frame).

    The algebra runs over the live state indices only: the rows of the
    covariance that are not identically zero.  A dead row gets a zero gain
    and stays zero, so this is exact.  With a static field (no field
    process) only the 8 homography rows are live; with a field process
    every row is.

    Raises SingularInnovation when the innovation covariance is not finite,
    not positive definite, or has condition number above max_condition
    (callers skip the frame), and NumericalDegeneracy from the Jacobian.
    """
    active_idx = np.asarray(active_idx, dtype=int)
    if active_idx.size == 0:
        return state
    n = state.n
    if kp_state.n != n:
        raise DimensionMismatch(f"keypoint state has {kp_state.n} keypoints, EKF has {n}")
    if not np.all(kp_state.measured_ever[active_idx]):
        raise ValueError("active keypoint was never measured; it has no estimate to fuse")

    z = kp_state.keypoint_means()[active_idx].ravel()
    R = np.zeros((z.size, z.size))
    _add_diagonal_blocks(R, kp_state.cov[active_idx])

    live = np.flatnonzero(state.cov.any(axis=1))
    P = state.cov[np.ix_(live, live)]
    J = measurement_jacobian(state, active_idx, eps=eps)[:, live]
    pred = predict_measurements(state, active_idx, eps=eps).ravel()
    JP = J @ P
    S = JP @ J.T + R
    S = 0.5 * (S + S.T)

    if not np.all(np.isfinite(S)):
        raise SingularInnovation("innovation covariance is not finite")
    try:
        eig = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError:
        raise SingularInnovation("innovation eigenvalues did not converge") from None
    if not eig[0] > 0.0:
        raise SingularInnovation("innovation covariance is not positive definite")
    cond = eig[-1] / eig[0]
    if not cond <= max_condition:
        raise SingularInnovation(f"innovation condition number {cond:.3e} exceeds {max_condition:.1e}")

    K = np.linalg.solve(S, JP).T
    mean = state.stacked_mean()
    mean[live] += K @ (z - pred)
    A = np.eye(live.size) - K @ J
    cov_live = A @ P @ A.T + K @ R @ K.T
    cov = np.zeros_like(state.cov)
    cov[np.ix_(live, live)] = 0.5 * (cov_live + cov_live.T)
    return HomographyFilterState(field_mean=mean[:2 * n], h_mean=mean[2 * n:], cov=cov)
