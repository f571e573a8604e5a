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
_EPS = np.finfo(float).eps


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
            if not np.all(np.isfinite(fp)):
                raise ValueError("non-finite entries in field_process")
            if fp.size and np.max(np.abs(fp[:, 0, 1] - fp[:, 1, 0])) > 1e-9:
                raise ValueError("field_process blocks must be symmetric")
            # exact symmetry keeps the field part of every predicted covariance
            # symmetric, so ekf_predict symmetrizes only the homography rows
            object.__setattr__(self, "field_process", 0.5 * (fp + fp.transpose(0, 2, 1)))

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
    the process noise is added.  Only those rows and columns can lose
    symmetry, so only they are symmetrized.
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
    sym = 0.5 * (cov[h] + cov[:, h].T)
    cov[h] = sym
    cov[:, h] = sym.T
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


def _check_active(active_idx, n):
    if active_idx.size and (active_idx.min() < 0 or active_idx.max() >= n):
        raise UnknownKeypointId(f"active index out of range for {n} keypoints")


def predict_measurements(state, active_idx, eps=EPS_T):
    """Projected pixel positions (K, 2) of the active field keypoints."""
    active_idx = np.asarray(active_idx, dtype=int)
    _check_active(active_idx, state.n)
    _, _, _, u, v = _projection_terms(state, active_idx, eps)
    return np.stack([u, v], axis=1)


def _jacobian_terms(state, active_idx, eps):
    """Projections (K, 2), homography columns (2K, 8) and field blocks (K, 2, 2).

    One pass over the active keypoints gives everything the update needs;
    measurement_jacobian spreads the same numbers over the full state.
    """
    h = state.h_mean
    X, Y, D, u, v = _projection_terms(state, active_idx, eps)
    k = active_idx.size
    Jf = np.empty((k, 2, 2))
    Jf[:, 0, 0] = (h[0] - u * h[2]) / D
    Jf[:, 0, 1] = (h[3] - u * h[5]) / D
    Jf[:, 1, 0] = (h[1] - v * h[2]) / D
    Jf[:, 1, 1] = (h[4] - v * h[5]) / D

    Jh = np.zeros((2 * k, 8))
    Jh[0::2, 0] = X / D
    Jh[0::2, 2] = -u * X / D
    Jh[0::2, 3] = Y / D
    Jh[0::2, 5] = -u * Y / D
    Jh[0::2, 6] = 1.0 / D
    Jh[1::2, 1] = X / D
    Jh[1::2, 2] = -v * X / D
    Jh[1::2, 4] = Y / D
    Jh[1::2, 5] = -v * Y / D
    Jh[1::2, 7] = 1.0 / D
    return np.stack([u, v], axis=1), Jh, Jf


def _full_jacobian(n, active_idx, Jh, Jf):
    k = active_idx.size
    J = np.zeros((2 * k, 2 * n + 8))
    J[:, 2 * n:] = Jh
    J[:, :2 * n].reshape(k, 2, n, 2)[np.arange(k), :, active_idx, :] = Jf
    return J


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
    _check_active(active_idx, state.n)
    _, Jh, Jf = _jacobian_terms(state, active_idx, eps)
    return _full_jacobian(state.n, active_idx, Jh, Jf)


def _innovation_bounds(JC, a, b, c, det):
    """(lo, hi) with lo <= lambda_min(S) and lambda_max(S) <= hi.

    S = J P J^T + R with P = C C^T, JC = J C, and R block-diagonal in
    positive definite 2x2 blocks [[a, b], [b, c]] of determinant det.  By
    Weyl's inequality lambda_min(S) >= lambda_min(R) and lambda_max(S) <=
    lambda_max(R) + lambda_max(J P J^T) <= lambda_max(R) + ||J C||_F^2; the
    extreme eigenvalues of R come from its blocks in closed form.
    """
    top = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    jc = JC.ravel()
    return (det / top).min(), top.max() + jc @ jc


def _information_update(P, J, R_blocks, nu, max_condition):
    """(dx, P+) in information form when the bounds certify the gate, else None.

    With P = C C^T and R whitened per block (R_j = L_j L_j^T, W = L^-1 J,
    w = L^-1 nu): T = I + (W C)^T (W C) has eigenvalues >= 1, and with
    T = L_T L_T^T and B = C L_T^-T the posterior is P+ = B B^T and the mean
    moves by P+ J^T R^-1 nu = B L_T^-1 (W C)^T w.  Everything is L x L.
    The gate passes when hi/lo, widened by the rounding of an eigvalsh of S,
    is within max_condition; then the exact eigenvalue ratio is too.  None
    when it does not, when an entry is not finite, when a block of R is not
    positive definite, or when P has no Cholesky factor.
    """
    if not (np.isfinite(R_blocks).all() and np.isfinite(J).all()
            and np.isfinite(P).all()):
        return None
    a, c = R_blocks[:, 0, 0], R_blocks[:, 1, 1]
    b = 0.5 * (R_blocks[:, 0, 1] + R_blocks[:, 1, 0])
    det = a * c - b * b
    if not (np.minimum(a, det) > 0.0).all():
        return None
    try:
        C = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None
    JC = J @ C
    lo, hi = _innovation_bounds(JC, a, b, c, det)
    ratio = hi / lo
    if not ratio * (1.0 + 1e-6 + 16 * nu.size * _EPS * ratio) <= max_condition:
        return None

    # whiten [J C | nu] by the closed-form Cholesky factor of each block
    l00 = np.sqrt(a)[:, None]
    l10 = b[:, None] / l00
    l11 = np.sqrt(det / a)[:, None]
    L = C.shape[0]
    Z = np.column_stack([JC, nu]).reshape(-1, 2, L + 1)
    Z0 = Z[:, 0] / l00
    Z = np.concatenate([Z0, (Z[:, 1] - l10 * Z0) / l11])
    M = Z.T @ Z                         # [[(W C)^T W C, (W C)^T w], [., w^T w]]
    try:
        L_T = np.linalg.cholesky(M[:L, :L] + np.eye(L))
    except np.linalg.LinAlgError:     # only on overflow: T >= I
        return None
    Y = np.linalg.solve(L_T, np.column_stack([C.T, M[:L, L]]))
    Bt = Y[:, :-1]                      # B^T = L_T^-1 C^T
    cov_live = Bt.T @ Bt
    return Bt.T @ Y[:, -1], 0.5 * (cov_live + cov_live.T)


def _exact_update(P, J, R_blocks, nu, max_condition):
    """(dx, P+) from the dense innovation covariance, gated by its eigenvalues."""
    R = np.zeros((nu.size, nu.size))
    _add_diagonal_blocks(R, R_blocks)
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
    A = np.eye(P.shape[0]) - K @ J
    cov_live = A @ P @ A.T + K @ R @ K.T
    return K @ nu, 0.5 * (cov_live + cov_live.T)


def ekf_update(state, kp_state, active_idx, max_condition=MAX_INNOVATION_CONDITION,
               eps=EPS_T):
    """Correct the joint state against the first-stage posterior.

    The measurement for each active keypoint is the first-stage filter's
    posterior mean, with that filter's posterior covariance block as the
    measurement noise.  An empty active set returns the state unchanged
    (pure-predict frame).

    The algebra runs over the live state indices only: the rows of the
    covariance that are not identically zero.  A dead row gets a zero gain
    and stays zero, so this is exact.  With a static field (no field
    process) only the 8 homography rows are live; with a field process
    every row is.

    The update runs in information form, in the live dimension L rather
    than in the 2K of the measurement: P+ = (P^-1 + J^T R^-1 J)^-1 through
    the Cholesky factors of P and of I + C^T J^T R^-1 J C, which is
    symmetric positive semidefinite by construction.  The condition gate is
    certified without forming S = J P J^T + R: Weyl's inequality bounds its
    extreme eigenvalues from the closed-form 2x2 eigenvalues of R and
    tr(J P J^T).  When the bound does not certify the gate (or an R block is
    not positive definite, an entry is not finite, or P has no Cholesky
    factor), the exact path runs instead: S, its eigvalsh gate and a
    Joseph-form update.  Either way an update is skipped exactly when the
    eigenvalue ratio of S exceeds max_condition.

    Raises SingularInnovation when the innovation covariance is not finite,
    not positive definite, or has condition number above max_condition
    (callers skip the frame), UnknownKeypointId for an active index outside
    the state, and NumericalDegeneracy from the Jacobian.
    """
    active_idx = np.asarray(active_idx, dtype=int)
    if active_idx.size == 0:
        return state
    n = state.n
    if kp_state.n != n:
        raise DimensionMismatch(f"keypoint state has {kp_state.n} keypoints, EKF has {n}")
    _check_active(active_idx, n)
    if not np.all(kp_state.measured_ever[active_idx]):
        raise ValueError("active keypoint was never measured; it has no estimate to fuse")

    pred, Jh, Jf = _jacobian_terms(state, active_idx, eps)
    nu = (kp_state.keypoint_means()[active_idx] - pred).ravel()
    R_blocks = kp_state.cov[active_idx]
    live = np.flatnonzero(state.cov.any(axis=1))
    live_block = np.ix_(live, live)
    P = state.cov[live_block]
    if live.size and live[0] < 2 * n:   # field rows are live too
        J = _full_jacobian(n, active_idx, Jh, Jf)[:, live]
    else:
        J = Jh[:, live - 2 * n]

    update = _information_update(P, J, R_blocks, nu, max_condition)
    if update is None:
        update = _exact_update(P, J, R_blocks, nu, max_condition)
    dx, cov_live = update
    mean = state.stacked_mean()
    mean[live] += dx
    cov = np.zeros_like(state.cov)
    cov[live_block] = cov_live
    return HomographyFilterState(field_mean=mean[:2 * n], h_mean=mean[2 * n:], cov=cov)
