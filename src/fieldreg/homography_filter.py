"""Extended Kalman filter over the homography of a static field template.

State is h, the 8 column-stacked free homography parameters (h33 fixed at
1), with its 8x8 covariance, and nothing else: the field points are the
template's exact coordinates, passed to each step that projects them, and
the noise is the CovarianceBank's init_homography and homography_process,
read where they are used.  The predict step applies the global
AffineSimilarity to the homography, exactly: the mean goes through the 3x3
product A H, whose last-row structure leaves (h31, h32) bitwise unchanged.
The update step treats the first-stage filter's posterior keypoint means as
the measurement and its posterior covariance sub-block as the measurement
noise, so the two stages stay probabilistically coupled.

A caller's HomographyFilterState is checked when it is built.  The states
the steps return are built by _built_state, without those checks: each step
makes new float64 arrays of the checked shapes, so the checks could only
repeat themselves, and on small K they cost as much as the arithmetic.
"""

from dataclasses import dataclass

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
_I8 = np.eye(8)


@dataclass(frozen=True)
class HomographyFilterState:
    """Homography parameters and their 8x8 covariance."""

    h_mean: np.ndarray      # (8,) column-stacked homography parameters
    cov: np.ndarray         # (8, 8) homography covariance

    def __post_init__(self):
        for name in ("h_mean", "cov"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.h_mean.shape != (8,) or self.cov.shape != (8, 8):
            raise DimensionMismatch(
                f"inconsistent state shapes: h {self.h_mean.shape}, cov {self.cov.shape}")


def _built_state(h_mean, cov):
    """A HomographyFilterState over a new (8,) mean and (8, 8) covariance of
    float64, made without __post_init__'s conversions and checks."""
    state = object.__new__(HomographyFilterState)
    state.__dict__.update(h_mean=h_mean, cov=cov)
    return state


def ekf_init(frame, template, bank, ransac=RansacParams()):
    """Initialize from one frame: robust homography fit against the template.

    frame.ids are canonical template indices; needs >= 4 observations.  The
    homography starts at the RANSAC estimate with the bank's init_homography
    covariance.

    Raises InsufficientPoints and DegenerateConfiguration (which also covers
    a failed RANSAC consensus).
    """
    if frame.k < 4:
        raise InsufficientPoints(f"initialization needs >= 4 measurements, got {frame.k}")
    if frame.ids.max() >= template.n:
        raise UnknownKeypointId(
            f"keypoint index {frame.ids.max()} out of range for {template.n} keypoints")
    try:
        H0, _ = ransac_homography(template.positions[frame.ids], frame.positions, ransac)
    except NoConsensus as e:
        raise DegenerateConfiguration(f"no RANSAC consensus at init: {e}") from e

    return HomographyFilterState(h_mean=homography_params(H0), cov=bank.init_homography.copy())


def _transition_matrix(A3):
    # Exact linearization of h -> vec8(A H), with A3 the motion's 3x3 matrix:
    # the affine map acts per column.
    F = np.zeros((8, 8))
    F[0:3, 0:3] = A3
    F[3:6, 3:6] = A3
    F[6:8, 6:8] = A3[:2, :2]
    return F


def ekf_predict(state, motion, bank):
    """Propagate the homography through H <- A H.

    The homography mean is computed as the literal 3x3 product, so the
    predicted (h31, h32) equal their priors bitwise (A's last row is exactly
    (0, 0, 1)).  The covariance becomes F P F^T + Q, with F the 8x8
    transition and Q the bank's homography_process, and is symmetrized.
    """
    if not isinstance(motion, AffineSimilarity):
        raise TypeError(f"motion must be an AffineSimilarity, got {type(motion)!r}")
    A3 = motion.as_matrix()
    H_new = A3 @ homography_from_params(state.h_mean)
    F = _transition_matrix(A3)
    cov = F @ state.cov @ F.T
    cov += bank.homography_process
    return _built_state(homography_params(H_new), 0.5 * (cov + cov.T))


def _projection_terms(state, active_idx, template):
    """X, Y, D (K,) and the projections uv (2, K) of the active keypoints."""
    h = state.h_mean
    pts = template.positions[active_idx]
    X, Y = pts[:, 0], pts[:, 1]
    D = h[2] * X + h[5] * Y + 1.0
    if (np.abs(D) <= EPS_T).any():
        raise NumericalDegeneracy("projective denominator vanished at a field keypoint")
    # rows (h11, h21), (h12, h22), (h13, h23): u and v in one pass
    uv = (h[0:2, None] * X + h[3:5, None] * Y + h[6:8, None]) / D
    return X, Y, D, uv


def _check_active(active_idx, n):
    if active_idx.size and (active_idx.min() < 0 or active_idx.max() >= n):
        raise UnknownKeypointId(f"active index out of range for {n} keypoints")


def _jacobian_terms(state, active_idx, template):
    """Projections (K, 2) and the homography Jacobian (2K, 8), in one pass."""
    h = state.h_mean
    X, Y, D, uv = _projection_terms(state, active_idx, template)
    # row pairs (u, v) per keypoint; columns follow measurement_jacobian
    Jh = np.zeros((active_idx.size, 2, 8))
    Jh[:, 0, 0] = Jh[:, 1, 1] = X / D
    Jh[:, 0, 3] = Jh[:, 1, 4] = Y / D
    Jh[:, 0, 6] = Jh[:, 1, 7] = 1.0 / D
    Jh[:, :, 2] = (-uv * X / D).T
    Jh[:, :, 5] = (-uv * Y / D).T
    return uv.T, Jh.reshape(2 * active_idx.size, 8)


def measurement_jacobian(state, active_idx, template):
    """Jacobian (2K, 8) of the projections w.r.t. the homography parameters.

    Rows alternate u, v per active template keypoint; columns follow h_mean's
    column-stacked order.  With D = h31 X + h32 Y + 1:

        du/d(h11, h12, h13) = (X, Y, 1)/D         (v-row: h21, h22, h23)
        du/d(h31, h32) = -(u X, u Y)/D            (v-row: -(v X, v Y)/D)

    Raises NumericalDegeneracy when a denominator magnitude is <= EPS_T.
    """
    active_idx = np.asarray(active_idx, dtype=int)
    _check_active(active_idx, template.n)
    return _jacobian_terms(state, active_idx, template)[1]


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


def _exact_gate(P, J, R_blocks, max_condition):
    """Raise SingularInnovation unless eigvalsh of S = J P J^T + R passes the gate."""
    S = J @ P @ J.T
    j = np.arange(R_blocks.shape[0])
    S.reshape(j.size, 2, j.size, 2)[j, :, j, :] += R_blocks
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


def _information_update(P, J, R_blocks, nu, max_condition):
    """(dx, P+) in information form; raises SingularInnovation to skip the update.

    With any factor P = C C^T (Cholesky, or V sqrt(max(w, 0)) from P's
    eigenpairs when P is singular) and R whitened per block (R_j = L_j L_j^T,
    W = L^-1 J, w = L^-1 nu): T = I + (W C)^T (W C) has eigenvalues >= 1,
    and with T = L_T L_T^T and B = C L_T^-T the posterior is P+ = B B^T and
    the mean moves by P+ J^T R^-1 nu = B L_T^-1 (W C)^T w.  Everything is
    L x L.  The gate passes when hi/lo, widened by the rounding of an
    eigvalsh of S, is within max_condition; then the exact eigenvalue ratio
    is too.  Otherwise _exact_gate decides.  Non-finite input and an R block
    that is not positive definite raise as well.
    """
    if not (np.isfinite(R_blocks).all() and np.isfinite(J).all() and np.isfinite(P).all()):
        raise SingularInnovation("innovation covariance is not finite")
    a, c = R_blocks[:, 0, 0], R_blocks[:, 1, 1]
    b = 0.5 * (R_blocks[:, 0, 1] + R_blocks[:, 1, 0])
    det = a * c - b * b
    if not (np.minimum(a, det) > 0.0).all():
        raise SingularInnovation("measurement covariance block is not positive definite")
    try:
        C = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(P)
        C = V * np.sqrt(np.maximum(w, 0.0))
    JC = J @ C
    lo, hi = _innovation_bounds(JC, a, b, c, det)
    ratio = hi / lo
    if not ratio * (1.0 + 1e-6 + 16 * nu.size * _EPS * ratio) <= max_condition:
        _exact_gate(P, J, R_blocks, max_condition)

    # whiten [J C | nu] by the closed-form Cholesky factor of each block, in
    # place: Z holds every block's u row, then every block's v row
    l00 = np.sqrt(a)[:, None]
    l10 = b[:, None] / l00
    l11 = np.sqrt(det / a)[:, None]
    L = C.shape[0]
    Z = np.empty((2, a.size, L + 1))
    Z[:, :, :L] = JC.reshape(-1, 2, L).transpose(1, 0, 2)
    Z[:, :, L] = nu.reshape(-1, 2).T
    Zu, Zv = Z
    Zu /= l00
    Zv -= l10 * Zu
    Zv /= l11
    Z = Z.reshape(-1, L + 1)
    M = Z.T @ Z                         # [[(W C)^T W C, (W C)^T w], [., w^T w]]
    try:
        L_T = np.linalg.cholesky(M[:L, :L] + _I8)
    except np.linalg.LinAlgError:     # only on overflow: T >= I
        raise SingularInnovation("information matrix is not finite") from None
    rhs = np.empty((L, L + 1))          # [C^T | (W C)^T w]
    rhs[:, :L] = C.T
    rhs[:, L] = M[:L, L]
    Y = np.linalg.solve(L_T, rhs)
    Bt = Y[:, :-1]                      # B^T = L_T^-1 C^T
    cov = Bt.T @ Bt
    return Bt.T @ Y[:, -1], 0.5 * (cov + cov.T)


def ekf_update(state, kp_state, active_idx, template, max_condition=MAX_INNOVATION_CONDITION):
    """Correct the state against the first-stage posterior.

    active_idx indexes the template's keypoints.  The measurement for each
    active keypoint is the first-stage filter's posterior mean, with that
    filter's posterior covariance block as the measurement noise.  An empty
    active set returns the state unchanged (pure-predict frame).

    The update runs in information form, in the state dimension 8 rather
    than in the 2K of the measurement: P+ = (P^-1 + J^T R^-1 J)^-1 through
    a factor C of P (Cholesky, or from its eigenpairs when P is singular)
    and the Cholesky factor of I + C^T J^T R^-1 J C.  It is skipped exactly
    when the eigenvalue ratio of S = J P J^T + R exceeds max_condition; a
    Weyl bound decides that without S, which is formed only when the bound
    cannot.

    Raises SingularInnovation when an input is not finite, an R block is not
    positive definite, or the innovation covariance is not positive definite
    or has condition number above max_condition (callers skip the frame),
    UnknownKeypointId for an active index outside the template, and
    NumericalDegeneracy from the Jacobian.
    """
    active_idx = np.asarray(active_idx, dtype=int)
    if active_idx.size == 0:
        return state
    n = template.n
    if kp_state.n != n:
        raise DimensionMismatch(f"keypoint state has {kp_state.n} keypoints, template has {n}")
    _check_active(active_idx, n)
    if not kp_state.measured_ever[active_idx].all():
        raise ValueError("active keypoint was never measured; it has no estimate to fuse")

    pred, J = _jacobian_terms(state, active_idx, template)
    nu = (kp_state.keypoint_means()[active_idx] - pred).ravel()
    R_blocks = kp_state.cov[active_idx]

    dx, cov = _information_update(state.cov, J, R_blocks, nu, max_condition)
    return _built_state(state.h_mean + dx, cov)
