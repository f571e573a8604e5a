"""Global inter-frame camera motion as a 4-DOF similarity (rotation, scale, translation).

The transform keeps its last matrix row at exactly (0, 0, 1), which is what
lets it commute with homogeneous normalization and drive the homography
recursion H_t = A_t H_{t-1} without re-projection error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, InsufficientPoints, NoConsensus
from .geometry import RANSAC_CONFIDENCE, ransac_trials

# estimate_global_motion's MAD cut, RANSAC inlier threshold and iteration cap
MAD_MULTIPLIER = 3.0
MOTION_INLIER_THRESHOLD_PX = 1.5
MOTION_MAX_ITERS = 500
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class AffineSimilarity:
    """x' = s R(theta) x + t, stored as a = s cos(theta), b = s sin(theta), t = (tx, ty)."""

    a: float
    b: float
    tx: float
    ty: float

    def __post_init__(self):
        vals = (self.a, self.b, self.tx, self.ty)
        if not all(np.isfinite(vals)):
            raise ValueError(f"non-finite similarity parameters {vals}")
        if self.a * self.a + self.b * self.b <= 0.0:
            raise ValueError("zero scale similarity is not invertible")

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_params(cls, angle=0.0, scale=1.0, translation=(0.0, 0.0)):
        return cls(scale * np.cos(angle), scale * np.sin(angle),
                   float(translation[0]), float(translation[1]))

    @property
    def linear(self):
        return np.array([[self.a, -self.b], [self.b, self.a]])

    @property
    def translation(self):
        return np.array([self.tx, self.ty])

    def as_matrix(self):
        """3x3 homogeneous form; the last row is exactly (0, 0, 1)."""
        return np.array([
            [self.a, -self.b, self.tx],
            [self.b, self.a, self.ty],
            [0.0, 0.0, 1.0],
        ])

    def transform(self, points):
        """Apply to a (2,) point or (N, 2) array."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        P = np.atleast_2d(pts)
        out = P @ self.linear.T + self.translation
        return out[0] if single else out

    def params(self):
        return np.array([self.a, self.b, self.tx, self.ty])


def _from_centred_sums(m, q, dot, cross, pm, cm):
    """(a, b, tx, ty) from the centred sums of M pairs, or None if degenerate:
    the source points do not determine a similarity, or the fit has zero scale.

    With p' = p - mean(p) and c' = c - mean(c), q = sum |p'|^2, dot =
    sum p'.c' and cross = sum p' x c', the least-squares similarity is
    a = dot / q, b = cross / q and t = mean(c) - [[a, -b], [b, a]] mean(p)
    (Umeyama, IEEE TPAMI 1991, without the scale constraint).

    The degeneracy test is the rank test of the stacked least-squares system
    [x -y 1 0; y x 0 1] [a b tx ty]^T = [x' y'], as a 2M x 4 solve with the
    default cut-off of eps * 2M would apply it.  That system's squared
    singular values are the double roots of (S2 - l)(M - l) = M^2 |mean(p)|^2,
    S2 = sum |p|^2, so sigma_min / sigma_max = sqrt(M q) / l_max.
    """
    pmx, pmy = pm
    pm2 = pmx * pmx + pmy * pmy
    s2 = q + m * pm2
    l_max = 0.5 * (s2 + m + math.sqrt((s2 - m) ** 2 + 4.0 * m * m * pm2))
    if not math.sqrt(m * q) > 2 * m * _EPS * l_max:
        return None
    a = dot / q
    b = cross / q
    if a * a + b * b <= 0.0:
        return None
    return a, b, cm[0] - (a * pmx - b * pmy), cm[1] - (b * pmx + a * pmy)


def _similarity(params):
    if params is None:
        raise DegenerateConfiguration(
            "source points do not determine a similarity, or the fit has zero scale")
    return AffineSimilarity(*params)


def _check_pairs(prev_pts, curr_pts):
    prev_pts = np.asarray(prev_pts, dtype=float)
    curr_pts = np.asarray(curr_pts, dtype=float)
    if prev_pts.ndim != 2 or prev_pts.shape[1] != 2 or prev_pts.shape != curr_pts.shape:
        raise ValueError(
            f"need matching (M, 2) arrays, got {prev_pts.shape} and {curr_pts.shape}")
    m = prev_pts.shape[0]
    if m < 2:
        raise InsufficientPoints(f"need at least 2 pairs, got {m}")
    return prev_pts, curr_pts


def _fit(pc):
    """Least-squares similarity parameters over the (M, 4) rows (x, y, x', y'), or None."""
    m = pc.shape[0]
    mean = pc.sum(axis=0) / m
    d = pc - mean
    (sxx, sxy, sxu, sxv), (_, syy, syu, syv), _, _ = (d.T @ d).tolist()
    mx, my, mu, mv = mean.tolist()
    return _from_centred_sums(m, sxx + syy, sxu + syv, sxv - syu, (mx, my), (mu, mv))


def _fit_pair(r1, r2):
    """_fit over two rows (x, y, x', y'), in scalar arithmetic."""
    x1, y1, u1, v1 = r1
    x2, y2, u2, v2 = r2
    dx, dy, ex, ey = x2 - x1, y2 - y1, u2 - u1, v2 - v1
    # centred on the midpoints, each sum is half of its difference form
    return _from_centred_sums(
        2, 0.5 * (dx * dx + dy * dy), 0.5 * (dx * ex + dy * ey), 0.5 * (dx * ey - dy * ex),
        (0.5 * (x1 + x2), 0.5 * (y1 + y2)), (0.5 * (u1 + u2), 0.5 * (v1 + v2)))


def _median(x):
    """np.median(x, axis=0), bit for bit, for finite x."""
    h = x.shape[0] // 2
    if x.shape[0] % 2:
        return np.partition(x, h, axis=0)[h]
    s = np.partition(x, (h - 1, h), axis=0)
    return (s[h - 1] + s[h]) / 2.0


def _residuals(params, p1, c):
    """Distances |A(p) - c| per pair, with p1 the (M, 3) rows (x, y, 1)."""
    a, b, tx, ty = params
    d = p1 @ np.array([[a, b], [-b, a], [tx, ty]]) - c
    d *= d
    return np.sqrt(d[:, 0] + d[:, 1])


def estimate_global_motion(prev_pts, curr_pts, rng_seed=0):
    """Robust global motion from (possibly contaminated) point correspondences.

    Two stages: (i) drop pairs whose displacement sits farther from the median
    displacement than MAD_MULTIPLIER times the median absolute deviation;
    (ii) RANSAC over 2-point similarity hypotheses, at most MOTION_MAX_ITERS
    of them, with inliers within MOTION_INLIER_THRESHOLD_PX and an adaptive
    stop at RANSAC_CONFIDENCE, then a final least-squares refit over the
    consensus.  Returns (AffineSimilarity, inlier_mask) with the mask in
    input order (MAD-discarded pairs are False).  Every fit is the closed
    form from centred sums.

    The pairs are sorted canonically before sampling, so the result does not
    depend on input order for a fixed seed.  Raises ValueError on non-finite
    points, InsufficientPoints and NoConsensus (callers typically fall back
    to identity and flag the frame).
    """
    prev_pts, curr_pts = _check_pairs(prev_pts, curr_pts)
    if not (np.isfinite(prev_pts).all() and np.isfinite(curr_pts).all()):
        raise ValueError("non-finite point coordinates")
    n = prev_pts.shape[0]

    order = np.lexsort((curr_pts[:, 1], curr_pts[:, 0], prev_pts[:, 1], prev_pts[:, 0]))
    p = prev_pts[order]
    c = curr_pts[order]

    disp = c - p
    med = _median(disp)
    r = np.sqrt(((disp - med) ** 2).sum(axis=1))
    thresh = MAD_MULTIPLIER * _median(r)
    if thresh <= 0.0:
        thresh = 1e-9  # all displacements identical up to noise below any MAD
    keep = r <= thresh
    kept_idx = np.flatnonzero(keep)
    if kept_idx.size < 2:
        kept_idx = np.arange(n)
        keep = np.ones(n, dtype=bool)

    pc = np.concatenate([p, c], axis=1)
    p1 = np.column_stack([p, np.ones(n)])
    kpc, kp1, kc = pc[kept_idx], p1[kept_idx], c[kept_idx]
    mk = kept_idx.size
    rng = np.random.Generator(np.random.Philox(rng_seed))
    best_count = 0
    best_inliers = None
    needed = MOTION_MAX_ITERS
    it = 0
    while it < needed:
        it += 1
        i, j = rng.choice(mk, size=2, replace=False)
        ri, rj = kpc[i].tolist(), kpc[j].tolist()
        if ri[:2] == rj[:2]:
            continue
        cand = _fit_pair(ri, rj)
        if cand is None:
            continue
        inl = _residuals(cand, kp1, kc) < MOTION_INLIER_THRESHOLD_PX
        count = int(inl.sum())
        if count > best_count:
            best_count = count
            best_inliers = inl
            needed = min(MOTION_MAX_ITERS, ransac_trials(count / mk, 2, RANSAC_CONFIDENCE))

    if best_count < 2 or best_inliers is None:
        raise NoConsensus(f"best consensus has {best_count} pairs (need >= 2)")

    params = _fit(kpc[best_inliers])
    model = _similarity(params)
    mask_sorted = keep & (_residuals(params, p1, c) < MOTION_INLIER_THRESHOLD_PX)

    mask = np.zeros(n, dtype=bool)
    mask[order] = mask_sorted
    return model, mask
