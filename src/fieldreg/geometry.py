"""Projective primitives: homogeneous points, homographies, DLT/RANSAC fitting, convex clipping.

Every homography in this package is a 3x3 float matrix normalized so its
bottom-right entry is exactly 1.  The 8 free entries travel as a flat vector
in column-stacked order (h11, h21, h31, h12, h22, h32, h13, h23).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    NoConsensus,
    PointAtInfinity,
    SingularMatrix,
)

# Homogeneous scale below which a point counts as at infinity, and determinant
# magnitude below which a 3x3 map counts as singular.
EPS_T = 1e-12
EPS_DET = 1e-12
DLT_RANK_RTOL = 1e-9  # least ratio s[7] / s[0] of a full-rank DLT system

RANSAC_INLIER_THRESHOLD_PX = 3.0
RANSAC_MAX_ITERS = 2000
RANSAC_CONFIDENCE = 0.99


def normalize_homogeneous(point):
    """Euclidean image (x/t, y/t) of a homogeneous vector (x, y, t).

    Raises PointAtInfinity when |t| <= EPS_T.
    """
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"expected a homogeneous (x, y, t) vector, got shape {p.shape}")
    t = p[2]
    if abs(t) <= EPS_T:
        raise PointAtInfinity(f"homogeneous scale {t} has magnitude <= {EPS_T}")
    return p[:2] / t


def apply_homography(H, points):
    """Map Euclidean point(s) through H and renormalize.

    points may be a single (2,) point or an (N, 2) array; the result has the
    same shape.  Raises PointAtInfinity if any mapped point has |t| <= EPS_T.
    """
    H = np.asarray(H, dtype=float)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    P = np.atleast_2d(pts)
    hom = P @ H[:, :2].T + H[:, 2]
    t = hom[:, 2]
    if np.any(np.abs(t) <= EPS_T):
        raise PointAtInfinity("a mapped point lies at projective infinity")
    out = hom[:, :2] / t[:, None]
    return out[0] if single else out


def homography_denominators(H, points):
    """Projective denominator h31*x + h32*y + h33 for each point (no exception)."""
    H = np.asarray(H, dtype=float)
    P = np.atleast_2d(np.asarray(points, dtype=float))
    return P @ H[2, :2] + H[2, 2]


def normalize_homography(H):
    """Rescale H so the bottom-right entry is exactly 1."""
    H = np.asarray(H, dtype=float)
    if abs(H[2, 2]) <= EPS_T:
        raise SingularMatrix("bottom-right entry too close to zero to normalize")
    return H / H[2, 2]


def invert_homography(H):
    """Inverse homography, renormalized to h33 = 1.

    Closed-form cofactor inverse in Python floats, evaluated in a fixed order,
    so the result is the same whichever LAPACK/BLAS kernels NumPy uses.
    Raises SingularMatrix when |det| is at most EPS_DET, when the inverse's
    h33 is at most EPS_T relative to it, or when either is NaN.
    """
    return np.array(invert_rows(np.asarray(H, dtype=float).tolist()))


def invert_rows(rows):
    """invert_homography on a 3x3 nested list of floats; returns one."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    c11, c12, c13 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c11 + b * c12 + c * c13
    # negated tests, so that a NaN fails them too: the divisions below then
    # never meet a zero
    if not abs(det) > EPS_DET:
        raise SingularMatrix(f"|det| = {abs(det):.3e} <= {EPS_DET}")
    c33 = a * e - b * d
    if not abs(c33 / det) > EPS_T:
        raise SingularMatrix("inverse cannot be normalized to h33 = 1")
    # The adjugate (transposed cofactors) scaled by its own bottom-right
    # entry: the determinant cancels, and that entry comes out exactly 1.
    adj = [[c11, c * h - b * i, b * f - c * e],
           [c12, a * i - c * g, c * d - a * f],
           [c13, b * g - a * h, c33]]
    return [[v / c33 for v in row] for row in adj]


def homography_params(H):
    """The 8 free parameters in column-stacked order; assumes h33 = 1."""
    return np.asarray(H, dtype=float).ravel(order="F")[:8].copy()


def homography_from_params(params):
    """Inverse of homography_params: rebuild the 3x3 matrix with h33 = 1."""
    p = np.asarray(params, dtype=float)
    if p.shape != (8,):
        raise ValueError(f"expected 8 parameters, got shape {p.shape}")
    return np.ascontiguousarray(np.append(p, 1.0).reshape(3, 3, order="F"))


def _conditioning_transform(pts):
    # Hartley normalization: centroid to origin, mean distance sqrt(2).
    c = pts.mean(axis=0)
    d = np.sqrt(((pts - c) ** 2).sum(axis=1)).mean()
    if d <= 0.0:
        raise DegenerateConfiguration("all points coincide")
    s = np.sqrt(2.0) / d
    T = np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])
    return (pts - c) * s, T


def dlt_homography(src, dst):
    """Least-squares homography with src mapped onto dst (direct linear transform).

    Both inputs are (M, 2) with M >= 4.  Solved in Hartley-normalized
    coordinates via the SVD of the stacked 2M x 9 constraint matrix; the
    result is denormalized and scaled to h33 = 1.

    Raises InsufficientPoints for M < 4 and DegenerateConfiguration when the
    constraints do not determine 8 degrees of freedom (e.g. three of four
    source points collinear) or the fitted map has h33 ~ 0.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ValueError(f"need matching (M, 2) arrays, got {src.shape} and {dst.shape}")
    m = src.shape[0]
    if m < 4:
        raise InsufficientPoints(f"need at least 4 correspondences, got {m}")

    sn, Ts = _conditioning_transform(src)
    dn, Td = _conditioning_transform(dst)

    A = np.zeros((2 * m, 9))
    x, y = sn[:, 0], sn[:, 1]
    u, v = dn[:, 0], dn[:, 1]
    A[0::2, 0] = x
    A[0::2, 1] = y
    A[0::2, 2] = 1.0
    A[0::2, 6] = -u * x
    A[0::2, 7] = -u * y
    A[0::2, 8] = -u
    A[1::2, 3] = x
    A[1::2, 4] = y
    A[1::2, 5] = 1.0
    A[1::2, 6] = -v * x
    A[1::2, 7] = -v * y
    A[1::2, 8] = -v

    _, s, Vt = np.linalg.svd(A)
    # Eight singular values for M = 4, nine for M > 4; index 7 must be solidly
    # nonzero either way or the solution direction is not unique.
    if s[7] <= DLT_RANK_RTOL * s[0]:
        raise DegenerateConfiguration("correspondence system is rank deficient")
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Td) @ Hn @ Ts
    if abs(H[2, 2]) <= EPS_T:
        raise DegenerateConfiguration("fitted map cannot be normalized to h33 = 1")
    return H / H[2, 2]


def reprojection_distances(H, src, dst):
    """Distances |H(src_i) - dst_i|; inf where src_i maps to infinity."""
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    hom = src @ np.asarray(H, dtype=float)[:, :2].T + H[:, 2]
    t = hom[:, 2]
    out = np.full(src.shape[0], np.inf)
    ok = np.abs(t) > EPS_T
    proj = hom[ok, :2] / t[ok, None]
    out[ok] = np.sqrt(((proj - dst[ok]) ** 2).sum(axis=1))
    return out


def check_seed(seed):
    """ValueError naming seed unless it is at least 0, as NumPy's generators need."""
    if not seed >= 0:
        raise ValueError(f"seed must be at least 0, got {seed}")


@dataclass(frozen=True)
class RansacParams:
    """Knobs for robust homography fitting."""

    inlier_threshold_px: float = RANSAC_INLIER_THRESHOLD_PX
    max_iters: int = RANSAC_MAX_ITERS
    seed: int = 0
    confidence: float = RANSAC_CONFIDENCE

    def __post_init__(self):
        # NaN would count no inliers, and a negative value acts as its
        # magnitude once squared
        t = self.inlier_threshold_px
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError(f"inlier_threshold_px must be a finite number above 0, got {t}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        check_seed(self.seed)
        # the adaptive stop takes log(1 - confidence)
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be strictly between 0 and 1, got {self.confidence}")


def _minimal_homographies(src4, dst4):
    """Batched exact 4-point homography fits with h33 pinned to 1.

    src4 and dst4 are (B, 4, 2) sample stacks.  Returns ((B, 3, 3)
    candidates, (B,) validity): a sample whose linear system is singular --
    a degenerate configuration -- comes back invalid with an identity
    placeholder.  Precision only has to support inlier counting; the caller
    refits the winner with the full DLT.

    Exactly singular samples are common: template keypoints lie on pitch
    lines, so many draws hold three collinear points.  The batched
    determinant (the same LU factorization the solve runs) screens them out,
    so the rest still go through one batched solve.
    """
    n = src4.shape[0]
    x, y = src4[..., 0], src4[..., 1]
    u, v = dst4[..., 0], dst4[..., 1]
    A = np.zeros((n, 8, 8))
    A[:, :4, 0], A[:, :4, 1], A[:, :4, 2] = x, y, 1.0
    A[:, 4:, 3], A[:, 4:, 4], A[:, 4:, 5] = x, y, 1.0
    A[:, :4, 6], A[:, :4, 7] = -u * x, -u * y
    A[:, 4:, 6], A[:, 4:, 7] = -v * x, -v * y
    rhs = np.concatenate([u, v], axis=1)
    valid = np.linalg.det(A) != 0.0
    h = np.zeros((n, 8))
    try:
        h[valid] = np.linalg.solve(A[valid], rhs[valid, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # a member the determinant passed still hit a zero pivot: redo the
        # survivors one by one, marking the culprits
        for i in np.flatnonzero(valid):
            try:
                h[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                valid[i] = False
    valid &= np.isfinite(h).all(axis=1)
    H = np.ones((n, 9))
    H[:, :8] = h
    H = H.reshape(n, 3, 3)
    H[~valid] = np.eye(3)
    return H, valid


def ransac_homography(src, dst, inlier_threshold_px=RANSAC_INLIER_THRESHOLD_PX,
                      max_iters=RANSAC_MAX_ITERS, rng_seed=0, confidence=RANSAC_CONFIDENCE):
    """Robust homography from correspondences with >= some outliers.

    Minimal 4-point hypotheses evaluated in vectorized chunks, one-sided
    reprojection distance (|H(src) - dst|) under inlier_threshold_px,
    adaptive iteration count for the given consensus confidence, then a final
    DLT refit over the best consensus set.  Returns (H, inlier_mask) with the
    mask recomputed from the refit model.  Deterministic for a given seed:
    sampling uses the counter-based Philox generator.

    Raises InsufficientPoints (< 4 pairs) and NoConsensus (no hypothesis
    reached 4 inliers).
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ValueError(f"need matching (M, 2) arrays, got {src.shape} and {dst.shape}")
    m = src.shape[0]
    if m < 4:
        raise InsufficientPoints(f"need at least 4 correspondences, got {m}")

    rng = np.random.Generator(np.random.Philox(rng_seed))
    best_count = 0
    best_mask = None
    best_H = None
    needed = max_iters
    done = 0
    chunk = 64
    thr2 = inlier_threshold_px ** 2
    src_h = np.column_stack([src, np.ones(m)])
    while done < min(max_iters, needed):
        b = min(chunk, min(max_iters, needed) - done)
        chunk = 512
        keys = rng.random((b, m))
        samples = np.argpartition(keys, 3, axis=1)[:, :4]
        cand, valid = _minimal_homographies(src[samples], dst[samples])
        hom = np.matmul(src_h, cand.transpose(0, 2, 1))
        t = hom[..., 2]
        front = np.abs(t) > EPS_T
        t = np.where(front, t, 1.0)
        dx = hom[..., 0] / t - dst[:, 0]
        dy = hom[..., 1] / t - dst[:, 1]
        inliers = front & (dx * dx + dy * dy < thr2) & valid[:, None]
        counts = inliers.sum(axis=1)
        done += b
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_mask = inliers[top]
            best_H = cand[top]
            w = best_count / m
            if w >= 1.0:
                break
            # Iterations needed so that P(at least one all-inlier sample) >= confidence.
            denom = np.log1p(-(w ** 4))
            if denom < 0.0:
                needed = int(np.ceil(np.log(1.0 - confidence) / denom))

    if best_count < 4 or best_H is None:
        raise NoConsensus(f"best consensus has {best_count} inliers (need >= 4)")

    try:
        refined = dlt_homography(src[best_mask], dst[best_mask])
    except DegenerateConfiguration:
        return best_H, best_mask
    dist = reprojection_distances(refined, src, dst)
    mask = dist < inlier_threshold_px
    if int(mask.sum()) < 4:
        return best_H, best_mask
    return refined, mask


# ---------------------------------------------------------------------------
# Convex polygons.  Vertices are lists of (x, y) Python-float pairs; canonical
# winding is counter-clockwise in a y-up sense (positive shoelace sum).  A
# polygon has at most a handful of vertices, so plain float arithmetic beats
# NumPy's per-call overhead; it rounds exactly as NumPy's element-wise ufuncs
# do, and every operation runs in a fixed order.


def signed_area(vertices):
    """Shoelace area, positive for counter-clockwise vertices; 0.0 below 3.

    The correctly rounded sum (math.fsum) of the rounded cross terms, taken
    in vertex order, so the result does not depend on a BLAS build.
    """
    if len(vertices) < 3:
        return 0.0
    nxt = [*vertices[1:], vertices[0]]
    return 0.5 * math.fsum([t for (x0, y0), (x1, y1) in zip(vertices, nxt)
                            for t in (x0 * y1, -y0 * x1)])


def polygon_area(vertices):
    """Absolute shoelace area; 0.0 for fewer than 3 vertices."""
    return abs(signed_area(vertices))


def ensure_ccw(vertices):
    """Same polygon as a new list, reversed if its orientation is negative."""
    v = list(vertices)
    if signed_area(v) < 0.0:
        v.reverse()
    return v


def convex_polygon(vertices):
    """Validate and canonicalize a strictly convex polygon to CCW order.

    Raises ValueError on fewer than 3 vertices, non-finite coordinates, or
    any non-left turn (collinear runs, zero area and bowties all fail).
    """
    if len(vertices) < 3:
        raise ValueError(f"expected at least 3 vertices, got {len(vertices)}")
    if not all(math.isfinite(c) for p in vertices for c in p):
        raise ValueError("non-finite vertex coordinate")
    v = ensure_ccw(vertices)
    # cross product of each edge with the next one
    (ax, ay), (bx, by) = v[-2], v[-1]
    ex, ey = bx - ax, by - ay
    for cx, cy in v:
        fx, fy = cx - bx, cy - by
        if not ex * fy - ey * fx > 0.0:
            raise ValueError("polygon is not strictly convex")
        bx, by, ex, ey = cx, cy, fx, fy
    return v


def clip_polygon(subject, clip):
    """Sutherland-Hodgman intersection of two convex polygons.

    Both inputs are vertex lists in any winding; the result is the
    intersection's vertices as a CCW list of (x, y) tuples, possibly empty.
    Vertices on a clip edge count as inside.
    """
    out = [tuple(p) for p in ensure_ccw(subject)]
    cl = ensure_ccw(clip)
    for (ax, ay), (bx, by) in zip(cl, cl[1:] + cl[:1]):
        if not out:
            break
        ex, ey = bx - ax, by - ay
        cur = out
        out = []
        qx, qy = cur[-1]
        dq = ex * (qy - ay) - ey * (qx - ax)
        for p in cur:
            px, py = p
            dp = ex * (py - ay) - ey * (px - ax)
            if (dp >= 0.0) != (dq >= 0.0):
                # Intersection of segment q-p with the clip line through a-b.
                t = dq / (dq - dp)
                out.append((qx + t * (px - qx), qy + t * (py - qy)))
            if dp >= 0.0:
                out.append(p)
            qx, qy, dq = px, py, dp
    return out
