"""Projective primitives: homogeneous points, homographies, DLT/RANSAC fitting, convex clipping.

Every homography in this package is a 3x3 float matrix normalized so its
bottom-right entry is exactly 1.  The 8 free entries travel as a flat vector
in column-stacked order (h11, h21, h31, h12, h22, h32, h13, h23).

Points go through a homography in one place, `project`, and RANSAC's
4-point hypotheses are closed form: both are element-wise arithmetic in a
fixed order, the same on every BLAS build.  Only the DLT refit uses LAPACK.
"""

import math
import numbers
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


def project(H, x, y):
    """(u, v, t): points x, y through H (3 rows of 3 numbers or arrays) and
    their homogeneous scales.  Images with t = 0 are not finite; callers test t."""
    (a, b, c), (d, e, f), (g, h, i) = H
    t = g * x + h * y + i
    with np.errstate(all="ignore"):
        return (a * x + b * y + c) / t, (d * x + e * y + f) / t, t


def apply_homography(H, points):
    """Map Euclidean point(s) through H and renormalize.

    points may be a single (2,) point or an (N, 2) array; the result has the
    same shape.  Raises PointAtInfinity if any mapped point has |t| <= EPS_T.
    """
    pts = np.asarray(points, dtype=float)
    u, v, t = project(np.asarray(H, dtype=float), *np.atleast_2d(pts).T)
    if np.any(np.abs(t) <= EPS_T):
        raise PointAtInfinity("a mapped point lies at projective infinity")
    out = np.column_stack([u, v])
    return out[0] if pts.ndim == 1 else out


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
    (a, b, c), _, _ = rows
    adj = _adjugate(rows)
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    # negated tests, so that a NaN fails them too: the divisions below then
    # never meet a zero
    if not abs(det) > EPS_DET:
        raise SingularMatrix(f"|det| = {abs(det):.3e} <= {EPS_DET}")
    c33 = adj[2][2]
    if not abs(c33 / det) > EPS_T:
        raise SingularMatrix("inverse cannot be normalized to h33 = 1")
    # The adjugate scaled by its own bottom-right entry: the determinant
    # cancels, and that entry comes out exactly 1.
    return [[v / c33 for v in row] for row in adj]


def _adjugate(rows):
    """Adjugate (transposed cofactors) of 3x3 nested floats or arrays."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return [[e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d]]


def compose_rows(left, right):
    """left o right for 3x3 nested floats or arrays, summed left to right."""
    cols = list(zip(*right))
    return [[l0 * r0 + l1 * r1 + l2 * r2 for r0, r1, r2 in cols] for l0, l1, l2 in left]


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

    Raises ValueError for non-finite coordinates, InsufficientPoints for
    M < 4 and DegenerateConfiguration when the constraints do not determine 8
    degrees of freedom (e.g. three of four source points collinear) or the
    fitted map has h33 ~ 0.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ValueError(f"need matching (M, 2) arrays, got {src.shape} and {dst.shape}")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ValueError("non-finite point coordinates")
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
    u, v, t = project(np.asarray(H, dtype=float), src[:, 0], src[:, 1])
    du, dv = u - dst[:, 0], v - dst[:, 1]
    with np.errstate(all="ignore"):
        return np.where(np.abs(t) > EPS_T, np.sqrt(du * du + dv * dv), np.inf)


def check_int(name, value, least):
    """A TypeError naming name unless value is an integer (a bool is not one),
    and a ValueError unless it is at least least.  A seed must be at least
    0, as NumPy's generators need."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if not value >= least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


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
        check_int("max_iters", self.max_iters, 1)
        check_int("seed", self.seed, 0)
        # the adaptive stop takes log(1 - confidence)
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be strictly between 0 and 1, got {self.confidence}")


def _square_to_quad(quads):
    """Heckbert's map of the unit square onto each (B, 4, 2) quad (Fundamentals
    of Texture Mapping and Image Warping, 1989, 2.2.3) as 3x3 rows of (B,)
    arrays, and flags for the invertible ones.  With p the corners and Dijk
    the doubled area of pi pj pk, its columns are D023 p1 - D123 p0,
    D012 p3 - D123 p0 and D123 p0; its determinant is the product of all four areas."""
    p = quads.transpose(2, 1, 0)
    u, v = p[:, [1, 2, 3, 0]] - p, p[:, [2, 3, 0, 1]] - p
    areas = u[0] * v[1] - u[1] * v[0]
    d012, d123, d023, _ = areas
    (x0, x1, _, x3), (y0, y1, _, y3) = p
    return ([[d023 * x1 - d123 * x0, d012 * x3 - d123 * x0, d123 * x0],
             [d023 * y1 - d123 * y0, d012 * y3 - d123 * y0, d123 * y0],
             [d023 - d123, d012 - d123, d123]], (areas != 0.0).all(axis=0))


def _draw_samples(rng, b, m):
    """(b, 4) samples of 4 distinct indices below m.  Rows are sorted: the
    order argpartition leaves depends on NumPy's SIMD build."""
    return np.sort(np.argpartition(rng.random((b, m)), 3, axis=1)[:, :4], axis=1)


def _minimal_homographies(src4, dst4):
    """((B, 3, 3) candidates with h33 = 1, (B,) validity) for the (B, 4, 2)
    sample stacks src4 and dst4: D adj(S), with S and D the unit square's
    maps onto the two quads.  A sample is invalid (identity placeholder) when
    three of its source or destination points are collinear, which is common
    on pitch lines, or its candidate is not finite.  The caller refits the
    winner with the full DLT.
    """
    (S, s_ok), (D, d_ok) = _square_to_quad(src4), _square_to_quad(dst4)
    with np.errstate(all="ignore"):
        H = np.array(compose_rows(D, _adjugate(S)))
        H = (H / H[2, 2]).transpose(2, 0, 1)
    valid = s_ok & d_ok & np.isfinite(H).all(axis=(1, 2))
    H[~valid] = np.eye(3)
    return H, valid


def _inlier_masks(cand, valid, src, dst, thr2):
    """(B, M) masks of the points each candidate maps within sqrt(thr2) of
    dst, in front of infinity; all False for an invalid candidate."""
    # points down, candidates across: the inner loops run over the batch
    u, v, t = project(cand.transpose(1, 2, 0), src[:, :1], src[:, 1:])
    du, dv = u - dst[:, :1], v - dst[:, 1:]
    return ((np.abs(t) > EPS_T) & (du * du + dv * dv < thr2) & valid).T


def ransac_trials(inlier_frac, sample_size, confidence):
    """Samples needed so that at least one holds only inliers with probability
    confidence: N = log(1 - p) / log(1 - w^s) (Fischler & Bolles, CACM 1981;
    Hartley & Zisserman, Multiple View Geometry, 4.7.1).  0 once every point
    is an inlier, inf when w^s rounds to 0."""
    if inlier_frac >= 1.0:
        return 0
    denom = np.log1p(-(inlier_frac ** sample_size))
    if denom < 0.0:
        return int(np.ceil(np.log(1.0 - confidence) / denom))
    return math.inf


def ransac_homography(src, dst, ransac=RansacParams()):
    """Robust homography from correspondences with >= some outliers.

    Minimal 4-point hypotheses evaluated in vectorized chunks, one-sided
    reprojection distance (|H(src) - dst|) under ransac.inlier_threshold_px,
    at most ransac.max_iters of them with an adaptive stop at
    ransac.confidence, then a final DLT refit over the best consensus set.
    Returns (H, inlier_mask) with the mask recomputed from the refit model.
    Deterministic for a given ransac.seed: sampling uses the counter-based
    Philox generator.

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

    rng = np.random.Generator(np.random.Philox(ransac.seed))
    best_count = 0
    best_mask = None
    best_H = None
    needed = ransac.max_iters
    done = 0
    chunk = 64
    thr2 = ransac.inlier_threshold_px ** 2
    while done < needed:
        b = min(chunk, needed - done)
        chunk = 512
        samples = _draw_samples(rng, b, m)
        cand, valid = _minimal_homographies(src[samples], dst[samples])
        inliers = _inlier_masks(cand, valid, src, dst, thr2)
        counts = inliers.sum(axis=1)
        done += b
        top = int(np.argmax(counts))
        if counts[top] > best_count:
            best_count = int(counts[top])
            best_mask = inliers[top]
            best_H = cand[top]
            needed = min(ransac.max_iters, ransac_trials(best_count / m, 4, ransac.confidence))

    if best_count < 4 or best_H is None:
        raise NoConsensus(f"best consensus has {best_count} inliers (need >= 4)")

    try:
        refined = dlt_homography(src[best_mask], dst[best_mask])
    except DegenerateConfiguration:
        return best_H, best_mask
    dist = reprojection_distances(refined, src, dst)
    mask = dist < ransac.inlier_threshold_px
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
