"""NumPy reference for the convex-polygon kernels and the homography metrics.

The package computes polygon areas, convexity, clipping and the IoU and
projection-error geometry in scalar Python floats, and projects sample and
keypoint arrays without stacking them into (N, 2) arrays.  This module keeps
the earlier NumPy formulation of the same operations, in the same order, as
a test oracle: the package must reproduce it bit for bit.  Vertices here are
(V, 2) arrays.  Not used by the package.
"""

import math

import numpy as np

from fieldreg.errors import DegenerateProjection, SingularMatrix
from fieldreg.geometry import EPS_DET, EPS_T, normalize_homography


def invert_homography(H, eps_det=EPS_DET, eps=EPS_T):
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(H, dtype=float).tolist()
    c11, c12, c13 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c11 + b * c12 + c * c13
    if abs(det) <= eps_det:
        raise SingularMatrix(f"|det| = {abs(det):.3e} <= {eps_det}")
    c33 = a * e - b * d
    if abs(c33 / det) <= eps:
        raise SingularMatrix("inverse cannot be normalized to h33 = 1")
    adj = np.array([[c11, c * h - b * i, b * f - c * e],
                    [c12, a * i - c * g, c * d - a * f],
                    [c13, b * g - a * h, c33]])
    return adj / c33


def signed_area(vertices):
    v = np.asarray(vertices, dtype=float)
    if v.shape[0] < 3:
        return 0.0
    pts = v.tolist()
    return 0.5 * math.fsum(t for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1])
                           for t in (x0 * y1, -y0 * x1))


def polygon_area(vertices):
    return abs(signed_area(vertices))


def ensure_ccw(vertices):
    v = np.asarray(vertices, dtype=float)
    return v[::-1].copy() if signed_area(v) < 0.0 else v.copy()


def convex_polygon(vertices):
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
        raise ValueError(f"expected (V >= 3, 2) vertex array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite vertex coordinate")
    v = ensure_ccw(v)
    e = np.roll(v, -1, axis=0) - v
    en = np.roll(e, -1, axis=0)
    cross = e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]
    if not np.all(cross > 0.0):
        raise ValueError("polygon is not strictly convex")
    return v


def clip_polygon(subject, clip):
    out = [tuple(p) for p in ensure_ccw(np.asarray(subject, dtype=float))]
    cl = ensure_ccw(np.asarray(clip, dtype=float))
    nc = cl.shape[0]
    for i in range(nc):
        if not out:
            break
        ax, ay = cl[i]
        bx, by = cl[(i + 1) % nc]
        ex, ey = bx - ax, by - ay

        def inside(p):
            return ex * (p[1] - ay) - ey * (p[0] - ax) >= 0.0

        cur = out
        out = []
        for j, p in enumerate(cur):
            q = cur[j - 1]
            pin, qin = inside(p), inside(q)
            if pin != qin:
                dq = ex * (q[1] - ay) - ey * (q[0] - ax)
                dp = ex * (p[1] - ay) - ey * (p[0] - ax)
                t = dq / (dq - dp)
                out.append((q[0] + t * (p[0] - q[0]), q[1] + t * (p[1] - q[1])))
            if pin:
                out.append(p)
    return np.array(out, dtype=float).reshape(-1, 2)


def project(H, points):
    H = np.asarray(H, dtype=float)
    x, y = points[:, 0], points[:, 1]
    t = H[2, 0] * x + H[2, 1] * y + H[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (H[0, 0] * x + H[0, 1] * y + H[0, 2]) / t
        v = (H[1, 0] * x + H[1, 1] * y + H[1, 2]) / t
    return np.column_stack([u, v]), t


def mapped_quad(H, corners, eps=EPS_T):
    pts, den = project(H, corners)
    if np.any(den <= eps):
        raise DegenerateProjection("mapped vertex at or behind projective infinity")
    try:
        return convex_polygon(pts)
    except ValueError as e:
        raise DegenerateProjection(f"mapped quad is not convex: {e}") from None


def composite(left, right):
    L = np.asarray(left, dtype=float)
    R = np.asarray(right, dtype=float)
    C = L[:, 0, None] * R[0] + L[:, 1, None] * R[1] + L[:, 2, None] * R[2]
    try:
        return normalize_homography(C)
    except SingularMatrix:
        raise DegenerateProjection("composite map cannot be normalized to h33 = 1") from None


def iou(poly_a, poly_b):
    inter = polygon_area(clip_polygon(poly_a, poly_b))
    union = polygon_area(poly_a) + polygon_area(poly_b) - inter
    if union <= 0.0:
        return 0.0
    return float(inter / union)


def iou_entire(h_gt, h_pred, template, eps=EPS_T):
    comp = composite(invert_homography(h_pred), h_gt)
    quad = mapped_quad(comp, template.corners(), eps)
    return iou(quad, template.corners())


def iou_entire_image(h_gt, h_pred, dims, eps=EPS_T):
    comp = composite(np.asarray(h_pred, dtype=float), invert_homography(h_gt))
    quad = mapped_quad(comp, dims.corners(), eps)
    return iou(quad, dims.corners())


def iou_part(h_gt, h_pred, dims, eps=EPS_T):
    quad_gt = mapped_quad(invert_homography(h_gt), dims.corners(), eps)
    quad_pred = mapped_quad(invert_homography(h_pred), dims.corners(), eps)
    return iou(quad_gt, quad_pred)


def sample_convex_polygon(vertices, n_samples, rng):
    v = ensure_ccw(vertices)
    ax, ay = v[0]
    e1x, e1y = (v[1:-1] - v[0]).T
    e2x, e2y = (v[2:] - v[0]).T
    cum = np.cumsum(np.maximum(e1x * e2y - e1y * e2x, 0.0))
    u, r1, r2 = rng.random((3, n_samples))
    tri = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)
    s = np.sqrt(r1)
    w1 = s * (1.0 - r2)
    w2 = s * r2
    return np.column_stack([ax + w1 * e1x[tri] + w2 * e2x[tri],
                            ay + w1 * e1y[tri] + w2 * e2y[tri]])


def projection_error(h_gt, h_pred, template, dims, n_samples, rng_seed=0, eps=EPS_T):
    inv_gt = invert_homography(h_gt)
    inv_pred = invert_homography(h_pred)
    field_quad = mapped_quad(h_gt, template.corners(), eps)
    visible = clip_polygon(field_quad, dims.corners())
    if polygon_area(visible) <= 0.0:
        raise DegenerateProjection("ground-truth field projection misses the image")
    pts = sample_convex_polygon(visible, n_samples, np.random.default_rng(rng_seed))
    on_gt, t_gt = project(inv_gt, pts)
    on_pred, t_pred = project(inv_pred, pts)
    if np.any(np.abs(t_gt) <= eps) or np.any(np.abs(t_pred) <= eps):
        raise DegenerateProjection("sampled image point has no finite field image")
    d = on_gt - on_pred
    return float(np.mean(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))



def reprojection_error(h_gt, h_pred, template, dims, eps=EPS_T):
    proj_gt, den_gt = project(h_gt, template.positions)
    w, h = float(dims.width_px), float(dims.height_px)
    vis = ((den_gt > eps)
           & (proj_gt[:, 0] >= 0) & (proj_gt[:, 0] <= w)
           & (proj_gt[:, 1] >= 0) & (proj_gt[:, 1] <= h))
    if not np.any(vis):
        raise DegenerateProjection("no template keypoint visible under the ground truth")
    proj_pred, den_pred = project(h_pred, template.positions[vis])
    if np.any(np.abs(den_pred) <= eps):
        raise DegenerateProjection("predicted projection sends a visible keypoint to infinity")
    dist = np.sqrt(((proj_pred - proj_gt[vis]) ** 2).sum(axis=1))
    return float(dist.mean() / h)
