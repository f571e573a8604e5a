"""Registration quality metrics.

Homography metrics compare mapped convex quadrilaterals by polygon clipping;
keypoint metrics match detections to ground truth by keypoint id.  Detection
distances are scored after anisotropic scaling into the 1280x720 reference
image space, so thresholds mean the same thing at any working resolution.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, NoMatchedKeypoints, NoSamples, SingularMatrix
from .geometry import (
    EPS_T,
    clip_polygon,
    convex_polygon,
    ensure_ccw,
    invert_homography,
    normalize_homography,
    polygon_area,
)

REFERENCE_WIDTH_PX = 1280.0
REFERENCE_HEIGHT_PX = 720.0
AP_THRESHOLDS_PX = (5.0, 10.0, 15.0, 20.0)
PROJECTION_ERROR_SAMPLES = 2500


def _project(H, points):
    """Map (N, 2) points through H; returns ((N, 2) images, (N,) homogeneous scales t).

    Written out entry by entry as element-wise multiplies and adds in a fixed
    order instead of matrix products, so every metric is the same whichever
    BLAS kernel NumPy would dispatch to.  Images of points with t = 0 are not
    finite; callers test t.
    """
    H = np.asarray(H, dtype=float)
    x, y = points[:, 0], points[:, 1]
    t = H[2, 0] * x + H[2, 1] * y + H[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (H[0, 0] * x + H[0, 1] * y + H[0, 2]) / t
        v = (H[1, 0] * x + H[1, 1] * y + H[1, 2]) / t
    return np.column_stack([u, v]), t


def _mapped_quad(H, corners, eps=EPS_T):
    """Corners through H as a validated convex quad; DegenerateProjection otherwise."""
    pts, den = _project(H, corners)
    if np.any(den <= eps):
        raise DegenerateProjection("mapped vertex at or behind projective infinity")
    try:
        return convex_polygon(pts)
    except ValueError as e:
        raise DegenerateProjection(f"mapped quad is not convex: {e}") from None


def _composite(left, right):
    # left o right, renormalized to h33 = 1 so denominator signs are anchored
    # at the origin like every other homography here.  The product is spelled
    # out, C[i, j] = L[i, 0] R[0, j] + L[i, 1] R[1, j] + L[i, 2] R[2, j], for
    # the same reason as in _project.
    L = np.asarray(left, dtype=float)
    R = np.asarray(right, dtype=float)
    C = L[:, 0, None] * R[0] + L[:, 1, None] * R[1] + L[:, 2, None] * R[2]
    try:
        return normalize_homography(C)
    except SingularMatrix:
        raise DegenerateProjection("composite map cannot be normalized to h33 = 1") from None


def _iou(poly_a, poly_b):
    inter = polygon_area(clip_polygon(poly_a, poly_b))
    union = polygon_area(poly_a) + polygon_area(poly_b) - inter
    if union <= 0.0:
        return 0.0
    return float(inter / union)


def iou_entire(h_gt, h_pred, template, dims, eps=EPS_T):
    """Whole-field IoU in template space.

    The field rectangle is pushed to the image by the ground truth and pulled
    back by the prediction; a perfect prediction reproduces the rectangle.
    dims is unused by the math but kept for signature symmetry with the other
    whole-frame metrics.
    """
    del dims
    comp = _composite(invert_homography(h_pred), h_gt)
    quad = _mapped_quad(comp, template.corners(), eps)
    return _iou(quad, template.corners())


def iou_entire_image(h_gt, h_pred, dims, eps=EPS_T):
    """Whole-field IoU composited in image space (the convention some public
    evaluation code uses): the image rectangle goes to the template through
    the ground truth inverse and back through the prediction."""
    comp = _composite(np.asarray(h_pred, dtype=float), invert_homography(h_gt))
    quad = _mapped_quad(comp, dims.corners(), eps)
    return _iou(quad, dims.corners())


def iou_part(h_gt, h_pred, dims, eps=EPS_T):
    """IoU of the two template-space projections of the image rectangle (visible part only)."""
    quad_gt = _mapped_quad(invert_homography(h_gt), dims.corners(), eps)
    quad_pred = _mapped_quad(invert_homography(h_pred), dims.corners(), eps)
    return _iou(quad_gt, quad_pred)


def _sample_convex_polygon(vertices, n_samples, rng):
    """(n_samples, 2) points uniform over a convex polygon, drawn directly.

    The polygon is fan-triangulated from its first vertex a.  Each sample
    draws three uniforms u, r1, r2 from rng: u picks a triangle with
    probability equal to its share of the area (against the cumulative
    areas), and the point is a + sqrt(r1)(1 - r2) e1 + sqrt(r1) r2 e2 for
    that triangle's edge vectors e1, e2 from a (Turk, "Generating random
    points in triangles", Graphics Gems, 1990).  Only element-wise
    arithmetic, so the points are the same whatever the BLAS build or the
    CPU's vector extensions.
    """
    v = ensure_ccw(vertices)
    ax, ay = v[0]
    e1x, e1y = (v[1:-1] - v[0]).T
    e2x, e2y = (v[2:] - v[0]).T
    # twice each fan triangle's area; clipping can leave a repeated vertex,
    # whose triangle must get zero weight, not a rounding-negative one
    cum = np.cumsum(np.maximum(e1x * e2y - e1y * e2x, 0.0))
    u, r1, r2 = rng.random((3, n_samples))
    tri = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.size - 1)
    s = np.sqrt(r1)
    w1 = s * (1.0 - r2)
    w2 = s * r2
    return np.column_stack([ax + w1 * e1x[tri] + w2 * e2x[tri],
                            ay + w1 * e1y[tri] + w2 * e2y[tri]])


def projection_error(h_gt, h_pred, template, dims, n_samples=PROJECTION_ERROR_SAMPLES,
                     rng_seed=0, eps=EPS_T):
    """Mean re-projection disagreement on the ground, in meters.

    The visible pitch is the image rectangle intersected with the
    ground-truth projection of the field rectangle.  n_samples image points
    are drawn uniformly over it (_sample_convex_polygon, seeded with
    np.random.default_rng(rng_seed)); each goes through both inverse
    homographies, and the result is the mean distance between the two field
    positions.  The estimate is deterministic in rng_seed; run_evaluate
    passes its seed plus the frame index.  Raises ValueError when n_samples
    is below 1, and DegenerateProjection when the visible pitch has no area
    or a sample has no finite field image.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    inv_gt = invert_homography(h_gt)
    inv_pred = invert_homography(h_pred)
    field_quad = _mapped_quad(h_gt, template.corners(), eps)
    visible = clip_polygon(field_quad, dims.corners())
    if polygon_area(visible) <= 0.0:
        raise DegenerateProjection("ground-truth field projection misses the image")
    pts = _sample_convex_polygon(visible, n_samples, np.random.default_rng(rng_seed))

    on_gt, t_gt = _project(inv_gt, pts)
    on_pred, t_pred = _project(inv_pred, pts)
    if np.any(np.abs(t_gt) <= eps) or np.any(np.abs(t_pred) <= eps):
        raise DegenerateProjection("sampled image point has no finite field image")
    d = on_gt - on_pred
    return float(np.mean(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


def reprojection_error(h_gt, h_pred, template, dims, eps=EPS_T):
    """Mean keypoint displacement in pixels over GT-visible keypoints, as a
    fraction of image height."""
    proj_gt, den_gt = _project(h_gt, template.positions)
    w, h = float(dims.width_px), float(dims.height_px)
    vis = ((den_gt > eps)
           & (proj_gt[:, 0] >= 0) & (proj_gt[:, 0] <= w)
           & (proj_gt[:, 1] >= 0) & (proj_gt[:, 1] <= h))
    if not np.any(vis):
        raise DegenerateProjection("no template keypoint visible under the ground truth")

    proj_pred, den_pred = _project(h_pred, template.positions[vis])
    if np.any(np.abs(den_pred) <= eps):
        raise DegenerateProjection("predicted projection sends a visible keypoint to infinity")
    dist = np.sqrt(((proj_pred - proj_gt[vis]) ** 2).sum(axis=1))
    return float(dist.mean() / h)


@functools.lru_cache(maxsize=1)
def _common_rows(est_key, gt_key):
    # Row indices, on each side, of the ids present on both, in ascending id
    # order.  Keyed by the ids' int64 bytes and remembering the last match,
    # so the four keypoint metrics of one frame, called with the same ids,
    # match them once.  Every caller gets the same arrays: read-only.
    est = np.frombuffer(est_key, dtype=np.int64).tolist()
    gt = np.frombuffer(gt_key, dtype=np.int64).tolist()
    est_row = {k: i for i, k in enumerate(est)}
    gt_row = {k: i for i, k in enumerate(gt)}
    if len(est_row) != len(est) or len(gt_row) != len(gt):
        raise ValueError("duplicate keypoint ids")
    common = sorted(est_row.keys() & gt_row.keys())
    rows = (np.array([est_row[k] for k in common], dtype=np.intp),
            np.array([gt_row[k] for k in common], dtype=np.intp))
    for r in rows:
        r.flags.writeable = False
    return rows


def _match_by_id(est_ids, est_xy, gt_ids, gt_xy):
    """Positions of the ids present on both sides, as two (L, 2) arrays in
    ascending id order, and the two sides' keypoint counts.  Raises
    ValueError on a repeated id or a position count that differs from the
    id count."""
    est_ids = np.atleast_1d(np.asarray(est_ids, dtype=np.int64))
    gt_ids = np.atleast_1d(np.asarray(gt_ids, dtype=np.int64))
    est_xy = np.asarray(est_xy).reshape(-1, 2)
    gt_xy = np.asarray(gt_xy).reshape(-1, 2)
    if est_xy.shape[0] != est_ids.size or gt_xy.shape[0] != gt_ids.size:
        raise ValueError("keypoint ids and positions differ in count")
    est_rows, gt_rows = _common_rows(est_ids.tobytes(), gt_ids.tobytes())
    return est_xy[est_rows], gt_xy[gt_rows], est_ids.size, gt_ids.size


def nrmse(est_ids, est_xy, gt_ids, gt_xy, dims, axis="x"):
    """Per-axis normalized RMSE over id-matched keypoints.

    (1 / (Z sqrt(L))) * sqrt(sum (x - x_hat)^2), Z the image width for the x
    axis and height for y, L the number of matched keypoints.  Raises
    NoMatchedKeypoints when no id appears on both sides.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    est, gt, _, _ = _match_by_id(est_ids, est_xy, gt_ids, gt_xy)
    if not est.shape[0]:
        raise NoMatchedKeypoints("no keypoint id present in both estimate and ground truth")
    a = 0 if axis == "x" else 1
    z = float(dims.width_px if axis == "x" else dims.height_px)
    diffs = est[:, a] - gt[:, a]
    return float(np.sqrt((diffs ** 2).sum()) / (z * np.sqrt(est.shape[0])))


def _reference_scaled_distances(det_ids, det_xy, gt_ids, gt_xy, dims):
    sx = REFERENCE_WIDTH_PX / float(dims.width_px)
    sy = REFERENCE_HEIGHT_PX / float(dims.height_px)
    det, gt, n_det, n_gt = _match_by_id(det_ids, det_xy, gt_ids, gt_xy)
    d = (det - gt) * np.array([sx, sy])
    return np.sqrt((d ** 2).sum(axis=1)), n_det, n_gt


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float
    precision_defined: bool
    recall_defined: bool
    true_positives: int
    n_detections: int
    n_ground_truth: int


def precision_recall(det_ids, det_xy, gt_ids, gt_xy, dims, threshold_px=20.0):
    """Detection precision/recall at one distance threshold (reference space).

    A detection is a true positive when a ground-truth keypoint with the same
    id lies within threshold_px after scaling to 1280x720.  Empty
    denominators give 0.0 with the corresponding _defined flag cleared.
    """
    dists, n_det, n_gt = _reference_scaled_distances(det_ids, det_xy, gt_ids, gt_xy, dims)
    tp = int((dists <= threshold_px).sum())
    return PrecisionRecall(
        precision=tp / n_det if n_det else 0.0,
        recall=tp / n_gt if n_gt else 0.0,
        precision_defined=n_det > 0,
        recall_defined=n_gt > 0,
        true_positives=tp,
        n_detections=n_det,
        n_ground_truth=n_gt,
    )


def average_precision(det_ids, det_xy, gt_ids, gt_xy, dims, thresholds=AP_THRESHOLDS_PX):
    """AP over a threshold sweep: sum of precision-weighted recall increments.

    AP = sum_n (R_n - R_{n-1}) P_n with R_0 = 0 and thresholds ascending.
    Undefined precision or recall terms contribute zero, so a frame with no
    detections or no ground truth scores 0.0.
    """
    dists, n_det, n_gt = _reference_scaled_distances(det_ids, det_xy, gt_ids, gt_xy, dims)
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(thresholds):
        tp = int((dists <= t).sum())
        precision = tp / n_det if n_det else 0.0
        recall = tp / n_gt if n_gt else 0.0
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)


def mean_average_precision(frames, dims, thresholds=AP_THRESHOLDS_PX):
    """Mean per-frame AP.  frames yields (det_ids, det_xy, gt_ids, gt_xy)."""
    aps = [average_precision(d_ids, d_xy, g_ids, g_xy, dims, thresholds)
           for d_ids, d_xy, g_ids, g_xy in frames]
    if not aps:
        raise NoSamples("no frames to average")
    return float(np.mean(aps))
