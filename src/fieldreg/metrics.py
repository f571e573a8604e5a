"""Registration quality metrics.

Homography metrics compare mapped convex quadrilaterals by polygon clipping;
keypoint metrics match detections to ground truth by keypoint id.  Detection
distances are scored after anisotropic scaling into the 1280x720 reference
image space, so thresholds mean the same thing at any working resolution.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjection, NoMatchedKeypoints
from .geometry import (
    EPS_T,
    check_positive,
    clip_polygon,
    compose_rows,
    convex_polygon,
    ensure_ccw,
    invert_rows,
    polygon_area,
    project,
)

REFERENCE_WIDTH_PX = 1280.0
REFERENCE_HEIGHT_PX = 720.0
AP_THRESHOLDS_PX = (5.0, 10.0, 15.0, 20.0)  # ascending
PR_THRESHOLD_PX = 20.0
PROJECTION_ERROR_SAMPLES = 2500


def _rows(H):
    return np.asarray(H, dtype=float).tolist()


def _mapped_quad(H, corners):
    """Corners through H (3x3 nested list) as a validated convex quad;
    DegenerateProjection otherwise.  Scalar arithmetic, in project's order."""
    (a, b, c), (d, e, f), (g, h, i) = H
    den = [g * x + h * y + i for x, y in corners]
    if any(t <= EPS_T for t in den):
        raise DegenerateProjection("mapped vertex at or behind projective infinity")
    # every t is above EPS_T or NaN, so no division by zero
    pts = [((a * x + b * y + c) / t, (d * x + e * y + f) / t)
           for (x, y), t in zip(corners, den)]
    try:
        return convex_polygon(pts)
    except ValueError as e:
        raise DegenerateProjection(f"mapped quad is not convex: {e}") from None


def _composite(left, right):
    # left o right for 3x3 nested lists, renormalized to h33 = 1 so
    # denominator signs are anchored at the origin like every other
    # homography here
    C = compose_rows(left, right)
    c33 = C[2][2]
    if abs(c33) <= EPS_T:
        raise DegenerateProjection("composite map cannot be normalized to h33 = 1")
    return [[v / c33 for v in row] for row in C]


def _iou(poly_a, poly_b):
    inter = polygon_area(clip_polygon(poly_a, poly_b))
    union = polygon_area(poly_a) + polygon_area(poly_b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_entire(h_gt, h_pred, template):
    """Whole-field IoU in template space.

    The field rectangle is pushed to the image by the ground truth and pulled
    back by the prediction; a perfect prediction reproduces the rectangle.
    Raises SingularMatrix when h_pred is singular.
    """
    comp = _composite(invert_rows(_rows(h_pred)), _rows(h_gt))
    field = template.corners().tolist()
    return _iou(_mapped_quad(comp, field), field)


def iou_entire_image(h_gt, h_pred, dims):
    """Whole-field IoU composited in image space (the convention some public
    evaluation code uses): the image rectangle goes to the template through
    the ground truth inverse and back through the prediction.  Raises
    SingularMatrix when h_gt is singular."""
    comp = _composite(_rows(h_pred), invert_rows(_rows(h_gt)))
    image = dims.corners().tolist()
    return _iou(_mapped_quad(comp, image), image)


def iou_part(h_gt, h_pred, dims):
    """IoU of the two template-space projections of the image rectangle
    (visible part only).  Raises SingularMatrix when either map is singular."""
    image = dims.corners().tolist()
    quad_gt = _mapped_quad(invert_rows(_rows(h_gt)), image)
    quad_pred = _mapped_quad(invert_rows(_rows(h_pred)), image)
    return _iou(quad_gt, quad_pred)


def _sample_convex_polygon(vertices, n_samples, rng):
    """n_samples points uniform over a convex polygon, drawn directly, as
    contiguous x and y arrays.

    The polygon is fan-triangulated from its first vertex a.  Each sample
    draws three uniforms u, r1, r2 from rng: u picks a triangle with
    probability equal to its share of the area (against the cumulative
    areas), and the point is a + sqrt(r1)(1 - r2) e1 + sqrt(r1) r2 e2 for
    that triangle's edge vectors e1, e2 from a (Turk, "Generating random
    points in triangles", Graphics Gems, 1990).  The per-vertex set-up is
    scalar and the per-sample work element-wise, so the points are the same
    whatever the BLAS build or the CPU's vector extensions.
    """
    v = ensure_ccw(vertices)
    ax, ay = v[0]
    e1 = [(x - ax, y - ay) for x, y in v[1:-1]]
    e2 = [(x - ax, y - ay) for x, y in v[2:]]
    # twice each fan triangle's area; clipping can leave a repeated vertex,
    # whose triangle must get zero weight, not a rounding-negative one
    cum = list(itertools.accumulate(max(x1 * y2 - y1 * x2, 0.0)
                                    for (x1, y1), (x2, y2) in zip(e1, e2)))
    u, r1, r2 = rng.random((3, n_samples))
    tri = np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)
    e1x, e1y = np.array(e1).T
    e2x, e2y = np.array(e2).T
    s = np.sqrt(r1)
    w1 = s * (1.0 - r2)
    w2 = s * r2
    return (ax + w1 * e1x[tri] + w2 * e2x[tri],
            ay + w1 * e1y[tri] + w2 * e2y[tri])


def projection_error(h_gt, h_pred, template, dims, n_samples=PROJECTION_ERROR_SAMPLES,
                     rng_seed=0):
    """Mean re-projection disagreement on the ground, in meters.

    The visible pitch is the image rectangle intersected with the
    ground-truth projection of the field rectangle.  n_samples image points
    are drawn uniformly over it (_sample_convex_polygon, seeded with
    np.random.default_rng(rng_seed)); each goes through both inverse
    homographies, and the result is the mean distance between the two field
    positions.  The estimate is deterministic in rng_seed; run_evaluate
    passes its seed plus the frame index.  Raises ValueError when n_samples
    is below 1, SingularMatrix when either map is singular, and
    DegenerateProjection when the visible pitch has no area or a sample has
    no finite field image.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rows_gt = _rows(h_gt)
    inv_gt = invert_rows(rows_gt)
    inv_pred = invert_rows(_rows(h_pred))
    field_quad = _mapped_quad(rows_gt, template.corners().tolist())
    visible = clip_polygon(field_quad, dims.corners().tolist())
    if polygon_area(visible) <= 0.0:
        raise DegenerateProjection("ground-truth field projection misses the image")
    x, y = _sample_convex_polygon(visible, n_samples, np.random.default_rng(rng_seed))

    u_gt, v_gt, t_gt = project(inv_gt, x, y)
    u_pred, v_pred, t_pred = project(inv_pred, x, y)
    if np.any(np.abs(t_gt) <= EPS_T) or np.any(np.abs(t_pred) <= EPS_T):
        raise DegenerateProjection("sampled image point has no finite field image")
    du = u_gt - u_pred
    dv = v_gt - v_pred
    return float(np.mean(np.sqrt(du * du + dv * dv)))


def reprojection_error(h_gt, h_pred, template, dims):
    """Mean keypoint displacement in pixels over GT-visible keypoints, as a
    fraction of image height."""
    x, y = template.positions[:, 0], template.positions[:, 1]
    u_gt, v_gt, den_gt = project(_rows(h_gt), x, y)
    w, h = float(dims.width_px), float(dims.height_px)
    vis = (den_gt > EPS_T) & (u_gt >= 0) & (u_gt <= w) & (v_gt >= 0) & (v_gt <= h)
    if not np.any(vis):
        raise DegenerateProjection("no template keypoint visible under the ground truth")

    u_pred, v_pred, den_pred = project(_rows(h_pred), x[vis], y[vis])
    if np.any(np.abs(den_pred) <= EPS_T):
        raise DegenerateProjection("predicted projection sends a visible keypoint to infinity")
    du = u_pred - u_gt[vis]
    dv = v_pred - v_gt[vis]
    return float(np.sqrt(du * du + dv * dv).mean() / h)


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


def precision_recall(det_ids, det_xy, gt_ids, gt_xy, dims, threshold_px=PR_THRESHOLD_PX):
    """Detection precision/recall at one distance threshold (reference space).

    A detection is a true positive when a ground-truth keypoint with the same
    id lies within threshold_px after scaling to 1280x720.  Empty
    denominators give 0.0 with the corresponding _defined flag cleared.
    Raises ValueError unless threshold_px is a finite number above 0.
    """
    check_positive("pr_threshold_px", threshold_px)
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


def average_precision(det_ids, det_xy, gt_ids, gt_xy, dims):
    """AP over the AP_THRESHOLDS_PX sweep: sum of precision-weighted recall increments.

    AP = sum_n (R_n - R_{n-1}) P_n with R_0 = 0 and the thresholds ascending.
    Undefined precision or recall terms contribute zero, so a frame with no
    detections or no ground truth scores 0.0.
    """
    dists, n_det, n_gt = _reference_scaled_distances(det_ids, det_xy, gt_ids, gt_xy, dims)
    ap = 0.0
    prev_recall = 0.0
    for t in AP_THRESHOLDS_PX:
        tp = int((dists <= t).sum())
        precision = tp / n_det if n_det else 0.0
        recall = tp / n_gt if n_gt else 0.0
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)
