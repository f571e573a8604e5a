"""Registration metrics against analytic worked examples and Monte Carlo."""

import pathlib

import numpy as np
import pytest

from fieldreg.errors import DegenerateProjection, NoMatchedKeypoints
from fieldreg.field import ImageDims
from fieldreg.geometry import (
    clip_polygon,
    dlt_homography,
    polygon_area,
)
from fieldreg.metrics import (
    _mapped_quad,
    _sample_convex_polygon,
    average_precision,
    iou_entire,
    iou_entire_image,
    iou_part,
    nrmse,
    precision_recall,
    projection_error,
    reprojection_error,
)
from helpers import (
    DIMS,
    KERNEL_ENVS,
    TEMPLATE,
    points_in_convex_polygon,
    run_python,
    view_homography,
)


def field_translation(dx, dy):
    return np.array([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]])


AFFINE_VIEW = np.array([[10.0, 0.0, 50.0], [0.0, 10.0, 20.0], [0.0, 0.0, 1.0]])


def test_iou_entire_translation_oracle():
    # pred = gt composed with a field-space shift of dx: the pulled-back field
    # rectangle is the true one shifted by -dx, so
    # IoU = (105 - dx) / (105 + dx) exactly
    h_gt = view_homography()
    for dx in (0.0, 5.0, 20.0):
        h_pred = h_gt @ field_translation(dx, 0.0)
        got = iou_entire(h_gt, h_pred, TEMPLATE)
        assert got == pytest.approx((105.0 - dx) / (105.0 + dx), abs=1e-12)


def test_iou_entire_perfect_is_one():
    h_gt = view_homography()
    assert iou_entire(h_gt, h_gt.copy(), TEMPLATE) == pytest.approx(1.0, abs=1e-12)
    assert iou_entire_image(h_gt, h_gt.copy(), DIMS) == pytest.approx(1.0, abs=1e-12)
    assert iou_part(h_gt, h_gt.copy(), DIMS) == pytest.approx(1.0, abs=1e-12)
    # scale invariance: a scalar multiple is the same projective map
    assert iou_entire(h_gt, 3.0 * h_gt, TEMPLATE) == pytest.approx(1.0, abs=1e-12)


def test_iou_entire_image_translation_oracle():
    # pred = image-space shift of gt: composite is that shift, IoU of the
    # image rectangle with its own translate
    h_gt = view_homography()
    a, b = 128.0, 72.0
    shift = np.array([[1.0, 0.0, a], [0.0, 1.0, b], [0.0, 0.0, 1.0]])
    h_pred = shift @ h_gt
    inter = (1280.0 - a) * (720.0 - b)
    union = 2.0 * 1280.0 * 720.0 - inter
    assert iou_entire_image(h_gt, h_pred, DIMS) == pytest.approx(inter / union, abs=1e-12)


def test_iou_part_translation_oracle():
    # affine gt view: the image rectangle pulls back to a 128 x 72 m
    # rectangle; a field shift of dx gives IoU (128 - dx) / (128 + dx)
    h_gt = AFFINE_VIEW
    for dx in (8.0, 32.0):
        h_pred = h_gt @ field_translation(dx, 0.0)
        got = iou_part(h_gt, h_pred, DIMS)
        assert got == pytest.approx((128.0 - dx) / (128.0 + dx), abs=1e-12)


def test_iou_disjoint_is_zero():
    h_gt = AFFINE_VIEW
    h_pred = h_gt @ field_translation(1000.0, 0.0)
    assert iou_part(h_gt, h_pred, DIMS) == 0.0


def test_iou_entire_monte_carlo_oracle():
    # independent check: build both polygons with raw numpy projective
    # arithmetic and estimate the IoU by rejection sampling
    rng = np.random.default_rng(0)
    h_gt = view_homography()
    h_pred = h_gt @ np.array([[1.01, 0.002, 0.4], [-0.003, 0.99, -0.8],
                              [1e-5, -2e-5, 1.0]])

    corners = TEMPLATE.corners()
    quad = np.empty((4, 2))
    for i, c in enumerate(corners):
        p = h_gt @ np.array([c[0], c[1], 1.0])
        q = np.linalg.solve(h_pred, p)
        quad[i] = q[:2] / q[2]

    def inside(pts, poly):
        ok = np.ones(pts.shape[0], dtype=bool)
        m = poly.shape[0]
        for i in range(m):
            a, b = poly[i], poly[(i + 1) % m]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            ok &= cross >= 0.0
        return ok

    orient = lambda p: p if ((p[1] - p[0])[0] * (p[2] - p[1])[1]
                             - (p[1] - p[0])[1] * (p[2] - p[1])[0]) > 0 else p[::-1]
    A = orient(corners)
    B = orient(quad)
    lo = np.minimum(A.min(axis=0), B.min(axis=0))
    hi = np.maximum(A.max(axis=0), B.max(axis=0))
    pts = rng.uniform(lo, hi, size=(400000, 2))
    in_a = inside(pts, A)
    in_b = inside(pts, B)
    mc = (in_a & in_b).sum() / (in_a | in_b).sum()
    assert iou_entire(h_gt, h_pred, TEMPLATE) == pytest.approx(mc, abs=8e-3)


def test_projection_error_translation_oracle():
    # field-space shift of (dx, dy): every sampled point disagrees by exactly
    # that displacement in meters
    h_gt = view_homography()
    for dx, dy in ((0.5, 0.0), (0.3, -0.4)):
        h_pred = h_gt @ field_translation(dx, dy)
        got = projection_error(h_gt, h_pred, TEMPLATE, DIMS, n_samples=500, rng_seed=1)
        assert got == pytest.approx(np.hypot(dx, dy), abs=1e-9)


def test_projection_error_deterministic_in_seed():
    h_gt = view_homography()
    h_pred = h_gt @ field_translation(1.0, 0.5)
    a = projection_error(h_gt, h_pred, TEMPLATE, DIMS, n_samples=300, rng_seed=7)
    b = projection_error(h_gt, h_pred, TEMPLATE, DIMS, n_samples=300, rng_seed=7)
    assert a == b


def test_projection_error_zero_for_equal_maps():
    h_gt = view_homography()
    assert projection_error(h_gt, h_gt.copy(), TEMPLATE, DIMS,
                            n_samples=200) == pytest.approx(0.0, abs=1e-12)


def test_projection_error_rejects_nonpositive_sample_counts():
    h_gt = view_homography()
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_samples"):
            projection_error(h_gt, h_gt.copy(), TEMPLATE, DIMS, n_samples=n)


# Rolled broadcast view: the field quad runs off three image edges and
# covers two image corners, so the visible pitch is a 7-gon.
TILTED_VIEW = dlt_homography(TEMPLATE.corners(), np.array(
    [[150.0, 90.0], [1450.0, -60.0], [1350.0, 860.0], [-200.0, 640.0]]))


def visible_pitch(h_gt):
    """The image rectangle clipped to the ground truth's image of the field."""
    field = _mapped_quad(h_gt.tolist(), TEMPLATE.corners().tolist())
    return clip_polygon(field, DIMS.corners().tolist())


TILTED_VISIBLE = visible_pitch(TILTED_VIEW)


def test_polygon_sampler_count_containment_and_seed():
    assert len(TILTED_VISIBLE) == 7
    # clockwise input exercises the winding fix-up
    poly = TILTED_VISIBLE[::-1]
    x, y = _sample_convex_polygon(poly, 3000, np.random.default_rng(11))
    assert x.shape == y.shape == (3000,)
    assert x.flags.c_contiguous and y.flags.c_contiguous
    pts = np.column_stack([x, y])
    assert points_in_convex_polygon(pts, poly).all()
    again = _sample_convex_polygon(poly, 3000, np.random.default_rng(11))
    assert np.array_equal(pts, np.column_stack(again))
    other = _sample_convex_polygon(poly, 3000, np.random.default_rng(12))
    assert not np.array_equal(pts, np.column_stack(other))


def test_polygon_sampler_triangle_shares_follow_area():
    # irregular hexagon whose fan triangles differ in area by up to 4.7x
    poly = [(0.0, 0.0), (400.0, -50.0), (900.0, 100.0), (1000.0, 500.0),
            (600.0, 700.0), (100.0, 450.0)]
    n = 40000
    pts = np.column_stack(_sample_convex_polygon(poly, n, np.random.default_rng(3)))
    tris = [[poly[0], poly[k], poly[k + 1]] for k in range(1, len(poly) - 1)]
    areas = np.array([polygon_area(t) for t in tris])
    share = areas / areas.sum()
    counts = np.array([points_in_convex_polygon(pts, t).sum() for t in tris])
    assert counts.sum() == n
    sd = np.sqrt(n * share * (1.0 - share))
    assert np.all(np.abs(counts - n * share) <= 5.0 * sd), (counts, n * share)


def test_projection_error_sliver_translation_oracle():
    # The field is squeezed into a 0.05 px strip along the image diagonal:
    # the visible region fills under 1e-4 of its bounding box, where a
    # bounding-box rejection sampler keeps about 1 candidate in 12,500.
    d = np.array([1280.0, 720.0]) / np.hypot(1280.0, 720.0)
    lin = np.column_stack([2000.0 / 105.0 * d, 0.05 / 68.0 * np.array([-d[1], d[0]])])
    h_gt = np.eye(3)
    h_gt[:2, :2] = lin
    h_gt[:2, 2] = np.array([640.0, 360.0]) - lin @ np.array([52.5, 34.0])
    visible = visible_pitch(h_gt)
    box = np.ptp(np.array(visible), axis=0)
    assert polygon_area(visible) < 1e-4 * box[0] * box[1]
    for dx, dy in ((0.5, 0.0), (0.3, -0.4)):
        h_pred = h_gt @ field_translation(dx, dy)
        got = projection_error(h_gt, h_pred, TEMPLATE, DIMS, n_samples=500, rng_seed=1)
        assert got == pytest.approx(np.hypot(dx, dy), abs=1e-9)


def test_projection_error_matches_quadrature():
    # A biased sampler shows here: the estimate must agree with a 400 x 400
    # midpoint quadrature of the same average over the visible pitch within
    # 5 Monte Carlo standard errors.  The grid's own error is about 1e-5 m,
    # under 1/500 of the tolerance.
    h_gt = TILTED_VIEW
    h_pred = h_gt @ np.array([[1.01, 0.002, 0.4], [-0.003, 0.99, -0.8],
                              [1e-5, -2e-5, 1.0]])
    lo, hi = np.min(TILTED_VISIBLE, axis=0), np.max(TILTED_VISIBLE, axis=0)
    g = (np.arange(400) + 0.5) / 400
    gx, gy = np.meshgrid(lo[0] + g * (hi[0] - lo[0]), lo[1] + g * (hi[1] - lo[1]))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = grid[points_in_convex_polygon(grid, TILTED_VISIBLE)]
    homog = np.column_stack([grid, np.ones(len(grid))])

    def ground(h):
        q = homog @ np.linalg.inv(h).T
        return q[:, :2] / q[:, 2:]

    dist = np.hypot(*(ground(h_gt) - ground(h_pred)).T)
    n = 20000
    got = projection_error(h_gt, h_pred, TEMPLATE, DIMS, n_samples=n, rng_seed=4)
    assert abs(got - dist.mean()) <= 5.0 * dist.std() / np.sqrt(n)


def test_reprojection_error_translation_oracle():
    h_gt = view_homography()
    a, b = 3.0, 4.0
    h_pred = np.array([[1.0, 0.0, a], [0.0, 1.0, b], [0.0, 0.0, 1.0]]) @ h_gt
    got = reprojection_error(h_gt, h_pred, TEMPLATE, DIMS)
    assert got == pytest.approx(5.0 / 720.0, abs=1e-12)


def test_reprojection_error_counts_only_visible():
    # zoomed view showing the left half: right-half keypoints are off-image
    # under gt and must not contribute
    h_gt = np.array([[20.0, 0.0, 10.0], [0.0, 10.0, 10.0], [0.0, 0.0, 1.0]])
    vis = (TEMPLATE.positions @ h_gt[:2, :2].T + h_gt[:2, 2])
    in_img = ((vis[:, 0] >= 0) & (vis[:, 0] <= 1280)
              & (vis[:, 1] >= 0) & (vis[:, 1] <= 720))
    assert 0 < in_img.sum() < TEMPLATE.n
    shift = np.array([[1.0, 0.0, 6.0], [0.0, 1.0, 8.0], [0.0, 0.0, 1.0]])
    got = reprojection_error(h_gt, shift @ h_gt, TEMPLATE, DIMS)
    assert got == pytest.approx(10.0 / 720.0, abs=1e-12)


def test_degenerate_projection_raises():
    # prediction whose inverse sends an image corner behind the camera
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.02, 0.0, 1.0]])
    h_pred = np.linalg.inv(M)
    h_pred = h_pred / h_pred[2, 2]
    with pytest.raises(DegenerateProjection):
        iou_part(AFFINE_VIEW, h_pred, DIMS)
    # gt pushing the field rectangle across infinity
    h_bad = np.array([[10.0, 0.0, 50.0], [0.0, 10.0, 20.0], [-0.02, 0.0, 1.0]])
    with pytest.raises(DegenerateProjection):
        iou_entire(h_bad, AFFINE_VIEW, TEMPLATE)
    with pytest.raises(DegenerateProjection):
        projection_error(h_bad, AFFINE_VIEW, TEMPLATE, DIMS, n_samples=50)


def test_nrmse_hand_example():
    est_ids = np.array([1, 2])
    est_xy = np.array([[10.0, 20.0], [30.0, 40.0]])
    gt_ids = np.array([2, 1, 5])
    gt_xy = np.array([[30.0, 44.0], [13.0, 20.0], [0.0, 0.0]])
    # matched: id 1 diff (-3, 0), id 2 diff (0, -4)
    x = nrmse(est_ids, est_xy, gt_ids, gt_xy, DIMS, axis="x")
    y = nrmse(est_ids, est_xy, gt_ids, gt_xy, DIMS, axis="y")
    assert x == pytest.approx(3.0 / (1280.0 * np.sqrt(2.0)), abs=1e-15)
    assert y == pytest.approx(4.0 / (720.0 * np.sqrt(2.0)), abs=1e-15)
    with pytest.raises(ValueError):
        nrmse(est_ids, est_xy, gt_ids, gt_xy, DIMS, axis="z")
    with pytest.raises(NoMatchedKeypoints):
        nrmse(np.array([9]), np.array([[0.0, 0.0]]), gt_ids, gt_xy, DIMS)


def test_precision_recall_reference_scaling():
    # half-resolution image: pixel errors double in reference space
    dims = ImageDims(640, 360)
    det_ids = np.array([0, 1, 2])
    det_xy = np.array([[100.0, 100.0], [200.0, 200.0], [300.0, 300.0]])
    gt_ids = np.array([0, 1, 3])
    gt_xy = np.array([[105.0, 100.0], [212.0, 205.0], [9.0, 9.0]])
    # id 0: (5, 0) -> scaled dist 10 <= 20, TP
    # id 1: (12, 5) -> scaled (24, 10), dist 26 > 20, miss
    pr = precision_recall(det_ids, det_xy, gt_ids, gt_xy, dims, threshold_px=20.0)
    assert pr.true_positives == 1
    assert pr.precision == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pr.recall == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pr.precision_defined and pr.recall_defined


def test_precision_recall_undefined_cases():
    empty_i = np.empty(0, dtype=int)
    empty_p = np.empty((0, 2))
    gt_ids = np.array([0])
    gt_xy = np.array([[1.0, 1.0]])
    pr = precision_recall(empty_i, empty_p, gt_ids, gt_xy, DIMS)
    assert pr.precision == 0.0 and not pr.precision_defined and pr.recall_defined
    pr = precision_recall(gt_ids, gt_xy, empty_i, empty_p, DIMS)
    assert pr.recall == 0.0 and not pr.recall_defined and pr.precision_defined


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -5.0])
def test_precision_recall_rejects_a_bad_match_threshold(threshold):
    # a NaN or negative threshold would score detections that sit on the
    # ground truth as misses
    ids = np.array([0, 1])
    xy = np.array([[100.0, 200.0], [300.0, 400.0]])
    with pytest.raises(ValueError, match="^pr_threshold_px must be a finite number above 0, got "):
        precision_recall(ids, xy, ids, xy, ImageDims(1280, 720), threshold_px=threshold)


def test_average_precision_hand_examples():
    # single pair at reference distance 12: counted from threshold 15 up
    det = (np.array([0]), np.array([[112.0, 100.0]]))
    gt = (np.array([0]), np.array([[100.0, 100.0]]))
    ap = average_precision(det[0], det[1], gt[0], gt[1], DIMS)
    assert ap == pytest.approx(1.0, abs=1e-15)    # P = 1 when R first reaches 1
    # two detections, one gt: the extra detection halves precision
    det = (np.array([0, 5]), np.array([[103.0, 100.0], [900.0, 600.0]]))
    ap = average_precision(det[0], det[1], gt[0], gt[1], DIMS)
    assert ap == pytest.approx(0.5, abs=1e-15)
    # nothing within any threshold
    det = (np.array([0]), np.array([[500.0, 500.0]]))
    ap = average_precision(det[0], det[1], gt[0], gt[1], DIMS)
    assert ap == 0.0


DATA = pathlib.Path(__file__).parent / "data"


@KERNEL_ENVS
def test_report_bytes_do_not_depend_on_blas_kernels(tmp_path, kernel_env):
    rep = tmp_path / "report.json"
    proc = run_python(
        ["-m", "fieldreg", "evaluate",
         "--input", str(DATA / "golden_estimates.jsonl"),
         "--truth", str(DATA / "golden_sequence.jsonl"),
         "--seed", "5", "--projection-samples", "400", "--output", str(rep)], kernel_env)
    assert proc.returncode == 0, proc.stderr
    assert rep.read_bytes() == (DATA / "golden_report.json").read_bytes()
