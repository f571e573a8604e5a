"""Correctness checks on fieldreg's outputs.

Every check compares against a computation made here, apart from fieldreg,
or against a property the method must have.  None compares against a stored
copy of earlier output.  A check that fails raises CheckFailed.
"""

import math
from fractions import Fraction

import numpy as np

from inputs import FIELD_H_M, FIELD_W_M, HEIGHT_PX, WIDTH_PX, image_corners, project


class CheckFailed(Exception):
    pass


def field_corners():
    return np.array([[0.0, 0.0], [FIELD_W_M, 0.0], [FIELD_W_M, FIELD_H_M], [0.0, FIELD_H_M]])


# -- ground-plane accuracy ----------------------------------------------------

# Fixed image grid on which ground error is measured: 16 x 9 cell centres.
_GRID = np.array([((i + 0.5) * WIDTH_PX / 16, (j + 0.5) * HEIGHT_PX / 9)
                  for j in range(9) for i in range(16)])


def ground_error(H_gt, H_est):
    """Mean distance in meters, over the grid points whose true ground
    position lies on the pitch, between where the truth and the estimate
    put them on the ground."""
    try:
        inv_est = np.linalg.inv(H_est)
    except np.linalg.LinAlgError:
        return math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        on_gt, den = project(np.linalg.inv(H_gt), _GRID)
        keep = ((den > 0) & (on_gt[:, 0] >= 0) & (on_gt[:, 0] <= FIELD_W_M)
                & (on_gt[:, 1] >= 0) & (on_gt[:, 1] <= FIELD_H_M))
        on_est, _ = project(inv_est, _GRID[keep])
        d = np.hypot(*(on_gt[keep] - on_est).T)
    if not keep.any():
        raise CheckFailed("no grid point of the true view lies on the pitch")
    return float(d.mean()) if np.all(np.isfinite(d)) else math.inf


def plain_dlt(src, dst):
    """Unweighted normalized DLT over all correspondences (no RANSAC), the
    per-frame fit the filter must beat."""
    def conditioner(p):
        c = p.mean(axis=0)
        s = math.sqrt(2.0) / np.hypot(*(p - c).T).mean()
        return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])

    Ts, Td = conditioner(src), conditioner(dst)
    s = src @ Ts[:2, :2].T + Ts[:2, 2]
    d = dst @ Td[:2, :2].T + Td[:2, 2]
    A = np.zeros((2 * len(s), 9))
    A[0::2, 0:2], A[0::2, 2] = s, 1.0
    A[1::2, 3:5], A[1::2, 5] = s, 1.0
    A[0::2, 6:8], A[0::2, 8] = -d[:, :1] * s, -d[:, 0]
    A[1::2, 6:8], A[1::2, 8] = -d[:, 1:] * s, -d[:, 1]
    H = np.linalg.inv(Td) @ np.linalg.svd(A)[2][-1].reshape(3, 3) @ Ts
    return H / H[2, 2]


def dlt_ground_errors(frames, template_positions):
    """ground_error of plain_dlt on every frame with >= 4 detections (inf
    where the detections do not determine a homography)."""
    return [ground_error(fr.H, plain_dlt(template_positions[fr.meas_idx], fr.meas_pos))
            for fr in frames if fr.meas_idx.size >= 4]


def check_beats_dlt(filter_err, dlt_err, what):
    if not filter_err < dlt_err:
        raise CheckFailed(f"{what}: filter ground error {filter_err:.4f} m is not below "
                          f"the plain per-frame DLT's {dlt_err:.4f} m")


# -- estimates --------------------------------------------------------------


def check_estimates(frame_indices, est_frames, est_homographies):
    """Exactly one estimate per frame, in order, and a finite, invertible
    homography on every frame from the first estimate on."""
    if list(est_frames) != list(frame_indices):
        raise CheckFailed(f"{len(est_frames)} estimates for {len(frame_indices)} frames, "
                          "or frame indices out of order")
    started = False
    for idx, H in zip(est_frames, est_homographies):
        started = started or H is not None
        if not started:
            continue
        if H is None:
            raise CheckFailed(f"frame {idx}: no estimate after initialization")
        H = np.asarray(H, dtype=float)
        if H.shape != (3, 3) or not np.all(np.isfinite(H)) or abs(np.linalg.det(H)) < 1e-12:
            raise CheckFailed(f"frame {idx}: estimate is not a finite invertible 3x3")
    if not started:
        raise CheckFailed("no frame was ever estimated")


# -- simulate -----------------------------------------------------------------


def check_simulated_frame(H, gt_ids, gt_pos, template_positions, frame):
    """gt_keypoints must be gt_homography applied to the template."""
    expect, _ = project(np.asarray(H, dtype=float), template_positions[gt_ids])
    if gt_pos.shape != expect.shape or not np.allclose(gt_pos, expect, rtol=1e-9, atol=1e-6):
        raise CheckFailed(f"frame {frame}: gt_keypoints differ from gt_homography applied "
                          "to the template")


# -- calibrate ------------------------------------------------------------------


def check_measurement_cov(estimate, n_samples, truth, sigmas=5.0):
    """The calibrated pooled measurement covariance must match the injected
    one within `sigmas` standard errors of a mean of n_samples outer
    products: var(e_i e_j) = R_ii R_jj + R_ij^2 for Gaussian e."""
    R = np.asarray(truth, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if n_samples < 50:
        raise CheckFailed(f"calibration saw only {n_samples} measurement residuals")
    se = np.sqrt((np.outer(np.diag(R), np.diag(R)) + R * R) / n_samples)
    if est.shape != (2, 2) or np.any(np.abs(est - R) > sigmas * se):
        raise CheckFailed(f"calibrated measurement covariance {est.tolist()} is not within "
                          f"{sigmas} standard errors of the injected {R.tolist()}")


# -- baseline -------------------------------------------------------------------


def check_baseline_frame(H, field_pts, det_pts, frame, threshold_px=3.0):
    """A per-frame robust fit must map at least 4 of the frame's detections
    to within the inlier threshold."""
    img, den = project(np.asarray(H, dtype=float), field_pts)
    with np.errstate(invalid="ignore"):
        close = (den != 0) & (np.hypot(*(img - det_pts).T) < threshold_px + 1e-9)
    if int(close.sum()) < 4:
        raise CheckFailed(f"frame {frame}: baseline homography maps only {int(close.sum())} "
                          f"detections to within {threshold_px} px")


def check_baseline(frames, homographies, template_positions):
    """check_baseline_frame on every frame the baseline fitted."""
    for fr, H in zip(frames, homographies):
        if H is not None:
            check_baseline_frame(H, template_positions[fr.meas_idx], fr.meas_pos, fr.index)


# -- evaluate: exact rational recomputation -----------------------------------


def _q(M):
    return [[Fraction(float(v)) for v in row] for row in np.asarray(M, dtype=float)]


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _adj(M):
    """Adjugate: the inverse up to scale, which a projective map ignores."""
    (a, b, c), (d, e, f), (g, h, i) = M
    return [[e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d]]


def _map(M, pts):
    out = []
    for x, y in pts:
        x, y = Fraction(x), Fraction(y)
        t = M[2][0] * x + M[2][1] * y + M[2][2]
        if t == 0:
            raise CheckFailed("a corner maps to infinity")
        out.append(((M[0][0] * x + M[0][1] * y + M[0][2]) / t,
                    (M[1][0] * x + M[1][1] * y + M[1][2]) / t))
    return out


def _area2(poly):
    return sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1]))


def _ccw(poly):
    return poly if _area2(poly) >= 0 else poly[::-1]


def _clip(subject, clip):
    """Sutherland-Hodgman intersection of two convex polygons, exactly."""
    out = _ccw(list(subject))
    cl = _ccw(list(clip))
    for (ax, ay), (bx, by) in zip(cl, cl[1:] + cl[:1]):
        if not out:
            break
        side = [(bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) for p in out]
        nxt = []
        for j, p in enumerate(out):
            q, sq, sp = out[j - 1], side[j - 1], side[j]
            if (sp >= 0) != (sq >= 0):
                t = sq / (sq - sp)
                nxt.append((q[0] + t * (p[0] - q[0]), q[1] + t * (p[1] - q[1])))
            if sp >= 0:
                nxt.append(p)
        out = nxt
    return out


def _iou(a, b):
    inter = abs(_area2(_clip(a, b)))
    union = abs(_area2(a)) + abs(_area2(b)) - inter
    return inter / union if union > 0 else Fraction(0)


def exact_ious(h_gt, h_pred):
    """(iou_entire, iou_entire_image, iou_part) in rational arithmetic from
    the float homographies, by the definitions of docs and README:
    field rectangle through the truth and back through the prediction; image
    rectangle the other way round; the two ground footprints of the image."""
    G, P = _q(h_gt), _q(h_pred)
    field = [tuple(map(Fraction, p)) for p in field_corners()]
    image = [tuple(map(Fraction, p)) for p in image_corners()]
    entire = _iou(_map(_mul(_adj(P), G), field), field)
    entire_image = _iou(_map(_mul(P, _adj(G)), image), image)
    part = _iou(_map(_adj(G), image), _map(_adj(P), image))
    return float(entire), float(entire_image), float(part)


def exact_reprojection_error(h_gt, h_pred, template_positions):
    """Mean pixel distance, over keypoints the truth shows in the image,
    between their truth and predicted images, as a fraction of the image
    height.  Images are exact; only the final lengths are rounded."""
    G, P = _q(h_gt), _q(h_pred)
    dists = []
    for pt, (u, v) in zip(template_positions, _map(G, [tuple(p) for p in template_positions])):
        if not (0 <= u <= WIDTH_PX and 0 <= v <= HEIGHT_PX):
            continue
        (pu, pv), = _map(P, [tuple(pt)])
        dists.append(math.hypot(float(pu - u), float(pv - v)))
    if not dists:
        raise CheckFailed("no template keypoint is visible under the truth")
    return math.fsum(dists) / len(dists) / HEIGHT_PX


def projection_error_quadrature(h_gt, h_pred, n=120):
    """(mean, sd) of the ground distance between the truth's and the
    prediction's back-projections, over the visible pitch (image rectangle
    intersected with the truth's image of the field) on an n x n midpoint
    grid, i.e. a deterministic quadrature of the uniform average."""
    G = _q(h_gt)
    visible = _clip(_map(G, [tuple(map(Fraction, p)) for p in field_corners()]),
                    [tuple(map(Fraction, p)) for p in image_corners()])
    vis = np.array([[float(x), float(y)] for x, y in _ccw(visible)])
    lo, hi = vis.min(axis=0), vis.max(axis=0)
    ax = [lo[k] + (np.arange(n) + 0.5) * (hi[k] - lo[k]) / n for k in (0, 1)]
    pts = np.array(np.meshgrid(ax[0], ax[1])).reshape(2, -1).T
    edges = np.roll(vis, -1, axis=0) - vis
    inside = np.all(edges[None, :, 0] * (pts[:, None, 1] - vis[None, :, 1])
                    - edges[None, :, 1] * (pts[:, None, 0] - vis[None, :, 0]) >= 0, axis=1)
    pts = pts[inside]
    a, _ = project(np.linalg.inv(h_gt), pts)
    b, _ = project(np.linalg.inv(h_pred), pts)
    d = np.hypot(*(a - b).T)
    return float(d.mean()), float(d.std())


def check_report_frame(row, h_gt, h_pred, template_positions, n_samples=2500):
    """One scored row of a metrics report against exact recomputation."""
    frame = row.get("frame")
    for name, exact in zip(("iou_entire", "iou_entire_image", "iou_part"),
                           exact_ious(h_gt, h_pred)):
        got = row.get(name)
        if not isinstance(got, float) or abs(got - exact) > 1e-9:
            raise CheckFailed(f"frame {frame}: {name} {got!r}, exact {exact!r}")
    exact = exact_reprojection_error(h_gt, h_pred, template_positions)
    got = row.get("reprojection_error")
    if not isinstance(got, float) or abs(got - exact) > 1e-9 * max(1.0, abs(exact)):
        raise CheckFailed(f"frame {frame}: reprojection_error {got!r}, exact {exact!r}")
    mean, sd = projection_error_quadrature(h_gt, h_pred)
    got = row.get("projection_error_m")
    # Monte Carlo over n_samples uniform points: 5 standard errors, plus
    # 1% for the quadrature's own grid error.
    tol = 5.0 * sd / math.sqrt(n_samples) + 0.01 * mean
    if not isinstance(got, float) or abs(got - mean) > tol:
        raise CheckFailed(f"frame {frame}: projection_error_m {got!r}, quadrature "
                          f"{mean:.6g} +- {tol:.2g}")


def check_report(doc, truth_H, pred_H, template_positions):
    """A metrics report document: counts consistent with the inputs, and the
    first, middle and last scored rows against recomputation.
    truth_H and pred_H map frame index to homography (None when absent)."""
    rows = doc.get("frames", [])
    if [r.get("frame") for r in rows] != sorted(truth_H):
        raise CheckFailed("report rows do not cover the frames one to one")
    c = doc.get("counts", {})
    n_pred = sum(1 for f in truth_H if pred_H.get(f) is not None)
    if c.get("frames") != len(rows) or c.get("scored", 0) + c.get("degenerate_projection", 0) != n_pred:
        raise CheckFailed(f"report counts {c} do not match {len(rows)} frames, "
                          f"{n_pred} with a prediction")
    scored = [r for r in rows if r.get("iou_entire") is not None]
    if not scored:
        raise CheckFailed("report scored no frame")
    for k in sorted({0, len(scored) // 2, len(scored) - 1}):
        r = scored[k]
        check_report_frame(r, truth_H[r["frame"]], pred_H[r["frame"]], template_positions)
