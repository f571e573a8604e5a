"""Seeded inputs for the benchmark, made without fieldreg.

Everything here uses only NumPy and the standard library, so a change to
fieldreg (its simulator in particular) cannot change what the benchmark
feeds it.  One `numpy.random.default_rng(seed)` per generated scene fixes
every draw: the same seed gives the same templates, camera chains,
detections, flow and files, byte for byte.

The generative model is the one the filter assumes:

* the field-to-image homography follows H_t = J_t M_t H_{t-1}, with M_t a
  smooth pan/zoom similarity (the "provided" motion) and J_t a small random
  image translation (the process noise the provided motion misses);
* detections are the exact projections of the visible template keypoints,
  each dropped with probability `dropout` and otherwise moved by Gaussian
  noise with covariance R;
* flow pairs are random image points carried by the true motion J_t M_t,
  plus planted outlier tracks that move on their own (players).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

WIDTH_PX, HEIGHT_PX = 1280, 720
FIELD_W_M, FIELD_H_M = 105.0, 68.0

# Tag that fieldreg's bank reader insists on (docs/file_formats.md).
H_PARAM_ORDER_TAG = "column-stacked: h11 h21 h31 h12 h22 h32 h13 h23 (h33 fixed at 1, excluded)"


# -- templates ---------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    ids: np.ndarray        # (N,) raw keypoint ids as files carry them
    positions: np.ndarray  # (N, 2) meters


def grid_template(nx=13, ny=7, first_id=100):
    """nx x ny lattice over the 105 x 68 m pitch; ids start at first_id so
    raw ids and canonical indices differ."""
    xs = np.linspace(0.0, FIELD_W_M, nx)
    ys = np.linspace(0.0, FIELD_H_M, ny)
    pos = np.array([(x, y) for y in ys for x in xs])
    return Template(ids=np.arange(first_id, first_id + pos.shape[0]), positions=pos)


def standard_template():
    """The 31 line-crossing landmarks of a 105 x 68 m pitch: corners, halfway
    line, centre circle, both penalty and goal areas, penalty marks and arc
    tips.  Ids 0..30 in listing order."""
    w, h = FIELD_W_M, FIELD_H_M
    cy, r = h / 2.0, 9.15
    pts = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h),
           (w / 2, 0.0), (w / 2, h), (w / 2, cy), (w / 2, cy - r), (w / 2, cy + r),
           (w / 2 - r, cy), (w / 2 + r, cy)]
    for x0, s in ((0.0, 1.0), (w, -1.0)):
        pts += [(x0, cy - 20.16), (x0 + s * 16.5, cy - 20.16),
                (x0 + s * 16.5, cy + 20.16), (x0, cy + 20.16),
                (x0, cy - 9.16), (x0 + s * 5.5, cy - 9.16),
                (x0 + s * 5.5, cy + 9.16), (x0, cy + 9.16),
                (x0 + s * 11.0, cy), (x0 + s * 20.15, cy)]
    pos = np.array(pts)
    return Template(ids=np.arange(pos.shape[0]), positions=pos)


# -- projective helpers (independent of fieldreg.geometry) -------------------


def homography_from_quad(src, dst):
    """Exact homography (h33 = 1) taking 4 points src onto 4 points dst."""
    A = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(src, dst)):
        A[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        A[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i], b[2 * i + 1] = u, v
    return np.append(np.linalg.solve(A, b), 1.0).reshape(3, 3)


def project(H, pts):
    """(images (N, 2), denominators (N,)) of field points under H."""
    pts = np.asarray(pts, dtype=float)
    den = H[2, 0] * pts[:, 0] + H[2, 1] * pts[:, 1] + H[2, 2]
    u = (H[0, 0] * pts[:, 0] + H[0, 1] * pts[:, 1] + H[0, 2]) / den
    v = (H[1, 0] * pts[:, 0] + H[1, 1] * pts[:, 1] + H[1, 2]) / den
    return np.column_stack([u, v]), den


def similarity(a, b, tx, ty):
    return np.array([[a, -b, tx], [b, a, ty], [0.0, 0.0, 1.0]])


def apply_affine(M, pts):
    return pts @ M[:2, :2].T + M[:2, 2]


def image_corners():
    return np.array([[0.0, 0.0], [WIDTH_PX, 0.0], [WIDTH_PX, HEIGHT_PX], [0.0, HEIGHT_PX]])


# -- scenes --------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    index: int
    H: np.ndarray             # ground-truth field-to-image homography, h33 = 1
    motion: tuple             # provided (a, b, tx, ty) from the previous frame; None at 0
    gt_idx: np.ndarray        # canonical indices of visible keypoints
    gt_pos: np.ndarray        # their exact images
    meas_idx: np.ndarray      # detected subset
    meas_pos: np.ndarray      # noisy detections
    flow: tuple = None        # (prev (M, 2), curr (M, 2)) or None


@dataclass(frozen=True)
class SceneSpec:
    n_frames: int
    view_field: tuple         # field rectangle (x0, y0, x1, y1) in meters ...
    view_quad: tuple          # ... and the image quad it maps to at frame 0
    measurement: tuple        # R as ((xx, xy), (xy, yy)), px^2
    dropout: float
    jitter_px: float          # sd of the per-frame image translation J_t
    pan_px: float             # per-frame pan amplitude
    zoom: float               # per-frame zoom amplitude
    roll: float               # per-frame rotation amplitude, radians
    period: float             # frames
    flow_pairs: int = 0       # flow correspondences per frame (0: no flow)
    flow_outliers: float = 0.0
    view_jitter: float = 0.01  # uniform jitter of view_quad, fraction of the image


def _view(spec, rng, mirror):
    x0, y0, x1, y1 = spec.view_field
    src = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    if mirror:
        src = np.column_stack([FIELD_W_M - src[:, 0], src[:, 1]])[[1, 0, 3, 2]]
    quad = np.array(spec.view_quad) * [WIDTH_PX, HEIGHT_PX]
    quad = quad + spec.view_jitter * rng.uniform(-1.0, 1.0, size=(4, 2)) * [WIDTH_PX, HEIGHT_PX]
    return homography_from_quad(src, quad)


def _visible(H, positions):
    img, den = project(H, positions)
    ok = ((den > 1e-9) & (img[:, 0] >= 0) & (img[:, 0] <= WIDTH_PX)
          & (img[:, 1] >= 0) & (img[:, 1] <= HEIGHT_PX))
    idx = np.flatnonzero(ok)
    return idx, img[idx]


def _flow(rng, true_motion, n_pairs, outlier_frac):
    prev = rng.uniform([0.0, 0.0], [WIDTH_PX, HEIGHT_PX], size=(n_pairs, 2))
    curr = apply_affine(true_motion, prev) + rng.normal(0.0, 0.25, size=(n_pairs, 2))
    n_out = int(round(outlier_frac * n_pairs))
    heading = rng.uniform(0.0, 2.0 * np.pi, size=n_out)
    speed = rng.uniform(4.0, 20.0, size=n_out)
    curr[:n_out] += np.column_stack([np.cos(heading), np.sin(heading)]) * speed[:, None]
    return prev, curr


def generate_scene(spec, template, seed, mirror=False):
    """List of Frame for one camera over one template.

    Pan, zoom and roll increments are sinusoids with seed-drawn phases, so
    the camera sways about its starting view instead of drifting off the
    pitch.  Draw order per frame: motion jitter, flow, dropout, noise.
    """
    rng = np.random.default_rng(seed)
    H = _view(spec, rng, mirror)
    H = H / H[2, 2]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
    R = np.array(spec.measurement, dtype=float)
    chol = np.linalg.cholesky(R)
    cx, cy = WIDTH_PX / 2.0, HEIGHT_PX / 2.0
    frames = []
    for t in range(spec.n_frames):
        motion = flow = None
        if t > 0:
            w = 2.0 * np.pi * t / spec.period
            ang = spec.roll * math.sin(w + phases[0])
            s = 1.0 + spec.zoom * math.sin(w + phases[1])
            a, b = s * math.cos(ang), s * math.sin(ang)
            # rotate/zoom about the image centre, then pan
            tx = cx - (a * cx - b * cy) + spec.pan_px * math.sin(w + phases[2])
            ty = cy - (b * cx + a * cy) + 0.3 * spec.pan_px * math.cos(w + phases[3])
            M = similarity(a, b, tx, ty)
            jx, jy = rng.normal(0.0, spec.jitter_px, size=2)
            true_motion = similarity(1.0, 0.0, jx, jy) @ M
            H = true_motion @ H
            H = H / H[2, 2]
            motion = (a, b, tx, ty)
            if spec.flow_pairs:
                flow = _flow(rng, true_motion, spec.flow_pairs, spec.flow_outliers)
        gt_idx, gt_pos = _visible(H, template.positions)
        keep = rng.random(gt_idx.size) >= spec.dropout
        meas_idx = gt_idx[keep]
        meas_pos = gt_pos[keep] + rng.standard_normal((meas_idx.size, 2)) @ chol.T
        frames.append(Frame(t, H.copy(), motion, gt_idx, gt_pos, meas_idx, meas_pos, flow))
    return frames


def has_init_frame(frames, template, min_area_m2=1.0):
    """True when some frame detects 4 keypoints no 3 of which are collinear:
    fieldreg's filter cannot initialize without one."""
    for fr in frames:
        pts = template.positions[fr.meas_idx]
        if pts.shape[0] >= 4 and _four_in_general_position(pts, min_area_m2):
            return True
    return False


def _four_in_general_position(pts, min_area):
    def area(p, q, r):
        return 0.5 * abs((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))

    n = pts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if area(pts[i], pts[j], pts[k]) < min_area:
                    continue
                for m in range(k + 1, n):
                    if (area(pts[i], pts[j], pts[m]) >= min_area
                            and area(pts[i], pts[k], pts[m]) >= min_area
                            and area(pts[j], pts[k], pts[m]) >= min_area):
                        return True
    return False


# -- files in the formats of docs/file_formats.md ------------------------------


def _rows(ids, pos):
    return [[int(i), float(x), float(y)] for i, (x, y) in zip(ids, pos)]


def write_sequence(path, sequence_id, frames, template):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"kind": "sequence", "version": 1, "sequence_id": sequence_id,
                            "width_px": WIDTH_PX, "height_px": HEIGHT_PX}) + "\n")
        for fr in frames:
            row = {"frame": fr.index,
                   "measurements": _rows(template.ids[fr.meas_idx], fr.meas_pos)}
            if fr.motion is not None:
                row["motion"] = [float(v) for v in fr.motion]
            row["gt_homography"] = [[float(v) for v in r] for r in fr.H]
            row["gt_keypoints"] = _rows(template.ids[fr.gt_idx], fr.gt_pos)
            f.write(json.dumps(row) + "\n")


def write_template(path, template):
    doc = {"kind": "field_template", "version": 1, "width_m": FIELD_W_M,
           "height_m": FIELD_H_M, "keypoints": _rows(template.ids, template.positions)}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def matched_bank_document(spec, init_sd):
    """Covariance bank matching a SceneSpec's generative model.

    Measurement noise is R, keypoint process noise is the jitter J_t (an
    image translation moves every keypoint by the same vector), and the
    homography process is that translation in (h13, h23).  The init block
    is diagonal with the given standard deviations per parameter.
    """
    def mat(m):
        return [[float(v) for v in r] for r in np.asarray(m, dtype=float)]

    q = spec.jitter_px ** 2
    hp = np.zeros((8, 8))
    hp[6, 6] = hp[7, 7] = q
    return {
        "kind": "covariance_bank", "version": 1,
        "homography_param_order": H_PARAM_ORDER_TAG,
        "matrix_layout": "row-major",
        "keypoint_process": {"pooled": mat(q * np.eye(2)), "per_id": {}, "counts": {}},
        "measurement": {"pooled": mat(spec.measurement), "per_id": {}, "counts": {}},
        "homography_process": mat(hp),
        "init_homography": mat(np.diag(np.square(init_sd))),
        "samples": {"homography_process": 0, "init_homography": 0},
    }
