"""The scalar polygon kernels and homography metrics against the NumPy oracle.

tests/numpy_polygons.py keeps the earlier NumPy formulation of the same
operations.  On seeded cases -- convex, reflex, bow-tie and collinear
polygons, vertices at and behind projective infinity, NaN and Inf
coordinates, and disjoint, nested and edge-touching clip pairs -- both sides
must give bit-identical vertices, areas and metric values, or raise the same
exception type.  One difference is deliberate: a NaN determinant or
normalizer makes invert_homography raise SingularMatrix, where the NumPy
formulation returned a NaN matrix.
"""

import numpy as np
import pytest

import numpy_polygons as oracle
from fieldreg import geometry, metrics
from fieldreg.errors import SingularMatrix
from helpers import DIMS, TEMPLATE, view_homography

N_CASES = 600   # cases per generator call site below


def bits(x):
    """Values as int64 bit patterns, every NaN mapped to one pattern."""
    a = np.array(x, dtype=float).reshape(-1)
    a[np.isnan(a)] = np.nan
    return a.view(np.int64).tolist()


def outcome(fn, *args):
    """("ok", bit patterns) or ("raise", exception type)."""
    with np.errstate(all="ignore"):
        try:
            return "ok", bits(fn(*args))
        except Exception as e:   # the oracle's exception type is the reference
            return "raise", type(e)


def assert_same(new, old):
    got, want = outcome(new), outcome(old)
    assert got == want, (got, want)


# -- polygon generators ---------------------------------------------------------


def convex(rng, n=4):
    """Strictly convex n-gon: points on an ellipse at sorted random angles."""
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    c = rng.uniform(-500.0, 500.0, 2)
    r = rng.uniform(1.0, 800.0, 2)
    v = c + r * np.column_stack([np.cos(ang), np.sin(ang)])
    return v[::-1] if rng.random() < 0.5 else v


def odd_polygon(rng):
    """Reflex, bow-tie, collinear or repeated-vertex quads and pentagons,
    and triangles, starting at any vertex."""
    v = convex(rng, int(rng.integers(4, 6)))
    kind = rng.integers(5)
    if kind == 0:     # reflex: one vertex pulled past its neighbours' chord
        v[0] = v[0] + 1.5 * ((v[1] + v[-1]) / 2.0 - v[0])
    elif kind == 1:   # bow-tie
        v[[1, 2]] = v[[2, 1]]
    elif kind == 2:   # three collinear vertices
        v[1] = (v[0] + v[2]) / 2.0
    elif kind == 3:   # repeated vertex
        v[1] = v[0]
    else:
        v = v[:3]
    return np.roll(v, rng.integers(v.shape[0]), axis=0)


def poisoned(rng):
    """A convex polygon with one coordinate NaN, +Inf or -Inf, or huge."""
    v = convex(rng, int(rng.integers(3, 7)))
    i, j = rng.integers(v.shape[0]), rng.integers(2)
    v[i, j] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308])
    return v


def clip_pair(rng):
    """Overlapping, disjoint, nested, edge-touching or identical pairs."""
    a = convex(rng, int(rng.integers(3, 8)))
    kind = rng.integers(6)
    if kind == 0:
        b = convex(rng, int(rng.integers(3, 8)))
    elif kind == 1:     # disjoint
        b = a + (a.max(axis=0) - a.min(axis=0)) * 3.0 + 1.0
    elif kind == 2:     # nested: a shrunk copy of a
        c = a.mean(axis=0)
        b = c + rng.uniform(0.1, 0.9) * (a - c)
    elif kind == 3:     # sharing an edge with an axis-aligned rectangle
        x0, y0 = rng.uniform(-100.0, 100.0, 2)
        w, h = rng.uniform(1.0, 200.0, 2)
        a = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
        b = a + [w, 0.0] if rng.random() < 0.5 else a + [w, h]   # edge or corner
    elif kind == 4:
        b = a.copy()
    else:
        b = odd_polygon(rng)
    return (a, b) if rng.random() < 0.5 else (b, a)


# -- the polygon kernels --------------------------------------------------------


def polygon_cases():
    rng = np.random.default_rng(9001)
    for k in range(N_CASES):
        yield convex(rng, int(rng.integers(3, 8)))
        yield odd_polygon(rng)
        yield poisoned(rng)


def test_area_orientation_and_convexity_match_the_oracle():
    for v in polygon_cases():
        pts = v.tolist()
        assert_same(lambda: geometry.signed_area(pts), lambda: oracle.signed_area(v))
        assert_same(lambda: geometry.polygon_area(pts), lambda: oracle.polygon_area(v))
        assert_same(lambda: geometry.ensure_ccw(pts), lambda: oracle.ensure_ccw(v))
        assert_same(lambda: geometry.convex_polygon(pts), lambda: oracle.convex_polygon(v))


def test_sampler_matches_the_oracle():
    # collinear, repeated and reflex vertices give fan triangles of zero or
    # negative area, which get zero weight
    rng = np.random.default_rng(9004)
    for k in range(N_CASES):
        v = convex(rng, int(rng.integers(3, 8))) if k % 2 else odd_polygon(rng)
        x, y = metrics._sample_convex_polygon(v.tolist(), 16, np.random.default_rng(k))
        want = oracle.sample_convex_polygon(v, 16, np.random.default_rng(k))
        assert bits(np.column_stack([x, y])) == bits(want), v


def test_clip_polygon_matches_the_oracle():
    rng = np.random.default_rng(9002)
    kinds = set()
    for k in range(4 * N_CASES):
        if k % 4 == 3:
            a, b = poisoned(rng), convex(rng)
        else:
            a, b = clip_pair(rng)
        got = outcome(geometry.clip_polygon, a.tolist(), b.tolist())
        assert got == outcome(oracle.clip_polygon, a, b), (a, b)
        if got[0] == "ok":
            with np.errstate(all="ignore"):
                area = oracle.polygon_area(oracle.clip_polygon(a, b))
            kinds.add("empty" if len(got[1]) == 0 else "area" if area > 0.0 else "flat")
            assert_same(lambda: metrics._iou(a.tolist(), b.tolist()),
                        lambda: oracle.iou(a, b))
    assert kinds == {"empty", "area", "flat"}


# -- the homography metrics -----------------------------------------------------


def homography_pair(rng):
    """(h_gt, h_pred): near pairs, pairs whose horizon crosses the quads, a
    template corner mapped to infinity, and exactly singular maps."""
    h_gt = view_homography(rng=rng, jitter_px=25.0)
    P = np.eye(3) + rng.uniform(-0.03, 0.03, (3, 3)) * [[1, 1, 100], [1, 1, 100], [1e-2, 1e-2, 0]]
    kind = rng.integers(4)
    if kind == 1:     # strong perspective
        P[2, :2] = rng.uniform(-0.05, 0.05, 2)
    elif kind == 2:   # the far touchline's corners at infinity
        P = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0 / TEMPLATE.height_m, 1.0]])
    h_pred = h_gt @ P
    h_pred = h_pred / h_pred[2, 2]
    if kind == 3:     # second column twice the first: the determinant is exactly 0
        h_pred[:, 1] = 2.0 * h_pred[:, 0]
    return (h_gt, h_pred) if rng.random() < 0.8 else (h_pred, h_gt)


def test_homography_metrics_match_the_oracle():
    rng = np.random.default_rng(9003)
    raised = set()
    for k in range(N_CASES):
        h_gt, h_pred = homography_pair(rng)
        rows_gt, rows_pred = h_gt.tolist(), h_pred.tolist()
        field, image = TEMPLATE.corners(), DIMS.corners()
        for new, old in (
            (lambda: geometry.invert_rows(rows_pred), lambda: oracle.invert_homography(h_pred)),
            (lambda: metrics._composite(rows_pred, rows_gt),
             lambda: oracle.composite(h_pred, h_gt)),
            (lambda: metrics._mapped_quad(rows_pred, field.tolist()),
             lambda: oracle.mapped_quad(h_pred, field)),
            (lambda: metrics._mapped_quad(rows_gt, image.tolist()),
             lambda: oracle.mapped_quad(h_gt, image)),
            (lambda: metrics.iou_entire(h_gt, h_pred, TEMPLATE),
             lambda: oracle.iou_entire(h_gt, h_pred, TEMPLATE)),
            (lambda: metrics.iou_entire_image(h_gt, h_pred, DIMS),
             lambda: oracle.iou_entire_image(h_gt, h_pred, DIMS)),
            (lambda: metrics.iou_part(h_gt, h_pred, DIMS),
             lambda: oracle.iou_part(h_gt, h_pred, DIMS)),
            (lambda: metrics.projection_error(h_gt, h_pred, TEMPLATE, DIMS, 64, k),
             lambda: oracle.projection_error(h_gt, h_pred, TEMPLATE, DIMS, 64, k)),
            (lambda: metrics.reprojection_error(h_gt, h_pred, TEMPLATE, DIMS),
             lambda: oracle.reprojection_error(h_gt, h_pred, TEMPLATE, DIMS)),
        ):
            got, want = outcome(new), outcome(old)
            assert got == want, (k, h_gt, h_pred, got, want)
            if got[0] == "raise":
                raised.add(got[1].__name__)
    assert raised == {"SingularMatrix", "DegenerateProjection"}


@pytest.mark.parametrize("den", [geometry.EPS_T, 0.0, -1.0, np.nextafter(geometry.EPS_T, 1.0)])
def test_mapped_quad_matches_the_oracle_at_the_infinity_threshold(den):
    H = np.diag([1.0, 1.0, den])
    corners = DIMS.corners()
    assert_same(lambda: metrics._mapped_quad(H.tolist(), corners.tolist()),
                lambda: oracle.mapped_quad(H, corners))


@pytest.mark.parametrize("H", [
    [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    # a finite determinant (-1e100), but h11 h22 - h12 h21 overflows to inf - inf
    [[1e200, 1e200, 0.0], [2e200, 1e200, 0.0], [0.0, 0.0, 1e-300]],
])
def test_invert_homography_rejects_a_nan_determinant_or_normalizer(H):
    # where the NumPy formulation returned a NaN matrix
    with pytest.raises(SingularMatrix):
        geometry.invert_homography(np.array(H))
