"""Projective primitives: mapping, DLT, robust fitting, polygon clipping."""

import hashlib
import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from fieldreg.errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    PointAtInfinity,
    SingularMatrix,
)
from fieldreg.geometry import (
    RANSAC_INLIER_THRESHOLD_PX,
    RansacParams,
    _draw_samples,
    _inlier_masks,
    _minimal_homographies,
    apply_homography,
    clip_polygon,
    convex_polygon,
    dlt_homography,
    ensure_ccw,
    homography_from_params,
    homography_params,
    invert_homography,
    normalize_homography,
    polygon_area,
    project,
    ransac_homography,
    ransac_trials,
    reprojection_distances,
    signed_area,
)
from fieldreg.seqio import read_sequence
from helpers import (
    KERNEL_ENVS,
    TEMPLATE,
    points_in_convex_polygon,
    random_homography,
    run_python,
    view_homography,
)


def test_apply_homography_worked_example():
    # hand-computed: u = (2*10 + 3) / (0.01*10 + 1), v = (20 - 1) / 1.1
    H = np.array([[2.0, 0.0, 3.0], [0.0, 1.0, -1.0], [0.01, 0.0, 1.0]])
    out = apply_homography(H, np.array([10.0, 20.0]))
    assert out.shape == (2,)
    assert out[0] == pytest.approx(20.909090909090907, abs=1e-13)
    assert out[1] == pytest.approx(17.27272727272727, abs=1e-13)


def test_apply_homography_batch_matches_single():
    rng = np.random.default_rng(0)
    for _ in range(10):
        H = random_homography(rng)
        pts = rng.uniform(-2.0, 2.0, size=(7, 2))
        batch = apply_homography(H, pts)
        assert batch.shape == (7, 2)
        for i in range(7):
            single = apply_homography(H, pts[i])
            assert np.allclose(batch[i], single, atol=1e-14)


def test_apply_homography_identity_exact():
    pts = np.array([[3.5, -2.0], [0.0, 0.0], [1e6, 1e-6]])
    assert np.array_equal(apply_homography(np.eye(3), pts), pts)


def test_point_at_infinity_raises():
    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(PointAtInfinity):
        apply_homography(H, np.array([0.0, 5.0]))  # denominator exactly 0
    with pytest.raises(PointAtInfinity):
        apply_homography(H, np.array([1e-15, 5.0]))  # nonzero, below EPS_T


def test_homography_denominators():
    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, -0.25, 2.0]])
    den = project(H, np.array([2.0, 0.0]), np.array([4.0, 0.0]))[2]
    assert den == pytest.approx([2.0, 2.0], abs=0)


def test_normalize_homography_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(10):
        H = random_homography(rng)
        s = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        assert np.allclose(normalize_homography(s * H), H, atol=1e-12)
    with pytest.raises(SingularMatrix):
        normalize_homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1e-15]]))


def test_invert_homography_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        H = random_homography(rng)
        Hinv = invert_homography(H)
        assert Hinv[2, 2] == 1.0
        prod = H @ Hinv
        assert np.allclose(prod / prod[2, 2], np.eye(3), atol=1e-12)
        assert np.allclose(invert_homography(Hinv), H, atol=1e-10)
    with pytest.raises(SingularMatrix):
        invert_homography(np.ones((3, 3)))


def test_param_vector_order():
    # column-stacked: h11 h21 h31 h12 h22 h32 h13 h23
    H = np.array([[1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [3.0, 6.0, 1.0]])
    p = homography_params(H)
    assert np.array_equal(p, np.arange(1.0, 9.0))
    assert np.array_equal(homography_from_params(p), H)


def test_params_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        H = random_homography(rng)
        assert np.array_equal(homography_from_params(homography_params(H)), H)


def test_dlt_recovers_exact_homography():
    rng = np.random.default_rng(4)
    for n_points in (4, 6, 12):
        for _ in range(10):
            H = random_homography(rng)
            src = rng.uniform(-3.0, 3.0, size=(n_points, 2))
            dst = apply_homography(H, src)
            est = dlt_homography(src, dst)
            assert est[2, 2] == 1.0
            assert np.abs(est - H).max() < 1e-9


def test_dlt_view_homography_recovery():
    rng = np.random.default_rng(5)
    H = view_homography()
    src = rng.uniform([0.0, 0.0], [105.0, 68.0], size=(8, 2))
    dst = apply_homography(H, src)
    assert np.abs(dlt_homography(src, dst) - H).max() < 1e-9


def test_dlt_rejects_degenerate_input():
    with pytest.raises(InsufficientPoints):
        dlt_homography(np.zeros((3, 2)), np.zeros((3, 2)))
    # 4 collinear points span no projective frame
    src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(DegenerateConfiguration):
        dlt_homography(src, src + 1.0)
    with pytest.raises(DegenerateConfiguration):
        dlt_homography(np.zeros((4, 2)) + 2.5, np.ones((4, 2)))


def test_reprojection_distances():
    H = np.eye(3)
    src = np.array([[0.0, 0.0], [1.0, 0.0]])
    dst = np.array([[3.0, 4.0], [1.0, 0.0]])
    d = reprojection_distances(H, src, dst)
    assert d == pytest.approx([5.0, 0.0], abs=1e-14)


def test_ransac_clean_data_exact():
    rng = np.random.default_rng(6)
    for seed in range(10):
        H = random_homography(rng)
        src = rng.uniform(-3.0, 3.0, size=(12, 2))
        dst = apply_homography(H, src)
        est, mask = ransac_homography(src, dst, RansacParams(inlier_threshold_px=1e-6, seed=seed))
        assert mask.all()
        assert np.abs(est - H).max() < 1e-9


def test_ransac_with_outliers():
    rng = np.random.default_rng(7)
    for seed in range(10):
        H = random_homography(rng)
        src = rng.uniform(-3.0, 3.0, size=(20, 2))
        dst = apply_homography(H, src)
        bad = rng.choice(20, size=6, replace=False)  # 30% outliers
        dst[bad] += rng.uniform(3.0, 6.0, size=(6, 2)) * rng.choice([-1.0, 1.0], size=(6, 2))
        est, mask = ransac_homography(src, dst, RansacParams(inlier_threshold_px=1e-3, seed=seed))
        assert np.abs(est - H).max() < 1e-6
        good = np.ones(20, dtype=bool)
        good[bad] = False
        assert np.array_equal(mask, good)


def test_ransac_mask_matches_threshold():
    rng = np.random.default_rng(8)
    H = random_homography(rng)
    src = rng.uniform(-3.0, 3.0, size=(15, 2))
    dst = apply_homography(H, src)
    dst[0] += 50.0
    est, mask = ransac_homography(src, dst, RansacParams(inlier_threshold_px=1.0, seed=0))
    d = reprojection_distances(est, src, dst)
    assert np.array_equal(mask, d <= 1.0)


def test_ransac_deterministic_in_seed():
    rng = np.random.default_rng(9)
    H = random_homography(rng)
    src = rng.uniform(-3.0, 3.0, size=(10, 2))
    dst = apply_homography(H, src) + rng.normal(0.0, 0.01, size=(10, 2))
    a = ransac_homography(src, dst, RansacParams(inlier_threshold_px=0.05, seed=42))
    b = ransac_homography(src, dst, RansacParams(inlier_threshold_px=0.05, seed=42))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_ransac_needs_four_points():
    pts = np.zeros((3, 2))
    with pytest.raises(InsufficientPoints):
        ransac_homography(pts, pts)


def test_ransac_trials_matches_the_textbook_table():
    # Hartley & Zisserman, Multiple View Geometry, table 4.3 (p = 0.99): at
    # 50% outliers a 4-point sample needs 72 draws and a 2-point one 17
    assert ransac_trials(0.5, 4, 0.99) == 72
    assert ransac_trials(0.5, 2, 0.99) == 17
    # every point an inlier: stop now; no inlier: no count suffices
    assert ransac_trials(1.0, 4, 0.99) == 0
    assert ransac_trials(0.0, 4, 0.99) == np.inf


def _has_collinear_triple(points):
    # exactly, in rationals: the closed form must flag these and only these
    P = [(Fraction(x), Fraction(y)) for x, y in points]
    return any((q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])
               for p, q, r in itertools.combinations(P, 3))


def test_minimal_solver_matches_one_by_one_solves():
    # Draws of template keypoints often put three on one pitch line, so a
    # batch mixes singular samples with regular ones.  Exactly the samples
    # with three collinear source or destination points are flagged.  Each
    # regular one maps its four points onto their partners, and agrees with
    # its own 8x8 solve: the two exact solutions of one system differ only by
    # rounding (at most 1.5e-10 relative on these draws).
    rng = np.random.default_rng(10)
    src = TEMPLATE.positions
    dst = apply_homography(view_homography(), src) + rng.normal(0.0, 2.0, size=src.shape)
    samples = np.argpartition(rng.random((300, TEMPLATE.n)), 3, axis=1)[:, :4]
    cand, valid = _minimal_homographies(src[samples], dst[samples])
    collinear = [_has_collinear_triple(src[idx]) or _has_collinear_triple(dst[idx])
                 for idx in samples]
    assert np.array_equal(valid, np.logical_not(collinear))
    assert 0 < valid.sum() < len(samples)
    assert all(np.array_equal(H, np.eye(3)) for H in cand[~valid])
    for H, idx in zip(cand[valid], samples[valid]):
        np.testing.assert_allclose(apply_homography(H, src[idx]), dst[idx], rtol=1e-9, atol=0)
        A = np.zeros((8, 8))
        for r, ((x, y), (u, v)) in enumerate(zip(src[idx], dst[idx])):
            A[r] = [x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y]
            A[r + 4] = [0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y]
        h = np.linalg.solve(A, np.concatenate([dst[idx, 0], dst[idx, 1]]))
        np.testing.assert_allclose(H, np.append(h, 1.0).reshape(3, 3), rtol=1e-8, atol=0)


def hypothesis_digest():
    """SHA-256 of the samples, candidates, validity flags and scored inlier
    masks of 512 seeded draws on each golden-sequence frame."""
    _, frames = read_sequence(pathlib.Path(__file__).parent / "data" / "golden_sequence.jsonl",
                              TEMPLATE)
    rng = np.random.default_rng(14)
    digest = hashlib.sha256()
    for frame in frames:
        meas = frame.measurements
        if meas.k < 4:
            continue
        src, dst = TEMPLATE.positions[meas.ids], meas.positions
        samples = _draw_samples(rng, 512, meas.k)
        cand, valid = _minimal_homographies(src[samples], dst[samples])
        masks = _inlier_masks(cand, valid, src, dst, RANSAC_INLIER_THRESHOLD_PX ** 2)
        for a in (samples, cand, valid, masks):
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


@KERNEL_ENVS
def test_hypotheses_do_not_depend_on_blas_kernels(kernel_env):
    # the closed-form hypotheses and their scoring make no BLAS or LAPACK call
    proc = run_python(["-c", "import test_geometry; print(test_geometry.hypothesis_digest())"],
                      kernel_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == hypothesis_digest() + "\n"


def square(x0, y0, side):
    return [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]


def test_signed_area_orientation():
    sq = square(0.0, 0.0, 2.0)
    assert signed_area(sq) == 4.0
    assert signed_area(sq[::-1]) == -4.0
    assert polygon_area(sq[::-1]) == 4.0
    flipped = ensure_ccw(sq[::-1])
    assert flipped == sq
    assert signed_area(flipped) == 4.0
    assert signed_area(sq[:2]) == 0.0


def test_convex_polygon_validation():
    sq = square(0.0, 0.0, 2.0)
    assert convex_polygon(sq) == sq
    assert convex_polygon(sq[::-1]) == sq
    bowtie = [(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]
    with pytest.raises(ValueError):
        convex_polygon(bowtie)
    with pytest.raises(ValueError):
        convex_polygon([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 0.0)])
    with pytest.raises(ValueError, match="non-finite"):
        convex_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, float("nan"))])
    with pytest.raises(ValueError):
        convex_polygon(sq[:2])


def test_clip_polygon_overlapping_squares():
    a = square(0.0, 0.0, 4.0)
    b = square(2.0, 2.0, 4.0)
    out = clip_polygon(a, b)
    assert polygon_area(out) == pytest.approx(4.0, abs=1e-12)
    assert set(out) == {(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)}


def test_clip_polygon_contained_and_disjoint():
    outer = square(0.0, 0.0, 10.0)
    inner = square(2.0, 2.0, 1.0)
    assert polygon_area(clip_polygon(inner, outer)) == pytest.approx(1.0, abs=1e-12)
    assert polygon_area(clip_polygon(outer, inner)) == pytest.approx(1.0, abs=1e-12)
    far = square(102.0, 102.0, 1.0)
    assert clip_polygon(outer, far) == []


def test_clip_polygon_triangle_square():
    # triangle (0,0) (4,0) (0,4) clipped to unit square: area 1 - 0.5*0 ... the
    # hypotenuse x+y=4 misses the square entirely, so the square survives whole
    tri = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
    sq = square(0.0, 0.0, 1.0)
    assert polygon_area(clip_polygon(sq, tri)) == pytest.approx(1.0, abs=1e-12)
    # shrink the triangle so the cut goes through: x+y <= 1 leaves half the square
    tri2 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    assert polygon_area(clip_polygon(sq, tri2)) == pytest.approx(0.5, abs=1e-12)


def test_points_in_convex_polygon():
    quad = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    pts = np.array([[2.0, 2.0], [4.5, 2.0], [0.0, 0.0], [-0.1, 3.0], [4.0, 4.0]])
    inside = points_in_convex_polygon(pts, quad)
    assert inside.tolist() == [True, False, True, False, True]
