"""Inter-frame global motion: the 4-parameter similarity and its robust fit."""

import numpy as np
import pytest

import lstsq_motion
from fieldreg.errors import DegenerateConfiguration, InsufficientPoints, NoConsensus
from fieldreg.motion import AffineSimilarity, estimate_global_motion
from lstsq_motion import closed_form_fit


def test_identity():
    m = AffineSimilarity.identity()
    assert np.array_equal(m.as_matrix(), np.eye(3))
    pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
    assert np.array_equal(m.transform(pts), pts)


def test_from_params_worked_example():
    # a = s cos(t), b = s sin(t) with s = 2, t = pi/6:
    # a = 2*cos(pi/6) = 1.7320508075688774, b = 2*sin(pi/6) = 1 (approx)
    m = AffineSimilarity.from_params(angle=np.pi / 6.0, scale=2.0, translation=(5.0, -1.0))
    assert m.a == pytest.approx(1.7320508075688774, abs=1e-15)
    assert m.b == pytest.approx(1.0, abs=1e-15)
    assert np.hypot(m.a, m.b) == pytest.approx(2.0, abs=1e-12)
    assert np.arctan2(m.b, m.a) == pytest.approx(np.pi / 6.0, abs=1e-12)
    assert np.array_equal(m.as_matrix(), [[m.a, -m.b, 5.0], [m.b, m.a, -1.0], [0.0, 0.0, 1.0]])
    out = m.transform(np.array([1.0, 0.0]))
    assert out == pytest.approx([1.7320508075688774 + 5.0, 1.0 - 1.0], abs=1e-12)


def test_matrix_last_row_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = AffineSimilarity.from_params(angle=rng.normal(0, 0.5),
                                         scale=rng.uniform(0.5, 2.0),
                                         translation=rng.normal(0, 10, size=2))
        A = m.as_matrix()
        assert A[2, 0] == 0.0 and A[2, 1] == 0.0 and A[2, 2] == 1.0
        assert np.array_equal(A[:2, :2], [[m.a, -m.b], [m.b, m.a]])


def test_transform_matches_matrix():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = AffineSimilarity(a=rng.normal(1, 0.2), b=rng.normal(0, 0.2),
                             tx=rng.normal(0, 5), ty=rng.normal(0, 5))
        pts = rng.uniform(-10, 10, size=(6, 2))
        A = m.as_matrix()
        expect = pts @ A[:2, :2].T + A[:2, 2]
        assert np.allclose(m.transform(pts), expect, atol=1e-12)


def test_zero_scale_rejected():
    with pytest.raises(ValueError):
        AffineSimilarity(a=0.0, b=0.0, tx=1.0, ty=2.0)


def test_fit_similarity_exact():
    rng = np.random.default_rng(4)
    for _ in range(10):
        true = AffineSimilarity(a=rng.normal(1, 0.2), b=rng.normal(0, 0.2),
                                tx=rng.normal(0, 10), ty=rng.normal(0, 10))
        prev = rng.uniform(0, 100, size=(8, 2))
        curr = true.transform(prev)
        est = closed_form_fit(prev, curr)
        assert np.allclose(est.params(), true.params(), atol=1e-9)


def test_fit_similarity_two_points_suffice():
    true = AffineSimilarity(a=0.9, b=0.1, tx=3.0, ty=-2.0)
    prev = np.array([[0.0, 0.0], [10.0, 5.0]])
    est = closed_form_fit(prev, true.transform(prev))
    assert np.allclose(est.params(), true.params(), atol=1e-9)
    with pytest.raises(InsufficientPoints):
        closed_form_fit(prev[:1], prev[:1])


def test_fit_similarity_least_squares_oracle():
    # overdetermined noisy fit must match the normal-equations solution of
    # [x -y 1 0; y x 0 1] [a b tx ty]' = [x' y']
    rng = np.random.default_rng(5)
    prev = rng.uniform(0, 50, size=(12, 2))
    curr = prev @ np.array([[1.05, -0.08], [0.08, 1.05]]).T + [2.0, -1.0]
    curr += rng.normal(0, 0.5, size=curr.shape)
    M = np.zeros((24, 4))
    M[0::2, 0] = prev[:, 0]
    M[0::2, 1] = -prev[:, 1]
    M[0::2, 2] = 1.0
    M[1::2, 0] = prev[:, 1]
    M[1::2, 1] = prev[:, 0]
    M[1::2, 3] = 1.0
    rhs = curr.ravel()
    ref, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    est = closed_form_fit(prev, curr)
    assert np.allclose(est.params(), ref, atol=1e-9)


def test_estimate_global_motion_clean():
    rng = np.random.default_rng(6)
    true = AffineSimilarity(a=1.01, b=-0.02, tx=4.0, ty=1.5)
    prev = rng.uniform(0, 1280, size=(30, 2))
    model, mask = estimate_global_motion(prev, true.transform(prev), rng_seed=0)
    assert mask.all()
    assert np.allclose(model.params(), true.params(), atol=1e-6)


def test_estimate_global_motion_rejects_outliers():
    rng = np.random.default_rng(7)
    for seed in range(5):
        true = AffineSimilarity(a=1.0, b=0.01, tx=-3.0, ty=2.0)
        prev = rng.uniform(0, 1280, size=(40, 2))
        curr = true.transform(prev)
        bad = rng.choice(40, size=12, replace=False)  # moving players
        curr[bad] += rng.uniform(20, 60, size=(12, 2))
        model, mask = estimate_global_motion(prev, curr, rng_seed=seed)
        assert np.allclose(model.params(), true.params(), atol=1e-6)
        assert mask.shape == (40,)
        assert not mask[bad].any()
        good = np.setdiff1d(np.arange(40), bad)
        assert mask[good].all()


def test_displacement_gate_drops_far_vectors():
    # 20 consistent small displacements plus 3 gross ones; the median/MAD gate
    # must exclude the gross ones before any model is fit
    rng = np.random.default_rng(8)
    prev = rng.uniform(0, 500, size=(23, 2))
    curr = prev + [2.0, 1.0]
    curr[:3] = prev[:3] + [400.0, -300.0]
    model, mask = estimate_global_motion(prev, curr, rng_seed=0)
    assert not mask[:3].any()
    assert mask[3:].all()
    assert np.allclose(model.params(), [1.0, 0.0, 2.0, 1.0], atol=1e-9)


def test_zero_motion_mad_floor():
    # all displacements identical: MAD = 0, the gate floor must keep them
    prev = np.arange(20.0).reshape(10, 2) * 7.3
    curr = prev + [1.0, -2.0]
    model, mask = estimate_global_motion(prev, curr, rng_seed=0)
    assert mask.all()
    assert np.allclose(model.params(), [1.0, 0.0, 1.0, -2.0], atol=1e-9)


def test_estimate_global_motion_input_checks():
    with pytest.raises(InsufficientPoints):
        estimate_global_motion(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        estimate_global_motion(np.zeros((3, 2)), np.zeros((4, 2)))


# -- the closed-form fits against the least-squares solve they replaced ------


def contaminated_flow(seed):
    """Seeded flow pairs: a similarity with pixel noise, a share of gross
    outliers, and, depending on the seed, duplicated pairs and source points
    a hair apart."""
    rng = np.random.default_rng([31, seed])
    m = int(rng.integers(2, 90))
    true = AffineSimilarity(a=rng.normal(1, 0.01), b=rng.normal(0, 0.01),
                            tx=rng.normal(0, 5), ty=rng.normal(0, 5))
    prev = rng.uniform(0, 1280, size=(m, 2))
    curr = true.transform(prev) + rng.normal(0, 0.3, size=(m, 2))
    bad = rng.random(m) < rng.uniform(0, 0.4)
    curr[bad] += rng.uniform(-40, 40, size=(int(bad.sum()), 2))
    if seed % 3 == 0:      # exact duplicate pairs
        dup = rng.integers(0, m, size=max(1, m // 4))
        prev, curr = np.vstack([prev, prev[dup]]), np.vstack([curr, curr[dup]])
    if seed % 4 == 0:      # source points 1e-7 px from another
        near = rng.integers(0, m, size=max(1, m // 4))
        prev = np.vstack([prev, prev[near] + 1e-7])
        curr = np.vstack([curr, curr[near] + rng.normal(0, 0.3, size=(near.size, 2))])
    return prev, curr


def relative_gap(got, want):
    return np.linalg.norm(got.params() - want.params()) / np.linalg.norm(want.params())


def test_estimate_global_motion_matches_least_squares_oracle():
    checked = 0
    for seed in range(240):
        prev, curr = contaminated_flow(seed)
        try:
            want, want_mask = lstsq_motion.estimate_global_motion(prev, curr, rng_seed=seed)
        except (InsufficientPoints, NoConsensus, DegenerateConfiguration) as e:
            with pytest.raises(type(e)):
                estimate_global_motion(prev, curr, rng_seed=seed)
            continue
        got, got_mask = estimate_global_motion(prev, curr, rng_seed=seed)
        assert np.array_equal(got_mask, want_mask), f"seed {seed}"
        assert relative_gap(got, want) <= 1e-10, f"seed {seed}"
        checked += 1
    assert checked >= 200


def test_fit_similarity_matches_least_squares_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = int(rng.integers(2, 40))
        prev = rng.uniform(-50, 1300, size=(m, 2))
        curr = prev @ rng.normal(0, 1, size=(2, 2)) + rng.normal(0, 100, size=2)
        want = lstsq_motion.fit_similarity(prev, curr)
        assert relative_gap(closed_form_fit(prev, curr), want) <= 1e-10


@pytest.mark.parametrize("offset", [0.0, 1e-13])
def test_coincident_sources_are_degenerate_for_both_fits(offset):
    # a 2M x 4 least-squares solve counts these as rank 2; so does the closed form
    prev = np.array([[640.0, 360.0], [640.0 + offset, 360.0], [640.0, 360.0]])
    curr = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    for fit in (lstsq_motion.fit_similarity, closed_form_fit):
        with pytest.raises(DegenerateConfiguration):
            fit(prev, curr)


def test_near_coincident_sources_still_fit():
    # 1.4e-6 px apart: far above the rank cut-off (about 1e-9 px here), but
    # the rounding of curr limits both fits to about 1e-4 in the translation
    true = AffineSimilarity(a=0.99, b=0.02, tx=3.0, ty=-1.0)
    prev = np.array([[640.0, 360.0], [640.0 + 1e-6, 360.0 + 1e-6]])
    for fit in (lstsq_motion.fit_similarity, closed_form_fit):
        assert np.allclose(fit(prev, true.transform(prev)).params(), true.params(),
                           rtol=0.0, atol=1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_global_motion_rejects_non_finite_points(bad):
    prev = np.arange(20.0).reshape(10, 2)
    curr = prev + 1.0
    curr[4, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        estimate_global_motion(prev, curr)
    with pytest.raises(ValueError, match="non-finite"):
        estimate_global_motion(curr, prev)
