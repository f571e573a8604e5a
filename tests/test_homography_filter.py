"""Homography-level EKF: exact prediction, Jacobian, textbook update oracle."""

import numpy as np
import pytest

from fieldreg import homography_filter
from fieldreg.errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    NumericalDegeneracy,
    SingularInnovation,
    UnknownKeypointId,
)
from fieldreg.geometry import apply_homography, homography_from_params
from fieldreg.homography_filter import (
    HomographyFilterState,
    _transition_matrix,
    ekf_init,
    ekf_predict,
    ekf_update,
    measurement_jacobian,
)
from fieldreg.keypoint_filter import KeypointFilterState, MeasurementFrame
from fieldreg.motion import AffineSimilarity
import dense_filter as dense
from dense_filter import block_diag, predict_measurements
from helpers import TEMPLATE, fd_jacobian, pooled_bank, view_homography


def init_state(seed=0, bank=None):
    H = view_homography()
    ids = np.arange(TEMPLATE.n)
    frame = MeasurementFrame(0, ids, apply_homography(H, TEMPLATE.positions))
    return ekf_init(frame, TEMPLATE, bank or pooled_bank()), H


def full_kp_state(rng, state, meas_cov_scale=1.0):
    """First-stage posterior stand-in: noisy projections, SPD block covariance."""
    n = TEMPLATE.n
    proj = apply_homography(homography_from_params(state.h_mean), TEMPLATE.positions)
    mean = (proj + rng.normal(0, 1.0, size=proj.shape)).ravel()
    cov = np.zeros((n, 2, 2))
    for j in range(n):
        A = rng.normal(0, meas_cov_scale, size=(2, 2))
        cov[j] = A @ A.T + 0.5 * np.eye(2)
    return KeypointFilterState(mean=mean, cov=cov,
                               measured_ever=np.ones(n, dtype=bool),
                               measured_now=np.ones(n, dtype=bool))


def test_transition_matrix_blocks():
    m = AffineSimilarity(a=1.1, b=-0.2, tx=3.0, ty=4.0)
    A3 = m.as_matrix()
    F = _transition_matrix(m.as_matrix())
    assert np.array_equal(F[0:3, 0:3], A3)
    assert np.array_equal(F[3:6, 3:6], A3)
    assert np.array_equal(F[6:8, 6:8], A3[:2, :2])
    F_zeroed = F.copy()
    F_zeroed[0:3, 0:3] = 0.0
    F_zeroed[3:6, 3:6] = 0.0
    F_zeroed[6:8, 6:8] = 0.0
    assert not F_zeroed.any()


def test_ekf_init_recovers_exact_homography():
    state, H = init_state()
    assert np.abs(homography_from_params(state.h_mean) - H).max() < 1e-9
    assert np.array_equal(state.cov, pooled_bank().init_homography)


def test_ekf_init_input_checks():
    frame = MeasurementFrame(0, np.arange(3), np.zeros((3, 2)))
    with pytest.raises(InsufficientPoints):
        ekf_init(frame, TEMPLATE, pooled_bank())
    # template positions all on the x = 0 goal line: every 4-sample is collinear
    ids = np.array([0, 3, 11, 14, 15, 18])
    assert np.all(TEMPLATE.positions[ids][:, 0] == 0.0)
    frame = MeasurementFrame(0, ids, np.arange(12, dtype=float).reshape(6, 2))
    with pytest.raises(DegenerateConfiguration):
        ekf_init(frame, TEMPLATE, pooled_bank())


def test_predict_mean_is_exact_matrix_product():
    state, H = init_state()
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = AffineSimilarity(a=rng.normal(1, 0.1), b=rng.normal(0, 0.1),
                             tx=rng.normal(0, 5), ty=rng.normal(0, 5))
        moved = ekf_predict(state, m, pooled_bank())
        expect = m.as_matrix() @ homography_from_params(state.h_mean)
        # bitwise: the product's last row is (h31, h32, 1) untouched
        assert np.array_equal(homography_from_params(moved.h_mean), expect)
        assert moved.h_mean[2] == state.h_mean[2]
        assert moved.h_mean[5] == state.h_mean[5]
        state = moved


def test_predict_covariance_oracle():
    state, _ = init_state()
    m = AffineSimilarity(a=1.02, b=-0.03, tx=2.0, ty=-1.0)
    bank = pooled_bank()
    moved = ekf_predict(state, m, bank)
    F = _transition_matrix(m.as_matrix())
    expect = F @ state.cov @ F.T + bank.homography_process
    assert moved.cov.shape == (8, 8)
    assert np.allclose(moved.cov, 0.5 * (expect + expect.T), atol=1e-15)


def test_predicted_measurements_are_projections():
    # the projections the update subtracts from its measurements
    state, H = init_state()
    active = np.array([0, 5, 17, 30])
    pred, _ = homography_filter._jacobian_terms(state, active, TEMPLATE)
    expect = apply_homography(homography_from_params(state.h_mean), TEMPLATE.positions[active])
    assert np.allclose(pred, expect, atol=1e-12)


def test_jacobian_matches_central_differences():
    state, _ = init_state()
    active = np.array([0, 6, 12, 22, 30])
    J = measurement_jacobian(state, active, TEMPLATE)

    def f(x):
        s = HomographyFilterState(h_mean=x, cov=state.cov)
        return predict_measurements(s, active, TEMPLATE).ravel()

    J_fd = fd_jacobian(f, state.h_mean, step=1e-6)
    assert J.shape == (10, 8)
    scale = np.maximum(np.abs(J), 1.0)
    assert (np.abs(J - J_fd) / scale).max() < 1e-4


def test_update_matches_dense_oracle():
    rng = np.random.default_rng(1)
    state, _ = init_state()
    n = TEMPLATE.n
    kp = full_kp_state(rng, state)
    active = np.sort(rng.choice(n, size=12, replace=False))

    updated = ekf_update(state, kp, active, TEMPLATE)

    ci = np.empty(2 * active.size, dtype=int)
    ci[0::2] = 2 * active
    ci[1::2] = 2 * active + 1
    z = kp.mean[ci]
    R = block_diag(kp.cov)[np.ix_(ci, ci)]
    J = measurement_jacobian(state, active, TEMPLATE)
    pred = predict_measurements(state, active, TEMPLATE).ravel()
    P = state.cov
    S = J @ P @ J.T + R
    K = P @ J.T @ np.linalg.inv(0.5 * (S + S.T))
    mean = state.h_mean + K @ (z - pred)
    IKJ = np.eye(8) - K @ J
    cov = IKJ @ P @ IKJ.T + K @ R @ K.T

    assert np.allclose(updated.h_mean, mean, atol=1e-9)
    assert np.allclose(updated.cov, 0.5 * (cov + cov.T), atol=1e-9)


def test_update_pulls_homography_toward_truth():
    # start from a perturbed homography; fusing exact projections of the true
    # one must shrink the parameter error
    rng = np.random.default_rng(2)
    state, H = init_state()
    p_true = state.h_mean.copy()
    p_bad = p_true * (1.0 + 1e-3) + 1e-5
    # vague prior scaled to each parameter's magnitude (the perspective terms
    # h31, h32 live at 1e-3, the translation terms at 1e2)
    loose = np.diag([1.0, 1.0, 1e-8, 1.0, 1.0, 1e-8, 1e4, 1e4])
    bad = HomographyFilterState(h_mean=p_bad, cov=loose)
    n = TEMPLATE.n
    proj = apply_homography(H, TEMPLATE.positions)
    kp = KeypointFilterState(mean=proj.ravel(),
                             cov=np.tile(0.01 * np.eye(2), (n, 1, 1)),
                             measured_ever=np.ones(n, dtype=bool),
                             measured_now=np.ones(n, dtype=bool))
    updated = ekf_update(bad, kp, np.arange(n), TEMPLATE, max_condition=1e18)
    err_before = np.abs(p_bad - p_true).max()
    err_after = np.abs(updated.h_mean - p_true).max()
    assert err_after < 0.1 * err_before


def test_update_empty_active_set_is_identity():
    state, _ = init_state()
    rng = np.random.default_rng(3)
    kp = full_kp_state(rng, state)
    assert ekf_update(state, kp, np.empty(0, dtype=int), TEMPLATE) is state


def test_update_requires_measured_keypoints():
    state, _ = init_state()
    rng = np.random.default_rng(4)
    kp = full_kp_state(rng, state)
    kp = KeypointFilterState(mean=kp.mean, cov=kp.cov,
                             measured_ever=np.zeros(TEMPLATE.n, dtype=bool),
                             measured_now=np.zeros(TEMPLATE.n, dtype=bool))
    with pytest.raises(ValueError):
        ekf_update(state, kp, np.array([0]), TEMPLATE)


def test_condition_cap_raises():
    state, _ = init_state()
    rng = np.random.default_rng(5)
    kp = full_kp_state(rng, state)
    with pytest.raises(SingularInnovation):
        ekf_update(state, kp, np.arange(TEMPLATE.n), TEMPLATE, max_condition=1.0)


def test_denominator_degeneracy_raises():
    state, _ = init_state()
    h = state.h_mean.copy()
    h[2] = -1.0 / 105.0      # D = 0 exactly at the (105, 0) corner
    h[5] = 0.0
    bad = HomographyFilterState(h_mean=h, cov=state.cov)
    with pytest.raises(NumericalDegeneracy):
        measurement_jacobian(bad, np.array([1]), TEMPLATE)


def test_covariance_symmetric_psd_over_steps():
    rng = np.random.default_rng(6)
    state, _ = init_state()
    n = TEMPLATE.n
    for step in range(30):
        m = AffineSimilarity(a=rng.normal(1, 0.02), b=rng.normal(0, 0.02),
                             tx=rng.normal(0, 2), ty=rng.normal(0, 2))
        state = ekf_predict(state, m, pooled_bank())
        kp = full_kp_state(rng, state)
        active = np.sort(rng.choice(n, size=rng.integers(4, n), replace=False))
        state = ekf_update(state, kp, active, TEMPLATE)
        assert np.array_equal(state.cov, state.cov.T)
        assert np.linalg.eigvalsh(state.cov).min() > -1e-9


def test_indefinite_keypoint_block_raises():
    # no condition cap: the positive-definiteness test alone must reject it
    state, _ = init_state()
    rng = np.random.default_rng(7)
    kp = full_kp_state(rng, state)
    cov = kp.cov.copy()
    cov[3] = np.array([[1.0, 0.0], [0.0, -1e9]])
    kp = KeypointFilterState(mean=kp.mean, cov=cov, measured_ever=kp.measured_ever,
                             measured_now=kp.measured_now)
    with pytest.raises(SingularInnovation):
        ekf_update(state, kp, np.arange(TEMPLATE.n), TEMPLATE, max_condition=np.inf)


def test_zeroed_keypoint_block_among_many_raises():
    # S = J P J^T + R stays positive definite here, but a zero R block has no
    # whitening factor, so the update is skipped as lkf_update would skip it
    state, _ = init_state()
    kp = full_kp_state(np.random.default_rng(9), state)
    cov = kp.cov.copy()
    cov[4] = 0.0
    kp = KeypointFilterState(mean=kp.mean, cov=cov, measured_ever=kp.measured_ever,
                             measured_now=kp.measured_now)
    active = np.arange(TEMPLATE.n)
    J = measurement_jacobian(state, active, TEMPLATE)
    assert np.linalg.eigvalsh(J @ state.cov @ J.T + block_diag(cov)).min() > 0.0
    with pytest.raises(SingularInnovation, match="not positive definite"):
        ekf_update(state, kp, active, TEMPLATE)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_innovation_raises(bad):
    state, _ = init_state()
    rng = np.random.default_rng(8)
    kp = full_kp_state(rng, state)
    cov = kp.cov.copy()
    cov[5, 0, 0] = bad
    kp = KeypointFilterState(mean=kp.mean, cov=cov, measured_ever=kp.measured_ever,
                             measured_now=kp.measured_now)
    with pytest.raises(SingularInnovation):
        ekf_update(state, kp, np.arange(TEMPLATE.n), TEMPLATE, max_condition=np.inf)


@pytest.mark.parametrize("bad", ["n", -1])
def test_out_of_range_active_index_raises(bad):
    state, _ = init_state()
    kp = full_kp_state(np.random.default_rng(9), state)
    active = np.array([0, TEMPLATE.n if bad == "n" else bad])
    with pytest.raises(UnknownKeypointId):
        ekf_update(state, kp, active, TEMPLATE)
    with pytest.raises(UnknownKeypointId):
        measurement_jacobian(state, active, TEMPLATE)


def dense_kp(kp):
    return dense.DenseKeypointState(kp.mean, block_diag(kp.cov), kp.measured_ever,
                                    kp.measured_now)


def exact_spectrum(state, kp, active):
    """Extreme eigenvalues of the dense S = J P J^T + R."""
    J = measurement_jacobian(state, active, TEMPLATE)
    R = block_diag(kp.cov[active])
    S = J @ state.cov @ J.T + R
    eig = np.linalg.eigvalsh(0.5 * (S + S.T))
    return eig[0], eig[-1]


def innovation_bounds(JC, blocks):
    a, c = blocks[:, 0, 0], blocks[:, 1, 1]
    b = blocks[:, 0, 1]
    return homography_filter._innovation_bounds(JC, a, b, c, a * c - b * b)


def cheap_condition_bound(state, kp, active):
    J = measurement_jacobian(state, active, TEMPLATE)
    lo, hi = innovation_bounds(J @ np.linalg.cholesky(state.cov), kp.cov[active])
    return hi / lo


def assert_matches_dense(state, kp, active, max_condition):
    got = ekf_update(state, kp, active, TEMPLATE, max_condition=max_condition)
    want = dense.ekf_update(state, dense_kp(kp), active, TEMPLATE,
                            max_condition=max_condition)
    for a, b in ((got.h_mean, want.h_mean), (got.cov, want.cov)):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


def spy_on_exact_gate(monkeypatch):
    """Calls to the exact gate, the only place that forms the dense S."""
    calls = []
    exact = homography_filter._exact_gate

    def spy(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(homography_filter, "_exact_gate", spy)
    return calls


def test_condition_bounds_enclose_exact_spectrum():
    rng = np.random.default_rng(10)
    for _ in range(200):
        k, dim = rng.integers(1, 40), rng.integers(1, 12)
        J = rng.normal(0.0, 10.0 ** rng.uniform(-2, 3), size=(2 * k, dim))
        C = np.tril(rng.normal(size=(dim, dim))) * 10.0 ** rng.uniform(-4, 1)
        A = rng.normal(size=(k, 2, 2))
        blocks = A @ A.transpose(0, 2, 1) + 10.0 ** rng.uniform(-6, 0) * np.eye(2)
        S = J @ C @ C.T @ J.T + block_diag(blocks)
        eig = np.linalg.eigvalsh(0.5 * (S + S.T))
        lo, hi = innovation_bounds(J @ C, blocks)
        assert 0.0 < lo <= eig[0] * (1.0 + 1e-9)
        assert hi >= eig[-1] * (1.0 - 1e-9)
        assert hi / lo >= (eig[-1] / eig[0]) * (1.0 - 1e-9)


def gate_case():
    state, _ = init_state(bank=pooled_bank(init_homography=1e-6 * np.eye(8)))
    kp = full_kp_state(np.random.default_rng(11), state)
    active = np.arange(TEMPLATE.n)
    lo, hi = exact_spectrum(state, kp, active)
    return state, kp, active, hi / lo


def test_fallback_accepts_between_exact_condition_and_bound(monkeypatch):
    # the cheap bound cannot certify this cap, the exact ratio passes it
    state, kp, active, cond = gate_case()
    bound = cheap_condition_bound(state, kp, active)
    cap = np.sqrt(cond * bound)
    assert cond * (1.0 + 1e-6) < cap < bound * (1.0 - 1e-6)
    calls = spy_on_exact_gate(monkeypatch)
    assert_matches_dense(state, kp, active, cap)
    assert len(calls) == 1


def test_cap_just_below_exact_condition_raises():
    state, kp, active, cond = gate_case()
    with pytest.raises(SingularInnovation):
        ekf_update(state, kp, active, TEMPLATE, max_condition=cond * (1.0 - 1e-6))


def test_cheap_path_matches_dense_oracle(monkeypatch):
    state, kp, active, _ = gate_case()
    calls = spy_on_exact_gate(monkeypatch)
    assert_matches_dense(state, kp, active, 1e12)
    assert not calls


def test_rank_deficient_init_cov_matches_dense(monkeypatch):
    # rows 0 and 1 coincide exactly (0.125^2 = 2^-6), so P has no Cholesky
    # factor; its eigenpairs factor it, and the bound still decides the gate
    init_cov = 1e-2 * np.eye(8)
    init_cov[:2, :2] = 2.0 ** -6
    state, _ = init_state(bank=pooled_bank(init_homography=init_cov))
    kp = full_kp_state(np.random.default_rng(12), state)
    calls = spy_on_exact_gate(monkeypatch)
    assert_matches_dense(state, kp, np.arange(TEMPLATE.n), 1e12)
    assert not calls
