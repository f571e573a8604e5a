"""Image-space keypoint filter against a dense textbook Kalman oracle."""

import numpy as np
import pytest

from fieldreg.errors import DimensionMismatch, SingularInnovation, UnknownKeypointId
from fieldreg.keypoint_filter import (
    KeypointFilterState,
    MeasurementFrame,
    NoiseConfig,
    init_keypoint_state,
    lkf_predict,
    lkf_update,
)
from fieldreg.motion import AffineSimilarity
from dense_filter import block_diag
from helpers import uniform_noise


def random_spd(rng, d=2, scale=1.0):
    A = rng.normal(0, scale, size=(d, d))
    return A @ A.T + 0.1 * scale * np.eye(d)


def random_noise(rng, n):
    proc = np.stack([random_spd(rng, scale=0.3) for _ in range(n)])
    meas = np.stack([random_spd(rng, scale=1.0) for _ in range(n)])
    return NoiseConfig(process=proc, measurement=meas)


def random_motion(rng):
    return AffineSimilarity(a=rng.normal(1, 0.05), b=rng.normal(0, 0.05),
                            tx=rng.normal(0, 3), ty=rng.normal(0, 3))


def dense_predict(mean, cov, motion, noise):
    n = noise.n
    F = np.kron(np.eye(n), motion.linear)
    u = np.tile(motion.translation, n)
    return F @ mean + u, F @ cov @ F.T + block_diag(noise.process)


def dense_update(mean, cov, ids, y, noise):
    n = noise.n
    k = len(ids)
    H = np.zeros((2 * k, 2 * n))
    R = np.zeros((2 * k, 2 * k))
    for r, j in enumerate(ids):
        H[2 * r, 2 * j] = 1.0
        H[2 * r + 1, 2 * j + 1] = 1.0
        R[2 * r:2 * r + 2, 2 * r:2 * r + 2] = noise.measurement[j]
    S = H @ cov @ H.T + R
    K = cov @ H.T @ np.linalg.inv(S)
    mean = mean + K @ (y.ravel() - H @ mean)
    IKH = np.eye(2 * n) - K @ H
    cov = IKH @ cov @ IKH.T + K @ R @ K.T
    return mean, cov


def test_first_observation_initializes_directly():
    rng = np.random.default_rng(0)
    noise = random_noise(rng, 4)
    state = init_keypoint_state(4)
    obs = MeasurementFrame(0, np.array([2, 0]), np.array([[10.0, 20.0], [-1.0, 3.0]]))
    state = lkf_update(state, obs, noise)
    assert np.array_equal(state.keypoint_means()[2], [10.0, 20.0])
    assert np.array_equal(state.keypoint_means()[0], [-1.0, 3.0])
    cov = block_diag(state.cov)
    assert np.allclose(cov[4:6, 4:6], noise.measurement[2], atol=0)
    assert np.allclose(cov[0:2, 0:2], noise.measurement[0], atol=0)
    assert state.measured_ever.tolist() == [True, False, True, False]
    assert state.measured_now.tolist() == [True, False, True, False]
    # cross-covariance between keypoints starts (and stays) zero
    assert np.all(cov[0:2, 4:6] == 0.0)


def test_filter_matches_dense_oracle():
    rng = np.random.default_rng(1)
    n = 5
    noise = random_noise(rng, n)
    state = init_keypoint_state(n)
    first = MeasurementFrame(0, np.arange(n), rng.uniform(0, 100, size=(n, 2)))
    state = lkf_update(state, first, noise)
    mean, cov = state.mean.copy(), block_diag(state.cov)

    for step in range(1, 7):
        motion = random_motion(rng)
        state = lkf_predict(state, motion, noise)
        mean, cov = dense_predict(mean, cov, motion, noise)
        assert np.allclose(state.mean, mean, atol=1e-10)
        assert np.allclose(block_diag(state.cov), cov, atol=1e-10)

        k = rng.integers(1, n + 1)
        ids = rng.choice(n, size=k, replace=False)
        y = state.keypoint_means()[ids] + rng.normal(0, 2, size=(k, 2))
        state = lkf_update(state, MeasurementFrame(step, ids, y), noise)
        mean, cov = dense_update(mean, cov, ids, y, noise)
        assert np.allclose(state.mean, mean, atol=1e-9)
        assert np.allclose(block_diag(state.cov), cov, atol=1e-9)


def test_mixed_new_and_known_matches_oracle():
    # ids 0,1 initialized on frame 0; frame 1 observes 1 (known) and 3 (new):
    # the known id follows the dense update, the new one is a direct insert
    rng = np.random.default_rng(2)
    noise = random_noise(rng, 4)
    state = init_keypoint_state(4)
    state = lkf_update(state, MeasurementFrame(0, np.array([0, 1]),
                                               np.array([[5.0, 5.0], [9.0, 1.0]])), noise)
    mean, cov = state.mean.copy(), block_diag(state.cov)
    motion = random_motion(rng)
    state = lkf_predict(state, motion, noise)
    mean, cov = dense_predict(mean, cov, motion, noise)

    y = np.array([[10.0, 2.0], [55.0, 44.0]])
    state = lkf_update(state, MeasurementFrame(1, np.array([1, 3]), y), noise)
    mean, cov = dense_update(mean, cov, [1], y[:1], noise)
    mean[6:8] = y[1]
    cov[6:8, :] = 0.0
    cov[:, 6:8] = 0.0
    cov[6:8, 6:8] = noise.measurement[3]
    assert np.allclose(state.mean, mean, atol=1e-9)
    assert np.allclose(block_diag(state.cov), cov, atol=1e-9)
    assert state.measured_ever.tolist() == [True, True, False, True]
    assert state.measured_now.tolist() == [False, True, False, True]


def test_predict_pure_translation():
    noise = uniform_noise(3, process=0.5 * np.eye(2), measurement=np.eye(2))
    state = init_keypoint_state(3)
    state = lkf_update(state, MeasurementFrame(0, np.arange(3),
                                               np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])),
                       noise)
    moved = lkf_predict(state, AffineSimilarity(a=1.0, b=0.0, tx=3.0, ty=-1.0), noise)
    assert np.allclose(moved.keypoint_means() - state.keypoint_means(),
                       [[3.0, -1.0]] * 3, atol=0)
    assert np.allclose(block_diag(moved.cov), block_diag(state.cov) + 0.5 * np.eye(6), atol=1e-15)
    assert np.array_equal(moved.measured_ever, state.measured_ever)
    assert np.array_equal(moved.measured_now, state.measured_now)


def test_empty_frame_keeps_moments():
    rng = np.random.default_rng(3)
    noise = random_noise(rng, 3)
    state = init_keypoint_state(3)
    state = lkf_update(state, MeasurementFrame(0, np.arange(3),
                                               rng.uniform(0, 10, (3, 2))), noise)
    after = lkf_update(state, MeasurementFrame(1, np.empty(0, dtype=int),
                                               np.empty((0, 2))), noise)
    assert np.array_equal(after.mean, state.mean)
    assert np.array_equal(after.cov, state.cov)
    assert not after.measured_now.any()
    assert after.measured_ever.all()


def test_covariance_stays_symmetric_and_psd():
    rng = np.random.default_rng(4)
    n = 6
    noise = random_noise(rng, n)
    state = init_keypoint_state(n)
    state = lkf_update(state, MeasurementFrame(0, np.arange(n),
                                               rng.uniform(0, 100, (n, 2))), noise)
    for step in range(1, 60):
        state = lkf_predict(state, random_motion(rng), noise)
        k = rng.integers(0, n + 1)
        ids = rng.choice(n, size=k, replace=False)
        y = rng.uniform(0, 100, size=(k, 2))
        state = lkf_update(state, MeasurementFrame(step, ids, y), noise)
        cov = block_diag(state.cov)
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-9


def test_singular_innovation_raises():
    zero = uniform_noise(2, process=np.zeros((2, 2)), measurement=np.zeros((2, 2)))
    state = init_keypoint_state(2)
    frame = MeasurementFrame(0, np.array([0]), np.array([[1.0, 1.0]]))
    state = lkf_update(state, frame, zero)    # direct init, cov block = 0
    with pytest.raises(SingularInnovation):
        lkf_update(state, MeasurementFrame(1, np.array([0]), np.array([[1.0, 1.0]])), zero)


def test_input_validation():
    rng = np.random.default_rng(6)
    noise = random_noise(rng, 3)
    state = init_keypoint_state(3)
    with pytest.raises(UnknownKeypointId):
        lkf_update(state, MeasurementFrame(0, np.array([3]), np.array([[0.0, 0.0]])), noise)
    with pytest.raises(ValueError):
        MeasurementFrame(0, np.array([1, 1]), np.zeros((2, 2)))
    with pytest.raises(UnknownKeypointId):
        MeasurementFrame(0, np.array([-1]), np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        lkf_update(init_keypoint_state(4),
                   MeasurementFrame(0, np.array([0]), np.array([[0.0, 0.0]])), noise)
    with pytest.raises(DimensionMismatch):
        KeypointFilterState(mean=np.zeros(4), cov=np.zeros((2, 2, 2)),
                            measured_ever=np.zeros(3, dtype=bool),
                            measured_now=np.zeros(3, dtype=bool))


def test_indefinite_innovation_block_raises():
    # keypoint 1's block has a positive diagonal but a negative determinant,
    # so only the 2x2 determinant test can reject its innovation block
    noise = uniform_noise(2, process=np.eye(2), measurement=np.eye(2))
    cov = np.stack([np.eye(2), np.array([[1.0, 3.0], [3.0, 1.0]])])
    state = KeypointFilterState(mean=np.zeros(4), cov=cov,
                                measured_ever=np.ones(2, dtype=bool),
                                measured_now=np.zeros(2, dtype=bool))
    frame = MeasurementFrame(1, np.array([0, 1]), np.ones((2, 2)))
    with pytest.raises(SingularInnovation):
        lkf_update(state, frame, noise)
    # the well-posed keypoint alone updates fine
    lkf_update(state, MeasurementFrame(1, np.array([0]), np.ones((1, 2))), noise)


def test_dense_covariance_layout_rejected():
    with pytest.raises(DimensionMismatch):
        KeypointFilterState(mean=np.zeros(6), cov=np.zeros((6, 6)),
                            measured_ever=np.zeros(3, dtype=bool),
                            measured_now=np.zeros(3, dtype=bool))
