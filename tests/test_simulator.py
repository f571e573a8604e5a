"""Synthetic sequence generator: exactness, determinism, noise statistics."""

import numpy as np
import pytest

from fieldreg.defaults import DEFAULT_MEASUREMENT
from fieldreg.errors import DegenerateHomography, DimensionMismatch, EmptyVisibleRegion
from fieldreg.geometry import apply_homography
from fieldreg.motion import AffineSimilarity
from fieldreg.simulator import (
    SimConfig,
    SimNoise,
    generate_sequence,
    matched_bank,
    pan_motion_script,
    visible_keypoints,
)
from helpers import DIMS, TEMPLATE, view_homography


def noiseless_config(n_frames=30, seed=0, **kw):
    return SimConfig(template=TEMPLATE, dims=DIMS, n_frames=n_frames,
                     initial_homography=view_homography(),
                     motions=pan_motion_script(n_frames), seed=seed, **kw)


def test_noiseless_ground_truth_is_exact():
    frames = generate_sequence(noiseless_config())
    assert len(frames) == 30
    assert frames[0].motion is None
    H = view_homography()
    for t, fr in enumerate(frames):
        if t > 0:
            H = fr.motion.as_matrix() @ H
        assert np.abs(fr.gt_homography - H).max() < 1e-12
        expect = apply_homography(fr.gt_homography, TEMPLATE.positions[fr.gt_ids])
        assert np.abs(fr.gt_positions - expect).max() < 1e-12
        # no noise, no dropout: measurements are the ground truth
        assert np.array_equal(fr.measurements.ids, fr.gt_ids)
        assert np.array_equal(fr.measurements.positions, fr.gt_positions)
        assert fr.measurements.frame_index == t


def test_visible_keypoints_in_bounds():
    frames = generate_sequence(noiseless_config())
    for fr in frames:
        assert fr.gt_ids.size >= 4
        p = fr.gt_positions
        assert (p[:, 0] >= 0).all() and (p[:, 0] <= 1280).all()
        assert (p[:, 1] >= 0).all() and (p[:, 1] <= 720).all()


def test_visible_keypoints_hand_case():
    # zoom on the left half: every template point with x > ~63.5 m falls
    # off the 1280 px image under u = 20 x + 10
    H = np.array([[20.0, 0.0, 10.0], [0.0, 10.0, 10.0], [0.0, 0.0, 1.0]])
    idx, pos = visible_keypoints(H, TEMPLATE, DIMS)
    expect = (TEMPLATE.positions[:, 0] * 20.0 + 10.0 <= 1280.0)
    assert np.array_equal(np.flatnonzero(expect), idx)
    assert np.allclose(pos, TEMPLATE.positions[idx] * [20.0, 10.0] + 10.0, atol=1e-12)


def test_determinism_same_seed():
    a = generate_sequence(noiseless_config(
        noise=SimNoise(measurement=DEFAULT_MEASUREMENT), dropout=0.2))
    b = generate_sequence(noiseless_config(
        noise=SimNoise(measurement=DEFAULT_MEASUREMENT), dropout=0.2))
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.gt_homography, fb.gt_homography)
        assert np.array_equal(fa.measurements.ids, fb.measurements.ids)
        assert np.array_equal(fa.measurements.positions, fb.measurements.positions)
    c = generate_sequence(noiseless_config(
        noise=SimNoise(measurement=DEFAULT_MEASUREMENT), dropout=0.2, seed=1))
    assert not np.array_equal(a[1].measurements.positions, c[1].measurements.positions)


def test_dropout_thins_measurements():
    cfg = noiseless_config(n_frames=200, dropout=0.3)
    frames = generate_sequence(cfg)
    n_vis = sum(fr.gt_ids.size for fr in frames)
    n_meas = sum(fr.measurements.k for fr in frames)
    rate = 1.0 - n_meas / n_vis
    assert 0.25 < rate < 0.35
    for fr in frames:
        assert np.isin(fr.measurements.ids, fr.gt_ids).all()
        # dropout thins the detections, never the ground truth
        assert np.array_equal(fr.gt_ids,
                              np.flatnonzero(np.isin(np.arange(TEMPLATE.n), fr.gt_ids)))


def test_measurement_noise_statistics():
    cfg = noiseless_config(n_frames=400,
                           noise=SimNoise(measurement=DEFAULT_MEASUREMENT))
    frames = generate_sequence(cfg)
    errs = []
    for fr in frames:
        gt = dict(zip(fr.gt_ids.tolist(), fr.gt_positions))
        for i, p in zip(fr.measurements.ids.tolist(), fr.measurements.positions):
            errs.append(p - gt[i])
    E = np.asarray(errs)
    cov = E.T @ E / E.shape[0]
    assert np.abs(cov - DEFAULT_MEASUREMENT).max() < 0.15 * np.abs(DEFAULT_MEASUREMENT).max()


def test_homography_noise_perturbs_chain():
    cfg = noiseless_config(noise=SimNoise(homography_process=1e-6 * np.eye(8)))
    frames = generate_sequence(cfg)
    H = view_homography()
    drift = 0.0
    for t, fr in enumerate(frames):
        if t == 0:
            continue
        pred = fr.motion.as_matrix() @ frames[t - 1].gt_homography
        drift = max(drift, np.abs(fr.gt_homography - pred).max())
        assert fr.gt_homography[2, 2] == 1.0
    assert 1e-5 < drift < 1e-1
    assert np.abs(frames[-1].gt_homography - H).max() > 0.0


def test_empty_visible_region_raises():
    off_field = np.array([[1.0, 0.0, 1e6], [0.0, 1.0, 1e6], [0.0, 0.0, 1.0]])
    with pytest.raises(EmptyVisibleRegion):
        generate_sequence(SimConfig(template=TEMPLATE, dims=DIMS, n_frames=3,
                                    initial_homography=off_field,
                                    motions=pan_motion_script(3)))


def test_degenerate_chain_raises():
    shrink = AffineSimilarity.from_params(scale=1e-8)
    with pytest.raises(DegenerateHomography):
        generate_sequence(SimConfig(template=TEMPLATE, dims=DIMS, n_frames=2,
                                    initial_homography=view_homography(),
                                    motions=[shrink]))


def test_pan_motion_script_shape():
    steps = pan_motion_script(120)
    assert len(steps) == 119
    assert all(isinstance(s, AffineSimilarity) for s in steps)
    flat = pan_motion_script(10, angle_amplitude=0.0, scale_amplitude=0.0,
                             translation_amplitude=(0.0, 0.0))
    for s in flat:
        assert np.array_equal(s.as_matrix(), np.eye(3))
    # periodicity: steps one period apart coincide
    steps = pan_motion_script(300, period=120.0)
    assert np.allclose(steps[10].params(), steps[130].params(), atol=1e-12)


def test_config_validation():
    with pytest.raises(DimensionMismatch):
        SimConfig(template=TEMPLATE, dims=DIMS, n_frames=5,
                  initial_homography=view_homography(), motions=pan_motion_script(4))
    with pytest.raises(ValueError):
        SimConfig(template=TEMPLATE, dims=DIMS, n_frames=5,
                  initial_homography=view_homography(),
                  motions=pan_motion_script(5), dropout=1.0)


@pytest.mark.parametrize("entry, message", [
    (np.nan, "non-finite entries in measurement"),
    (-1.0, "measurement must have nonnegative diagonals"),
])
def test_sim_noise_checks_covariances_like_the_filters(entry, message):
    with pytest.raises(ValueError, match=message):
        SimNoise(measurement=np.array([[entry, 0.0], [0.0, 1.0]]))


def test_matched_bank():
    cfg = noiseless_config(noise=SimNoise(measurement=DEFAULT_MEASUREMENT))
    bank = matched_bank(cfg)
    assert np.allclose(bank.measurement_pooled, DEFAULT_MEASUREMENT, atol=1e-12)
    assert np.array_equal(bank.keypoint_process_pooled, np.zeros((2, 2)))
    assert bank.init_homography.shape == (8, 8)
    assert np.array_equal(bank.init_homography, bank.init_homography.T)
    assert np.linalg.eigvalsh(bank.init_homography).min() >= -1e-9
    custom = matched_bank(cfg, init_homography_cov=np.eye(8))
    assert np.allclose(custom.init_homography, np.eye(8), atol=1e-12)
    noise = bank.noise_for(TEMPLATE)
    assert np.allclose(noise.measurement[0], DEFAULT_MEASUREMENT, atol=1e-12)
