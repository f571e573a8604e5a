"""Covariance estimators: hand-built oracles, pooling rules, recovery rates."""

from dataclasses import replace

import numpy as np
import pytest

from fieldreg.calibration import (
    calibrate_bank,
    estimate_homography_process_cov,
    estimate_init_homography_cov,
    estimate_keypoint_process_cov,
    estimate_measurement_cov,
    repair_psd,
)
from fieldreg.errors import NoSamples, UnknownKeypointId
from fieldreg.geometry import RansacParams, apply_homography
from fieldreg.motion import AffineSimilarity
from fieldreg.seqio import SequenceFrame, TrainingRecord, write_bank
from fieldreg.simulator import SimConfig, SimNoise, generate_sequence, pan_motion_script
from helpers import DIMS, TEMPLATE, view_homography


def make_record(frame_index, H, gt_ids, meas_offset=None, motion=None):
    gt_pos = apply_homography(H, TEMPLATE.positions[gt_ids])
    meas = gt_pos if meas_offset is None else gt_pos + meas_offset
    return TrainingRecord(frame_index=frame_index, gt_homography=H,
                          gt_ids=gt_ids, gt_positions=gt_pos,
                          measured_ids=gt_ids, measured_positions=meas,
                          motion=motion)


def test_measurement_cov_hand_oracle():
    # two frames, one keypoint, residuals (1,0) and (0,2):
    # MSE about zero = [[0.5, 0], [0, 2]]
    H = view_homography()
    ids = np.array([0, 1, 2, 3])
    offs = [np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])]
    records = [make_record(t, H, ids, meas_offset=offs[t]) for t in range(2)]
    blocks, _, counts = estimate_measurement_cov(records, min_samples=2)
    assert np.allclose(blocks[0], [[0.5, 0.0], [0.0, 2.0]], atol=1e-15)
    assert np.allclose(blocks[1], np.zeros((2, 2)), atol=1e-15)
    assert counts[0] == 2


def test_mse_is_about_zero_not_about_mean():
    # constant residual (3, 0): sample covariance about the mean would be 0,
    # the mean square about zero must be [[9, 0], [0, 0]]
    H = view_homography()
    ids = np.array([0, 1, 2, 3])
    off = np.zeros((4, 2))
    off[0] = [3.0, 0.0]
    records = [make_record(t, H, ids, meas_offset=off) for t in range(5)]
    blocks, _, _ = estimate_measurement_cov(records, min_samples=3)
    assert np.allclose(blocks[0], [[9.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_pooled_fallback_below_min_samples():
    H = view_homography()
    ids = np.array([0, 1, 2, 3])
    off = np.zeros((4, 2))
    off[:, 0] = 2.0     # every residual (2, 0)
    records = [make_record(t, H, ids, meas_offset=off) for t in range(4)]
    # keypoint 7 appears once only
    extra = make_record(4, H, np.array([0, 1, 2, 7]), meas_offset=off)
    records.append(extra)
    blocks, pooled, counts = estimate_measurement_cov(records, min_samples=5)
    assert np.allclose(pooled, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)
    # 7 has 1 sample < 5, 3 has 4 < 5: both carry the pooled matrix
    assert np.array_equal(blocks[7], pooled)
    assert np.array_equal(blocks[3], pooled)
    # 0 has 5 samples: its own matrix
    assert counts[0] == 5
    assert np.allclose(blocks[0], [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_keypoint_process_cov_oracle():
    # motion is a pure translation (5, 0); gt at frame 1 deviates from the
    # propagated frame-0 gt by (1, 1) on keypoint 0 only
    H0 = view_homography()
    ids = np.array([0, 1, 2, 3])
    motion = AffineSimilarity(a=1.0, b=0.0, tx=5.0, ty=0.0)
    r0 = make_record(0, H0, ids)
    gt1 = motion.transform(r0.gt_positions)
    gt1[0] += [1.0, 1.0]
    r1 = TrainingRecord(frame_index=1, gt_homography=H0, gt_ids=ids,
                        gt_positions=gt1, measured_ids=ids,
                        measured_positions=gt1, motion=motion)
    blocks, _, _ = estimate_keypoint_process_cov([[r0, r1]], min_samples=1)
    assert np.allclose(blocks[0], [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)
    assert np.allclose(blocks[1], np.zeros((2, 2)), atol=1e-12)


def test_pairing_requires_consecutive_frames():
    H = view_homography()
    ids = np.array([0, 1, 2, 3])
    motion = AffineSimilarity(a=1.0, b=0.0, tx=1.0, ty=0.0)
    # frames 0 and 2: gap, no pair; motion present but unusable
    r0 = make_record(0, H, ids)
    r2 = make_record(2, H, ids, motion=motion)
    with pytest.raises(NoSamples):
        estimate_keypoint_process_cov([[r0, r2]])
    # frames 0 and 1 but motion missing on the later record: still no pair
    r1 = make_record(1, H, ids, motion=None)
    with pytest.raises(NoSamples):
        estimate_keypoint_process_cov([[r0, r1]])
    # across sequences nothing pairs either
    with pytest.raises(NoSamples):
        estimate_keypoint_process_cov([[r0], [make_record(1, H, ids, motion=motion)]])


def test_homography_process_cov_oracle():
    H0 = view_homography()
    motion = AffineSimilarity(a=1.0, b=0.0, tx=2.0, ty=1.0)
    H1 = motion.as_matrix() @ H0
    H1[0, 2] += 0.5          # perturb one parameter of the truth
    ids = np.array([0, 1, 2, 3])
    r0 = make_record(0, H0, ids)
    r1 = make_record(1, H1, ids, motion=motion)
    est, n = estimate_homography_process_cov([[r0, r1]])
    assert n == 1
    e = np.zeros(8)
    e[6] = 0.5               # h13 sits at slot 6 of the column-stacked order
    assert np.allclose(est, np.outer(e, e), atol=1e-9)


def test_init_homography_cov_from_exact_fits_is_zero():
    H = view_homography()
    ids = np.arange(TEMPLATE.n)
    records = [make_record(t, H, ids) for t in range(3)]
    est, n = estimate_init_homography_cov(records, TEMPLATE)
    assert n == 3
    assert np.abs(est).max() < 1e-16


def test_init_homography_cov_skips_unfittable_records():
    H = view_homography()
    good = make_record(0, H, np.arange(TEMPLATE.n))
    sparse = make_record(1, H, np.array([0, 1, 2]))     # < 4 points: skipped
    est, n = estimate_init_homography_cov([good, sparse], TEMPLATE)
    assert n == 1
    with pytest.raises(NoSamples):
        estimate_init_homography_cov([sparse], TEMPLATE)


def test_init_homography_cov_deterministic():
    rng = np.random.default_rng(0)
    H = view_homography()
    ids = np.arange(TEMPLATE.n)
    records = []
    for t in range(4):
        off = rng.normal(0, 2.0, size=(ids.size, 2))
        records.append(make_record(t, H, ids, meas_offset=off))
    a = estimate_init_homography_cov(records, TEMPLATE)
    b = estimate_init_homography_cov(records, TEMPLATE)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_repair_psd():
    rng = np.random.default_rng(1)
    # PSD input survives
    A = rng.normal(size=(4, 4))
    P = A @ A.T
    assert np.allclose(repair_psd(P), P, atol=1e-12)
    # indefinite input gets clamped to PSD, symmetric
    M = np.array([[1.0, 0.0], [0.0, -2.0]])
    R = repair_psd(M)
    assert np.array_equal(R, R.T)
    assert np.linalg.eigvalsh(R).min() >= 0.0
    assert np.allclose(R, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    # asymmetric input is symmetrized first
    R2 = repair_psd(np.array([[2.0, 1.0], [0.0, 2.0]]))
    assert np.array_equal(R2, R2.T)


def test_statistical_recovery_of_known_covariances():
    # synthetic residuals drawn from known covariances must come back within
    # a few percent at a few thousand samples
    rng = np.random.default_rng(2)
    H = view_homography()
    ids = np.arange(4)
    true_meas = np.array([[4.0, 1.0], [1.0, 2.0]])
    L = np.linalg.cholesky(true_meas)
    records = []
    for t in range(3000):
        off = rng.normal(size=(4, 2)) @ L.T
        records.append(make_record(t, H, ids, meas_offset=off))
    blocks, _, _ = estimate_measurement_cov(records, min_samples=10)
    for j in range(4):
        assert np.abs(blocks[j] - true_meas).max() < 0.08 * np.abs(true_meas).max()


def test_calibrate_bank_assembles_and_repairs():
    rng = np.random.default_rng(3)
    H0 = view_homography()
    ids = np.arange(TEMPLATE.n)
    motion = AffineSimilarity(a=1.0, b=0.0, tx=1.0, ty=0.5)
    records = []
    H = H0
    for t in range(30):
        m = None if t == 0 else motion
        if t:
            H = motion.as_matrix() @ H
            H = H / H[2, 2]
        off = rng.normal(0, 1.0, size=(ids.size, 2))
        records.append(make_record(t, H, ids, meas_offset=off, motion=m))
    bank = calibrate_bank([records], TEMPLATE, min_samples=10)
    # raw-id keyed, full coverage at 30 frames
    assert set(bank.measurement.keys()) == set(int(i) for i in TEMPLATE.ids)
    assert bank.measurement_counts[0] == 30
    assert bank.keypoint_process_counts[0] == 29
    assert bank.homography_process_samples == 29
    assert bank.init_homography_samples == 30
    for M in [bank.measurement_pooled, bank.keypoint_process_pooled,
              bank.homography_process, bank.init_homography]:
        assert np.array_equal(M, M.T)
        assert np.linalg.eigvalsh(M).min() >= -1e-12
    noise = bank.noise_for(TEMPLATE)
    assert noise.n == TEMPLATE.n


def bank_bytes(bank, path):
    write_bank(bank, path)
    return path.read_bytes()


def test_calibration_skips_frames_without_ground_truth(tmp_path):
    # read_sequence and the simulator give SequenceFrames, some without a
    # gt_homography or gt_keypoints: the first are skipped everywhere (the
    # init fits' seeds count annotated frames only), the second have no
    # ground-truth keypoints
    frames = generate_sequence(SimConfig(
        template=TEMPLATE, dims=DIMS, n_frames=40, initial_homography=view_homography(),
        motions=pan_motion_script(40), noise=SimNoise(measurement=4.0 * np.eye(2)),
        dropout=0.2, seed=7))
    no_h = {3, 4, 11, 25}
    no_kp = {7, 8, 30}
    mixed, kept = [], []
    for f in frames:
        if f.frame_index in no_h:
            mixed.append(replace(f, gt_homography=None))
        elif f.frame_index in no_kp:
            mixed.append(replace(f, gt_ids=None, gt_positions=None))
            kept.append(replace(f, gt_ids=np.empty(0, dtype=int), gt_positions=np.empty((0, 2))))
        else:
            mixed.append(f)
            kept.append(f)
    ransac = RansacParams(seed=5)
    got = calibrate_bank([mixed], TEMPLATE, ransac=ransac, min_samples=3)
    want = calibrate_bank([kept], TEMPLATE, ransac=ransac, min_samples=3)
    assert bank_bytes(got, tmp_path / "got.json") == bank_bytes(want, tmp_path / "want.json")
    assert got.init_homography_samples == len(kept)
    # a frame without gt_homography would have counted had it been read
    full = calibrate_bank([frames], TEMPLATE, ransac=ransac, min_samples=3)
    assert full.init_homography_samples == len(frames)


def test_training_record_is_a_checked_sequence_frame():
    H = view_homography()
    ids = np.array([0, 1, 2, 3])
    rec = make_record(4, 2.0 * H, ids, motion=AffineSimilarity.identity())
    assert isinstance(rec, SequenceFrame)
    assert rec.frame_index == rec.measurements.frame_index == 4
    assert np.array_equal(rec.gt_homography, H)     # normalized to h33 = 1
    assert np.array_equal(rec.measurements.ids, ids)
    pos = apply_homography(H, TEMPLATE.positions[ids])
    bad_h = H.copy()
    bad_h[0, 1] = np.nan
    for kw, error, message in (
            ({"gt_homography": bad_h}, ValueError, "non-finite ground-truth homography"),
            ({"gt_ids": ids[:3]}, ValueError, "gt ids and positions disagree"),
            ({"measured_ids": ids[:3]}, ValueError, "3 ids with 4 positions"),
            ({"measured_ids": np.array([0, 1, 1, 3])}, ValueError, "duplicate keypoint ids"),
            ({"measured_ids": np.array([0, 1, -2, 3])}, UnknownKeypointId,
             "negative keypoint index"),
            ({"measured_positions": np.where(ids[:, None] == 2, np.inf, pos)}, ValueError,
             "non-finite measurement position")):
        fields = dict(frame_index=0, gt_homography=H, gt_ids=ids, gt_positions=pos,
                      measured_ids=ids, measured_positions=pos)
        with pytest.raises(error, match=message):
            TrainingRecord(**{**fields, **kw})


@pytest.mark.parametrize("min_samples", [0, -3])
def test_sample_floor_below_one_is_rejected(min_samples):
    H = view_homography()
    ids = np.array([0, 1, 2, 3])
    records = [make_record(t, H, ids, motion=AffineSimilarity.identity()) for t in range(3)]
    message = f"^min_samples must be at least 1, got {min_samples}$"
    with pytest.raises(ValueError, match=message):
        estimate_measurement_cov(records, min_samples=min_samples)
    with pytest.raises(ValueError, match=message):
        estimate_keypoint_process_cov([records], min_samples=min_samples)
    with pytest.raises(ValueError, match=message):
        calibrate_bank([records], TEMPLATE, min_samples=min_samples)
