"""System-level acceptance gate: ten criteria, one pass/fail line each.

Every test prints "[acceptance] criterion NN PASS|FAIL  <label>" so the gate
can be read off the output directly; run with -s to see the lines for passing
tests too:

    python3 -m pytest tests/test_acceptance.py -v -s

Tolerances are pinned as constants next to each criterion.
"""

import contextlib
import time

import numpy as np
import pytest

from fieldreg.calibration import (
    estimate_homography_process_cov,
    estimate_keypoint_process_cov,
    estimate_measurement_cov,
)
from fieldreg.cli import main as cli_main
from fieldreg.defaults import (
    DEFAULT_HOMOGRAPHY_PROCESS,
    DEFAULT_MEASUREMENT,
    default_covariance_bank,
)
from fieldreg.errors import DegenerateProjection, NumericalDegeneracy, SingularInnovation
from fieldreg.field import FieldTemplate
from fieldreg.geometry import (
    RansacParams,
    apply_homography,
    dlt_homography,
    homography_from_params,
    homography_params,
    invert_homography,
    normalize_homography,
    ransac_homography,
)
from fieldreg.homography_filter import (
    HomographyFilterState,
    ekf_init,
    ekf_predict,
    ekf_update,
    measurement_jacobian,
)
from fieldreg.keypoint_filter import init_keypoint_state, lkf_predict, lkf_update
from fieldreg.metrics import (
    average_precision,
    iou_entire,
    iou_entire_image,
    iou_part,
    nrmse,
    precision_recall,
    projection_error,
    reprojection_error,
)
from fieldreg.motion import AffineSimilarity
from fieldreg.pipeline import run_filter, run_ransac_baseline
from fieldreg.seqio import TrainingRecord, read_report
from fieldreg.simulator import SimConfig, SimNoise, generate_sequence, pan_motion_script
from dense_filter import block_diag, predict_measurements
from helpers import (
    DIMS,
    TEMPLATE,
    fd_jacobian,
    normalize_homogeneous,
    pooled_bank,
    random_homography,
    view_homography,
)


@contextlib.contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        verdict = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {number:02d} {verdict}  {label}")


def simulate(n_frames, seed, noise=SimNoise(), dropout=0.0):
    cfg = SimConfig(template=TEMPLATE, dims=DIMS, n_frames=n_frames,
                    initial_homography=view_homography(),
                    motions=pan_motion_script(n_frames), noise=noise,
                    dropout=dropout, seed=seed)
    return generate_sequence(cfg)


# -- 1: noiseless exactness --------------------------------------------------

NOISELESS_H_TOL = 1e-6
NOISELESS_REPROJ_TOL = 1e-9       # fraction of image height
NOISELESS_RUNTIME_S = 1.0


def test_criterion_01_noiseless_exactness():
    with criterion(1, "noiseless 100-frame run reproduces ground truth"):
        frames = simulate(100, seed=1)
        bank = default_covariance_bank()
        start = time.perf_counter()
        ests = run_filter(frames, TEMPLATE, bank)
        elapsed = time.perf_counter() - start
        worst_h = 0.0
        worst_reproj = 0.0
        for fr, est in zip(frames, ests):
            assert est.homography is not None
            worst_h = max(worst_h, np.abs(est.homography - fr.gt_homography).max())
            worst_reproj = max(worst_reproj, reprojection_error(
                fr.gt_homography, est.homography, TEMPLATE, DIMS))
        assert worst_h < NOISELESS_H_TOL
        assert worst_reproj < NOISELESS_REPROJ_TOL
        assert elapsed < NOISELESS_RUNTIME_S


# -- 2: filter beats per-frame RANSAC ----------------------------------------

RACE_RUNS = 50
RACE_FRAMES = 200
RACE_MIN_WINS = 45
RACE_RUNTIME_S = 120.0
RACE_MEASUREMENT = np.diag([20.81, 14.56])


def test_criterion_02_filter_beats_ransac_baseline():
    with criterion(2, "filtered projection error beats per-frame RANSAC in >= 45/50 runs"):
        bank = default_covariance_bank()
        start = time.perf_counter()
        wins = 0
        for run in range(RACE_RUNS):
            frames = simulate(RACE_FRAMES, seed=100 + run,
                              noise=SimNoise(measurement=RACE_MEASUREMENT))
            filt = run_filter(frames, TEMPLATE, bank)
            base = run_ransac_baseline(frames, TEMPLATE)
            errs = {"filter": [], "baseline": []}
            for fr, ef, eb in zip(frames, filt, base):
                if ef.homography is None or eb.homography is None:
                    continue
                errs["filter"].append(projection_error(
                    fr.gt_homography, ef.homography, TEMPLATE, DIMS,
                    n_samples=256, rng_seed=fr.frame_index))
                errs["baseline"].append(projection_error(
                    fr.gt_homography, eb.homography, TEMPLATE, DIMS,
                    n_samples=256, rng_seed=fr.frame_index))
            if np.mean(errs["filter"]) < np.mean(errs["baseline"]):
                wins += 1
        elapsed = time.perf_counter() - start
        assert wins >= RACE_MIN_WINS, f"filter won only {wins}/{RACE_RUNS}"
        assert elapsed < RACE_RUNTIME_S


# -- 3: analytic jacobian vs central differences -----------------------------

JACOBIAN_TRIALS = 100
JACOBIAN_FD_STEP = 1e-6
JACOBIAN_REL_TOL = 1e-4
JACOBIAN_MAX_COND = 1e4
JACOBIAN_RUNTIME_S = 10.0


def test_criterion_03_jacobian_matches_finite_differences():
    with criterion(3, "measurement jacobian matches central differences"):
        rng = np.random.default_rng(3)
        start = time.perf_counter()
        worst = 0.0
        trials = 0
        while trials < JACOBIAN_TRIALS:
            H = random_homography(rng, spread=0.2)
            pts = rng.uniform([0.0, 0.0], [105.0, 68.0], size=(6, 2))
            den = pts @ H[2, :2] + H[2, 2]
            if np.linalg.cond(H) >= JACOBIAN_MAX_COND or np.any(den < 0.2):
                continue
            trials += 1
            field = FieldTemplate(np.arange(pts.shape[0]), pts)
            state = HomographyFilterState(h_mean=homography_params(H), cov=np.eye(8))
            active = np.arange(pts.shape[0])
            J = measurement_jacobian(state, active, field)

            def f(x, field=field, active=active):
                s = HomographyFilterState(h_mean=x, cov=np.eye(8))
                return predict_measurements(s, active, field).ravel()

            J_fd = fd_jacobian(f, state.h_mean, step=JACOBIAN_FD_STEP)
            assert J.shape == J_fd.shape == (2 * active.size, 8)
            rel = np.abs(J - J_fd) / np.maximum(1.0, np.abs(J))
            worst = max(worst, rel.max())
        elapsed = time.perf_counter() - start
        assert worst < JACOBIAN_REL_TOL
        assert elapsed < JACOBIAN_RUNTIME_S


# -- 4: covariance recovery from 10k calibration samples ---------------------

RECOVERY_DIAG_RTOL = 0.10
RECOVERY_OFFDIAG_FRAC = 0.10      # of the diagonal geometric mean


def check_recovery(est, true):
    est = np.asarray(est, dtype=float)
    true = np.asarray(true, dtype=float)
    d = np.sqrt(np.diag(true))
    for i in range(est.shape[0]):
        for j in range(est.shape[1]):
            if i == j:
                assert abs(est[i, i] - true[i, i]) < RECOVERY_DIAG_RTOL * true[i, i], \
                    f"diagonal ({i},{i}): {est[i, i]} vs {true[i, i]}"
            else:
                assert abs(est[i, j] - true[i, j]) < RECOVERY_OFFDIAG_FRAC * d[i] * d[j], \
                    f"off-diagonal ({i},{j}): {est[i, j]} vs {true[i, j]}"


def empty_measurement():
    return np.empty(0, dtype=int), np.empty((0, 2))


def test_criterion_04_calibration_recovers_injected_noise():
    with criterion(4, "calibration recovers injected covariances from 10k samples"):
        rng = np.random.default_rng(4)
        n_ids = TEMPLATE.n
        all_ids = np.arange(n_ids)

        # measurement covariance: 323 frames x 31 keypoints >= 10k residuals
        true_meas = np.array([[6.0, 1.2], [1.2, 3.0]])
        L = np.linalg.cholesky(true_meas)
        records = []
        for t in range(323):
            noise = rng.standard_normal((n_ids, 2)) @ L.T
            records.append(TrainingRecord(
                frame_index=t, gt_homography=np.eye(3), gt_ids=all_ids,
                gt_positions=TEMPLATE.positions,
                measured_ids=all_ids,
                measured_positions=TEMPLATE.positions + noise, motion=None))
        _, meas_pooled, _ = estimate_measurement_cov(records)
        check_recovery(meas_pooled, true_meas)

        # homography process covariance: 100 chains x 100 transitions
        true_h_var = np.array([2.5e-4, 2.5e-4, 1e-10, 2.5e-4, 2.5e-4, 1e-10, 4.0, 4.0])
        std = np.sqrt(true_h_var)
        sequences = []
        for _ in range(100):
            H = view_homography()
            mids, mpos = empty_measurement()
            seq = [TrainingRecord(0, H, mids, mpos.copy(), mids, mpos.copy(), None)]
            for t in range(1, 101):
                motion = AffineSimilarity(a=1.0 + rng.normal(0, 1e-3),
                                          b=rng.normal(0, 1e-3),
                                          tx=rng.normal(0, 2.0), ty=rng.normal(0, 1.0))
                params = homography_params(motion.as_matrix() @ H)
                H = homography_from_params(params + std * rng.standard_normal(8))
                seq.append(TrainingRecord(t, H, mids, mpos.copy(), mids, mpos.copy(),
                                          motion))
            sequences.append(seq)
        est_h, n_h = estimate_homography_process_cov(sequences)
        assert n_h == 10000
        check_recovery(est_h, np.diag(true_h_var))

        # keypoint process covariance: 25 chains x 13 transitions x 31 keypoints
        true_kp = np.array([[0.8, -0.2], [-0.2, 0.5]])
        Lk = np.linalg.cholesky(true_kp)
        sequences = []
        for _ in range(25):
            pos = TEMPLATE.positions + rng.uniform(-1, 1, size=(n_ids, 2))
            mids, mpos = empty_measurement()
            seq = [TrainingRecord(0, np.eye(3), all_ids, pos, mids, mpos.copy(), None)]
            for t in range(1, 14):
                motion = AffineSimilarity(a=1.0 + rng.normal(0, 1e-3),
                                          b=rng.normal(0, 1e-3),
                                          tx=rng.normal(0, 2.0), ty=rng.normal(0, 1.0))
                pos = motion.transform(pos) + rng.standard_normal((n_ids, 2)) @ Lk.T
                seq.append(TrainingRecord(t, np.eye(3), all_ids, pos, mids, mpos.copy(),
                                          motion))
            sequences.append(seq)
        _, kp_pooled, kp_counts = estimate_keypoint_process_cov(sequences)
        assert sum(kp_counts.values()) == 25 * 13 * n_ids
        check_recovery(kp_pooled, true_kp)


# -- 5: covariance health over 1000 filter steps -----------------------------

HEALTH_SYMMETRY_TOL = 1e-9
HEALTH_EIG_FLOOR = -1e-9


def assert_healthy(cov, where):
    cov = np.asarray(cov)
    asym = np.abs(cov - cov.T).max()
    assert asym < HEALTH_SYMMETRY_TOL, f"{where}: asymmetry {asym}"
    low = np.linalg.eigvalsh(cov)[0]
    assert low > HEALTH_EIG_FLOOR, f"{where}: eigenvalue {low}"


def test_criterion_05_covariances_stay_symmetric_psd():
    with criterion(5, "covariances symmetric and PSD over 1000 filter steps"):
        bank = default_covariance_bank()
        kp_noise = bank.noise_for(TEMPLATE)
        scenarios = [
            simulate(500, seed=51, dropout=0.3,
                     noise=SimNoise(measurement=DEFAULT_MEASUREMENT,
                                    homography_process=1e-4 * DEFAULT_HOMOGRAPHY_PROCESS)),
            simulate(500, seed=52, dropout=0.5,
                     noise=SimNoise(measurement=np.array([[30.0, 5.0], [5.0, 25.0]]),
                                    homography_process=1e-5 * DEFAULT_HOMOGRAPHY_PROCESS)),
        ]
        steps = 0
        for frames in scenarios:
            kp_state = None
            h_state = None
            for frame in frames:
                meas = frame.measurements
                if h_state is None:
                    if meas.k < 4:
                        continue
                    h_state = ekf_init(meas, TEMPLATE, bank)
                    kp_state = lkf_update(init_keypoint_state(TEMPLATE.n), meas, kp_noise)
                    assert_healthy(h_state.cov, f"init h f{frame.frame_index}")
                    assert_healthy(block_diag(kp_state.cov), f"init kp f{frame.frame_index}")
                    steps += 1
                    continue
                kp_state = lkf_predict(kp_state, frame.motion, kp_noise)
                assert_healthy(block_diag(kp_state.cov), f"kp predict f{frame.frame_index}")
                try:
                    kp_state = lkf_update(kp_state, meas, kp_noise)
                except SingularInnovation:
                    pass
                assert_healthy(block_diag(kp_state.cov), f"kp update f{frame.frame_index}")
                h_state = ekf_predict(h_state, frame.motion, bank)
                assert_healthy(h_state.cov, f"h predict f{frame.frame_index}")
                active = np.flatnonzero(kp_state.measured_now)
                if active.size:
                    try:
                        h_state = ekf_update(h_state, kp_state, active, TEMPLATE)
                    except (SingularInnovation, NumericalDegeneracy):
                        pass
                assert_healthy(h_state.cov, f"h update f{frame.frame_index}")
                steps += 1
        assert steps >= 1000


# -- 6: IoU metrics vs Monte-Carlo rasterization + exact worked examples -----

MC_PAIRS = 100
MC_SAMPLES = 1_000_000
MC_TOL = 5e-3
EXACT_TOL = 1e-12


def ccw(poly):
    area2 = 0.0
    for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
        area2 += x1 * y2 - x2 * y1
    return poly if area2 >= 0 else poly[::-1]


def inside_convex(points, poly):
    poly = ccw(np.asarray(poly, dtype=float))
    ok = np.ones(points.shape[0], dtype=bool)
    for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
        cross = (x2 - x1) * (points[:, 1] - y1) - (y2 - y1) * (points[:, 0] - x1)
        ok &= cross >= -1e-9
    return ok


def warp_corners(H, corners):
    hom = np.column_stack([corners, np.ones(len(corners))]) @ np.asarray(H, dtype=float).T
    return hom[:, :2] / hom[:, 2:3]


def mc_iou(quad_a, quad_b, rng):
    both = np.vstack([quad_a, quad_b])
    lo = both.min(axis=0)
    hi = both.max(axis=0)
    pts = rng.uniform(lo, hi, size=(MC_SAMPLES, 2))
    in_a = inside_convex(pts, quad_a)
    in_b = inside_convex(pts, quad_b)
    either = np.count_nonzero(in_a | in_b)
    assert either > 0
    return np.count_nonzero(in_a & in_b) / either


def random_pair(rng):
    h_gt = view_homography(rng=rng, jitter_px=25.0)
    u = rng.uniform
    P = np.array([
        [1.0 + u(-0.03, 0.03), u(-0.03, 0.03), u(-3.0, 3.0)],
        [u(-0.03, 0.03), 1.0 + u(-0.03, 0.03), u(-3.0, 3.0)],
        [u(-2e-4, 2e-4), u(-2e-4, 2e-4), 1.0],
    ])
    return h_gt, normalize_homography(h_gt @ P)


def test_criterion_06_iou_against_monte_carlo_and_worked_examples():
    with criterion(6, "IoU within 5e-3 of 1e6-sample Monte Carlo; hand examples exact"):
        # worked examples, exact arithmetic
        h_gt = np.array([[10.0, 0.0, 50.0], [0.0, 10.0, 20.0], [0.0, 0.0, 1.0]])
        shift_field = np.array([[1.0, 0.0, 7.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert iou_entire(h_gt, h_gt @ shift_field, TEMPLATE) == \
            pytest.approx(98.0 / 112.0, abs=EXACT_TOL)
        shift_img = np.array([[1.0, 0.0, 128.0], [0.0, 1.0, 72.0], [0.0, 0.0, 1.0]])
        inter = (1280.0 - 128.0) * (720.0 - 72.0)
        union = 2.0 * 1280.0 * 720.0 - inter
        assert iou_entire_image(h_gt, shift_img @ h_gt, DIMS) == \
            pytest.approx(inter / union, abs=EXACT_TOL)
        shift8 = np.array([[1.0, 0.0, 8.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert iou_part(h_gt, h_gt @ shift8, DIMS) == \
            pytest.approx(120.0 / 136.0, abs=EXACT_TOL)

        ids = np.array([0, 1])
        gt_xy = np.array([[100.0, 100.0], [200.0, 200.0]])
        est_xy = np.array([[103.0, 104.0], [200.0, 200.0]])
        assert nrmse(ids, est_xy, ids, gt_xy, DIMS, axis="x") == \
            pytest.approx(3.0 / (1280.0 * np.sqrt(2.0)), abs=EXACT_TOL)
        assert nrmse(ids, est_xy, ids, gt_xy, DIMS, axis="y") == \
            pytest.approx(4.0 / (720.0 * np.sqrt(2.0)), abs=EXACT_TOL)

        # ids 0 and 1 match at 5 px and 13 px (both hits at 20 px), det id 2
        # and gt id 5 have no counterpart
        pr = precision_recall(np.array([0, 1, 2]),
                              np.array([[10.0, 10.0], [300.0, 10.0], [600.0, 10.0]]),
                              np.array([0, 1, 5]),
                              np.array([[15.0, 10.0], [313.0, 10.0], [30.0, 300.0]]),
                              DIMS, threshold_px=20.0)
        assert pr.precision == pytest.approx(2.0 / 3.0, abs=EXACT_TOL)
        assert pr.recall == pytest.approx(2.0 / 3.0, abs=EXACT_TOL)

        gt_one = (np.array([0]), np.array([[100.0, 100.0]]))
        assert average_precision(np.array([0]), np.array([[112.0, 100.0]]),
                                 *gt_one, DIMS) == pytest.approx(1.0, abs=EXACT_TOL)
        assert average_precision(np.array([0, 5]),
                                 np.array([[103.0, 100.0], [900.0, 600.0]]),
                                 *gt_one, DIMS) == pytest.approx(0.5, abs=EXACT_TOL)
        assert average_precision(np.array([0]), np.array([[500.0, 500.0]]),
                                 *gt_one, DIMS) == pytest.approx(0.0, abs=EXACT_TOL)

        # Monte-Carlo cross-check of the polygon-clipping IoUs
        rng = np.random.default_rng(606)
        field_rect = TEMPLATE.corners()
        image_rect = DIMS.corners()
        done = 0
        while done < MC_PAIRS:
            h_gt, h_pred = random_pair(rng)
            variant = done % 3
            try:
                if variant == 0:
                    analytic = iou_entire(h_gt, h_pred, TEMPLATE)
                    quad_a = warp_corners(
                        normalize_homography(invert_homography(h_pred) @ h_gt),
                        field_rect)
                    quad_b = field_rect
                elif variant == 1:
                    analytic = iou_entire_image(h_gt, h_pred, DIMS)
                    quad_a = warp_corners(
                        normalize_homography(h_pred @ invert_homography(h_gt)),
                        image_rect)
                    quad_b = image_rect
                else:
                    analytic = iou_part(h_gt, h_pred, DIMS)
                    quad_a = warp_corners(invert_homography(h_gt), image_rect)
                    quad_b = warp_corners(invert_homography(h_pred), image_rect)
            except DegenerateProjection:
                continue
            estimate = mc_iou(quad_a, quad_b, rng)
            assert abs(analytic - estimate) < MC_TOL, \
                f"pair {done} variant {variant}: {analytic} vs MC {estimate}"
            done += 1


# -- 7: exact homography recursion under predict -----------------------------

RECURSION_PAIRS = 1000
RECURSION_TOL = 1e-12


def test_criterion_07_predict_is_exact_composition():
    with criterion(7, "predicted homography equals motion-composed previous one"):
        rng = np.random.default_rng(7)
        bank = pooled_bank(init_homography=np.eye(8))
        for _ in range(RECURSION_PAIRS):
            H = random_homography(rng, spread=0.4)
            motion = AffineSimilarity(a=1.0 + rng.normal(0, 0.05),
                                      b=rng.normal(0, 0.05),
                                      tx=rng.normal(0, 5.0), ty=rng.normal(0, 5.0))
            state = HomographyFilterState(h_mean=homography_params(H), cov=np.eye(8))
            pred = ekf_predict(state, motion, bank)
            R = homography_from_params(pred.h_mean)
            expected = motion.as_matrix() @ H
            assert np.abs(R - expected).max() <= RECURSION_TOL
            # third row of the projective part is untouched, bit for bit
            assert np.array_equal(R[2], H[2])
            assert R[2, 2] == 1.0


# -- 8: normalization commutes with affine-similarity maps -------------------

COMMUTE_DRAWS = 10_000
COMMUTE_TOL = 1e-12     # relative to the normalized-point magnitude


def test_criterion_08_normalization_commutes_with_similarity():
    with criterion(8, "normalize(A p) = A normalize(p) at relative 1e-12"):
        rng = np.random.default_rng(8)
        worst = 0.0
        draws = 0
        while draws < COMMUTE_DRAWS:
            x, y = rng.uniform(-200.0, 200.0, size=2)
            t = rng.choice([-1.0, 1.0]) * rng.uniform(1e-6, 1.0)
            a, b = rng.uniform(-2.0, 2.0, size=2)
            if a * a + b * b < 1e-4:
                continue
            draws += 1
            motion = AffineSimilarity(a=a, b=b, tx=rng.uniform(-50, 50),
                                      ty=rng.uniform(-50, 50))
            p = np.array([x, y, t])
            through_map = normalize_homogeneous(motion.as_matrix() @ p)
            after_norm = motion.transform(normalize_homogeneous(p))
            scale = max(1.0, abs(x / t), abs(y / t))
            worst = max(worst, np.abs(through_map - after_norm).max() / scale)
        assert worst < COMMUTE_TOL


# -- 9: DLT and RANSAC recovery ----------------------------------------------

DLT_EXACT_TOL = 1e-9
RANSAC_OUTLIER_TOL = 1e-6


def test_criterion_09_dlt_and_ransac_recovery():
    with criterion(9, "DLT exact to 1e-9; RANSAC with 30% outliers to 1e-6"):
        rng = np.random.default_rng(9)
        H_true = view_homography(rng=rng, jitter_px=40.0)
        src = rng.uniform([0.0, 0.0], [105.0, 68.0], size=(60, 2))
        dst = apply_homography(H_true, src)
        H_fit = normalize_homography(dlt_homography(src, dst))
        assert np.abs(H_fit - H_true).max() < DLT_EXACT_TOL

        dst_out = dst.copy()
        bad = rng.choice(60, size=18, replace=False)
        angles = rng.uniform(0, 2 * np.pi, size=18)
        radii = rng.uniform(80.0, 400.0, size=18)
        dst_out[bad] += np.column_stack([radii * np.cos(angles),
                                         radii * np.sin(angles)])
        H_rob, inliers = ransac_homography(
            src, dst_out, RansacParams(inlier_threshold_px=3.0, max_iters=2000, seed=11))
        assert np.abs(normalize_homography(H_rob) - H_true).max() < RANSAC_OUTLIER_TOL
        assert inliers.sum() >= 42


# -- 10: deterministic end-to-end CLI round trip -----------------------------

REPORT_METRICS = ("iou_entire", "iou_entire_image", "iou_part",
                  "projection_error_m", "reprojection_error",
                  "nrmse_x", "nrmse_y", "precision", "recall",
                  "average_precision")


def run_cli_chain(root):
    root.mkdir()
    seq = str(root / "seq.jsonl")
    bank = str(root / "bank.json")
    est = str(root / "est.jsonl")
    rep = str(root / "report.json")
    for argv in (
        ["simulate", "--output", seq, "--frames", "60", "--noise", "measurement",
         "--dropout", "0.15", "--seed", "7"],
        ["calibrate", "--input", seq, "--output", bank, "--seed", "7"],
        ["filter", "--input", seq, "--bank", bank, "--output", est, "--seed", "7"],
        ["evaluate", "--input", est, "--truth", seq, "--output", rep, "--seed", "7",
         "--projection-samples", "400"],
    ):
        assert cli_main(argv) == 0
    return root


def test_criterion_10_cli_round_trip_is_byte_deterministic(tmp_path):
    with criterion(10, "CLI chain byte-identical across same-seed runs, full report"):
        a = run_cli_chain(tmp_path / "a")
        b = run_cli_chain(tmp_path / "b")
        for name in ("seq.jsonl", "bank.json", "est.jsonl", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        doc = read_report(a / "report.json")
        assert set(doc["aggregates"].keys()) == set(REPORT_METRICS)
        for metric in REPORT_METRICS:
            cell = doc["aggregates"][metric]
            assert isinstance(cell["mean"], float)
            assert isinstance(cell["median"], float)
