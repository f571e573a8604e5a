"""The structured filter core against the dense reference equations in
dense_filter.py, end to end through iter_filter."""

import numpy as np
import pytest

import dense_filter as dense
from fieldreg import homography_filter, keypoint_filter, pipeline
from fieldreg.defaults import (
    DEFAULT_HOMOGRAPHY_PROCESS,
    DEFAULT_MEASUREMENT,
    default_covariance_bank,
)
from fieldreg.geometry import RansacParams, dlt_homography
from fieldreg.pipeline import FilterOptions
from fieldreg.seqio import SequenceFrame
from fieldreg.simulator import (
    SimConfig,
    SimNoise,
    generate_sequence,
    matched_bank,
    pan_motion_script,
)
from helpers import DIMS, TEMPLATE, view_homography

HOMOGRAPHY_RTOL = 1e-10     # Frobenius-relative, per frame
KEYPOINT_RTOL = 1e-9        # relative to the largest coordinate, per frame


def noisy_frames(n_frames, seed, with_flow):
    cfg = SimConfig(template=TEMPLATE, dims=DIMS, n_frames=n_frames,
                    initial_homography=view_homography(),
                    motions=pan_motion_script(n_frames), dropout=0.3, seed=seed,
                    noise=SimNoise(measurement=DEFAULT_MEASUREMENT,
                                   homography_process=1e-4 * DEFAULT_HOMOGRAPHY_PROCESS))
    frames = generate_sequence(cfg)
    if not with_flow:
        return frames
    # flow: ground-truth tracks between consecutive frames with pixel jitter
    rng = np.random.default_rng(seed)
    out = [SequenceFrame(frame_index=0, measurements=frames[0].measurements)]
    for prev, curr in zip(frames, frames[1:]):
        common = np.intersect1d(prev.gt_ids, curr.gt_ids)
        p = prev.gt_positions[np.searchsorted(prev.gt_ids, common)]
        c = curr.gt_positions[np.searchsorted(curr.gt_ids, common)]
        c = c + rng.normal(0.0, 0.5, size=c.shape)
        out.append(SequenceFrame(frame_index=curr.frame_index,
                                 measurements=curr.measurements, flow=(p, c)))
    return out


def run_structured_and_dense(frames, options, monkeypatch):
    bank = default_covariance_bank()
    structured = list(pipeline.iter_filter(frames, TEMPLATE, bank, options))
    with monkeypatch.context() as m:
        for name, fn in dense.PIPELINE_NAMES.items():
            m.setattr(pipeline, name, fn)
        reference = list(pipeline.iter_filter(frames, TEMPLATE, bank, options))
    return structured, reference


@pytest.mark.parametrize("motion_source, active_set, max_condition, seed", [
    ("provided", "measured_now", 1e12, 11),
    ("estimate", "measured_now", 1e12, 12),
    ("provided", "measured_ever", 1e12, 13),
    ("estimate", "measured_ever", 1e12, 15),
    # a condition cap inside this sequence's range (about 7e5 to 1e7) makes
    # both cores skip the same homography updates
    ("provided", "measured_now", 2e6, 16),
])
def test_iter_filter_matches_dense_reference(motion_source, active_set, max_condition, seed,
                                             monkeypatch):
    frames = noisy_frames(150, seed, with_flow=motion_source == "estimate")
    options = FilterOptions(motion_source=motion_source, ekf_active_set=active_set,
                            max_condition=max_condition, ransac=RansacParams(seed=seed))
    structured, reference = run_structured_and_dense(frames, options, monkeypatch)
    assert len(structured) == len(reference) == len(frames)
    for s, r in zip(structured, reference):
        assert s.frame_index == r.frame_index
        assert s.flags == r.flags, f"frame {s.frame_index}"
        assert (s.homography is None) == (r.homography is None)
        if r.homography is not None:
            rel = np.linalg.norm(s.homography - r.homography) / np.linalg.norm(r.homography)
            assert rel <= HOMOGRAPHY_RTOL, f"frame {s.frame_index}: {rel:.3e}"
        assert np.array_equal(s.keypoint_ids, r.keypoint_ids)
        if r.keypoint_positions.size:
            err = np.abs(s.keypoint_positions - r.keypoint_positions).max()
            assert err <= KEYPOINT_RTOL * np.abs(r.keypoint_positions).max(), \
                f"frame {s.frame_index}: {err:.3e}"
    assert sum("init" in s.flags for s in structured) == 1
    skipped = sum("homography_update_skipped" in s.flags for s in structured)
    assert (skipped > 0) == (max_condition < 1e12)


def test_singular_matched_bank_prior_matches_dense_without_forming_s(monkeypatch):
    # the README example's view and noise; matched_bank's default init
    # covariance is singular (its h31/h32 rows round to zero), and the
    # predicted covariance at the first update has no Cholesky factor
    quad = np.array([[220.0, 130.0], [1060.0, 130.0], [1240.0, 650.0], [40.0, 650.0]])
    cfg = SimConfig(template=TEMPLATE, dims=DIMS, n_frames=120,
                    initial_homography=dlt_homography(TEMPLATE.corners(), quad),
                    motions=pan_motion_script(120),
                    noise=SimNoise(measurement=np.diag([20.81, 14.56])),
                    dropout=0.2, seed=3)
    frames = generate_sequence(cfg)
    bank = matched_bank(cfg)
    eig = np.linalg.eigvalsh(bank.init_homography)
    assert eig[1] <= 1e-12 * eig[-1]
    # Each update is checked against the dense equations on the same inputs.
    # Whole runs drift apart by about 2e-11 per frame: in the prior's null
    # directions the update rounds differently from the Joseph form.
    steps, gate_calls = [], []
    exact_gate = homography_filter._exact_gate
    monkeypatch.setattr(homography_filter, "_exact_gate",
                        lambda *args: gate_calls.append(args) or exact_gate(*args))

    def checked_update(state, kp, active, template, max_condition):
        got = homography_filter.ekf_update(state, kp, active, template, max_condition)
        dense_kp = dense.DenseKeypointState(kp.mean, dense.block_diag(kp.cov),
                                            kp.measured_ever, kp.measured_now)
        want = dense.ekf_update(state, dense_kp, active, template, max_condition)
        for a, b in ((got.h_mean, want.h_mean), (got.cov, want.cov)):
            assert np.linalg.norm(a - b) <= HOMOGRAPHY_RTOL * np.linalg.norm(b)
        steps.append(state.cov)
        return got

    with monkeypatch.context() as m:
        m.setattr(pipeline, "ekf_update", checked_update)
        structured = list(pipeline.iter_filter(frames, TEMPLATE, bank))
    with monkeypatch.context() as m:
        for name, fn in dense.PIPELINE_NAMES.items():
            m.setattr(pipeline, name, fn)
        reference = list(pipeline.iter_filter(frames, TEMPLATE, bank))
    assert [s.flags for s in structured] == [r.flags for r in reference]
    assert len(steps) == len(frames) - 1
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(steps[0])
    assert not gate_calls


def _record_covs(fns, into):
    """fns wrapped so that each appends its returned state's cov to into."""
    def recording(fn):
        def wrapped(*args, **kwargs):
            state = fn(*args, **kwargs)
            into.append(state.cov)
            return state
        return wrapped
    return {name: recording(fn) for name, fn in fns.items()}


def test_static_field_cov_stays_compact_and_matches_dense_block(monkeypatch):
    # the EKF stores only the 8x8 homography covariance, and it must agree
    # with the dense reference's after every step
    frames = noisy_frames(100, 31, with_flow=False)
    bank = default_covariance_bank()
    ekf = ("ekf_init", "ekf_predict", "ekf_update")
    compact, reference = [], []
    with monkeypatch.context() as m:
        for name, fn in _record_covs({k: getattr(pipeline, k) for k in ekf}, compact).items():
            m.setattr(pipeline, name, fn)
        list(pipeline.iter_filter(frames, TEMPLATE, bank))
    with monkeypatch.context() as m:
        for name, fn in dense.PIPELINE_NAMES.items():
            m.setattr(pipeline, name, fn)
        for name, fn in _record_covs({k: dense.PIPELINE_NAMES[k] for k in ekf}, reference).items():
            m.setattr(pipeline, name, fn)
        list(pipeline.iter_filter(frames, TEMPLATE, bank))
    assert len(compact) == len(reference) > 150
    for step, (c, r) in enumerate(zip(compact, reference)):
        assert c.shape == r.shape == (8, 8)
        rel = np.linalg.norm(c - r) / np.linalg.norm(r)
        assert rel <= HOMOGRAPHY_RTOL, f"step {step}: {rel:.3e}"
        assert np.all(np.diag(c) > 0.0)


def arrays_in(obj):
    """Every ndarray reachable from obj through containers and attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for v in obj for a in arrays_in(v)]
    if isinstance(obj, dict):
        return arrays_in(list(obj.values()))
    return arrays_in(vars(obj)) if hasattr(obj, "__dict__") else []


def step_calls():
    """name -> (step, args) for the four per-frame steps, on the states of a
    noisy run at its second frame; lkf_update fuses seen and new keypoints."""
    frames = noisy_frames(2, 41, with_flow=False)
    bank = default_covariance_bank()
    noise = bank.noise_for(TEMPLATE)
    meas0, meas1 = frames[0].measurements, frames[1].measurements
    assert np.setdiff1d(meas1.ids, meas0.ids).size and np.intersect1d(meas0.ids, meas1.ids).size
    motion = frames[1].motion
    h = homography_filter.ekf_init(meas0, TEMPLATE, bank)
    kp = keypoint_filter.lkf_update(keypoint_filter.init_keypoint_state(TEMPLATE.n), meas0, noise)
    kp_pred = keypoint_filter.lkf_predict(kp, motion, noise)
    kp_post = keypoint_filter.lkf_update(kp_pred, meas1, noise)
    h_pred = homography_filter.ekf_predict(h, motion, bank)
    return {
        "lkf_predict": (keypoint_filter.lkf_predict, (kp, motion, noise)),
        "lkf_update": (keypoint_filter.lkf_update, (kp_pred, meas1, noise)),
        "ekf_predict": (homography_filter.ekf_predict, (h, motion, bank)),
        "ekf_update": (homography_filter.ekf_update,
                       (h_pred, kp_post, kp_post.measured_now.nonzero()[0], TEMPLATE)),
    }


@pytest.mark.parametrize("name", ["lkf_predict", "lkf_update", "ekf_predict", "ekf_update"])
def test_step_returns_new_checked_arrays_and_leaves_inputs_alone(name):
    step, args = step_calls()[name]
    inputs = arrays_in(args)
    before = [(a.dtype, a.shape, a.tobytes()) for a in inputs]
    out = step(*args)
    assert [(a.dtype, a.shape, a.tobytes()) for a in inputs] == before
    prior = args[0]
    assert type(out) is type(prior)
    fields = dict(vars(out))
    # the public constructor accepts the result and its conversions change nothing
    rebuilt = type(out)(**fields)
    for key, value in fields.items():
        assert type(value) is np.ndarray, key
        assert value.dtype == (bool if key.startswith("measured") else np.float64), key
        assert value.shape == getattr(prior, key).shape, key
        assert getattr(rebuilt, key).tobytes() == value.tobytes(), key
        assert not any(np.shares_memory(value, a) for a in inputs), key


def test_empty_active_set_returns_the_input_state():
    _, (h, kp, _, template) = step_calls()["ekf_update"]
    assert homography_filter.ekf_update(h, kp, np.empty(0, dtype=int), template) is h
