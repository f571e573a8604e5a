"""The structured filter core against the dense reference equations in
dense_filter.py: end to end through iter_filter, and stage by stage under a
field process, where every row of the EKF covariance is live."""

import numpy as np
import pytest

import dense_filter as dense
from fieldreg import pipeline
from fieldreg.defaults import (
    DEFAULT_HOMOGRAPHY_PROCESS,
    DEFAULT_MEASUREMENT,
    default_covariance_bank,
)
from fieldreg.homography_filter import (
    HomographyNoiseConfig,
    ekf_init,
    ekf_predict,
    ekf_update,
)
from fieldreg.keypoint_filter import init_keypoint_state, lkf_predict, lkf_update
from fieldreg.pipeline import FilterOptions
from fieldreg.seqio import SequenceFrame
from fieldreg.simulator import SimConfig, SimNoise, generate_sequence, pan_motion_script
from helpers import DIMS, TEMPLATE, view_homography

HOMOGRAPHY_RTOL = 1e-10     # Frobenius-relative, per frame
KEYPOINT_RTOL = 1e-9        # relative to the largest coordinate, per frame
FIELD_PROCESS_RTOL = 1e-10  # stage-level run with every EKF row live


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


@pytest.mark.parametrize("motion_source, active_set, init_all, max_condition, seed", [
    ("provided", "measured_now", False, 1e12, 11),
    ("estimate", "measured_now", False, 1e12, 12),
    ("provided", "measured_ever", False, 1e12, 13),
    ("provided", "measured_now", True, 1e12, 14),
    ("estimate", "measured_ever", True, 1e12, 15),
    # a condition cap inside this sequence's range (about 7e5 to 1e7) makes
    # both cores skip the same homography updates
    ("provided", "measured_now", False, 2e6, 16),
])
def test_iter_filter_matches_dense_reference(motion_source, active_set, init_all,
                                             max_condition, seed, monkeypatch):
    frames = noisy_frames(150, seed, with_flow=motion_source == "estimate")
    options = FilterOptions(motion_source=motion_source, ekf_active_set=active_set,
                            init_all_from_homography=init_all,
                            max_condition=max_condition, seed=seed)
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


def test_field_process_stages_match_dense_reference():
    # the paper's joint model: a field process makes every EKF row live, so
    # the state carries the joint covariance and the update runs over all of it
    frames = noisy_frames(61, 21, with_flow=False)
    bank = default_covariance_bank()
    kp_noise = bank.noise_for(TEMPLATE)
    n = TEMPLATE.n
    h_noise = HomographyNoiseConfig(
        homography_process=bank.homography_process, init_cov=bank.init_homography,
        field_process=np.tile(np.array([[0.02, 0.005], [0.005, 0.01]]), (n, 1, 1)))

    first = frames[0].measurements
    h_s = ekf_init(first, TEMPLATE, h_noise)
    h_d = dense.ekf_init(first, TEMPLATE, h_noise)
    kp_s = lkf_update(init_keypoint_state(n), first, kp_noise)
    kp_d = dense.lkf_update(dense.init_keypoint_state(n), first, kp_noise)
    assert np.array_equal(h_s.cov, h_d.cov)

    for frame in frames[1:]:
        kp_s = lkf_update(lkf_predict(kp_s, frame.motion, kp_noise), frame.measurements, kp_noise)
        kp_d = dense.lkf_update(dense.lkf_predict(kp_d, frame.motion, kp_noise),
                                frame.measurements, kp_noise)
        h_s = ekf_predict(h_s, frame.motion, h_noise)
        h_d = dense.ekf_predict(h_d, frame.motion, h_noise)
        assert np.all(h_s.cov.any(axis=1))
        active = np.flatnonzero(kp_s.measured_now)
        h_s = ekf_update(h_s, kp_s, active)
        h_d = dense.ekf_update(h_d, kp_d, active)
        for a, b in ((h_s.stacked_mean(), h_d.stacked_mean()), (h_s.cov, h_d.cov)):
            rel = np.linalg.norm(a - b) / np.linalg.norm(b)
            assert rel <= FIELD_PROCESS_RTOL, f"frame {frame.frame_index}: {rel:.3e}"
        assert not np.array_equal(h_s.field_mean, TEMPLATE.positions.ravel())


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
    # with no field process the EKF stores only the 8x8 homography
    # covariance; the dense reference carries the joint one, whose 2N field
    # rows and columns stay exactly 0.0 and whose homography block must
    # agree after every step
    n = TEMPLATE.n
    frames = noisy_frames(100, 31, with_flow=False)
    bank = default_covariance_bank()
    ekf = ("ekf_init", "ekf_predict", "ekf_update")
    compact, joint = [], []
    with monkeypatch.context() as m:
        for name, fn in _record_covs({k: getattr(pipeline, k) for k in ekf}, compact).items():
            m.setattr(pipeline, name, fn)
        list(pipeline.iter_filter(frames, TEMPLATE, bank))
    with monkeypatch.context() as m:
        for name, fn in dense.PIPELINE_NAMES.items():
            m.setattr(pipeline, name, fn)
        for name, fn in _record_covs({k: dense.PIPELINE_NAMES[k] for k in ekf}, joint).items():
            m.setattr(pipeline, name, fn)
        list(pipeline.iter_filter(frames, TEMPLATE, bank))
    assert len(compact) == len(joint) > 150
    for step, (c, j) in enumerate(zip(compact, joint)):
        assert c.shape == (8, 8)
        assert np.all(j[:2 * n, :] == 0.0) and np.all(j[:, :2 * n] == 0.0)
        rel = np.linalg.norm(c - j[2 * n:, 2 * n:]) / np.linalg.norm(j[2 * n:, 2 * n:])
        assert rel <= HOMOGRAPHY_RTOL, f"step {step}: {rel:.3e}"
        assert np.all(np.diag(c) > 0.0)


def test_compact_state_widens_under_field_process():
    # a state initialised under a static field takes the joint layout on its
    # first predict under a field process, and then follows the dense model
    frames = noisy_frames(31, 22, with_flow=False)
    bank = default_covariance_bank()
    kp_noise = bank.noise_for(TEMPLATE)
    n = TEMPLATE.n
    static = bank.homography_noise()
    moving = HomographyNoiseConfig(
        homography_process=bank.homography_process, init_cov=bank.init_homography,
        field_process=np.tile(np.array([[0.02, 0.005], [0.005, 0.01]]), (n, 1, 1)))

    first = frames[0].measurements
    h_s = ekf_init(first, TEMPLATE, static)
    h_d = dense.ekf_init(first, TEMPLATE, static)
    assert not h_s.joint and h_d.joint
    kp_s = lkf_update(init_keypoint_state(n), first, kp_noise)
    kp_d = dense.lkf_update(dense.init_keypoint_state(n), first, kp_noise)
    for frame in frames[1:]:
        kp_s = lkf_update(lkf_predict(kp_s, frame.motion, kp_noise), frame.measurements, kp_noise)
        kp_d = dense.lkf_update(dense.lkf_predict(kp_d, frame.motion, kp_noise),
                                frame.measurements, kp_noise)
        h_s = ekf_predict(h_s, frame.motion, moving)
        h_d = dense.ekf_predict(h_d, frame.motion, moving)
        assert h_s.cov.shape == (2 * n + 8, 2 * n + 8)
        active = np.flatnonzero(kp_s.measured_now)
        h_s = ekf_update(h_s, kp_s, active)
        h_d = dense.ekf_update(h_d, kp_d, active)
        for a, b in ((h_s.stacked_mean(), h_d.stacked_mean()), (h_s.cov, h_d.cov)):
            rel = np.linalg.norm(a - b) / np.linalg.norm(b)
            assert rel <= FIELD_PROCESS_RTOL, f"frame {frame.frame_index}: {rel:.3e}"
    assert not np.array_equal(h_s.field_mean, TEMPLATE.positions.ravel())
