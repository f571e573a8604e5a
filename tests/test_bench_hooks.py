"""The benchmark's per-layer spans still find the functions they wrap.

bench/tracing.py wraps fieldreg functions under the names by which
fieldreg.pipeline looks them up, and reads their counts from positional
arguments and results.  A renamed function, or a changed positional
signature, would make the benchmark's per-layer metrics read null.  This
test only reads bench/; it runs the tracer around a short filter run with
estimated motion, the way the stream workload does.
"""

import pathlib

import numpy as np
import pytest

from fieldreg import pipeline
from fieldreg.defaults import default_covariance_bank
from fieldreg.pipeline import FilterOptions
from fieldreg.seqio import SequenceFrame
from fieldreg.simulator import SimConfig, generate_sequence, pan_motion_script
from helpers import DIMS, TEMPLATE, view_homography

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
N_FRAMES = 20


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def flow_frames():
    cfg = SimConfig(template=TEMPLATE, dims=DIMS, n_frames=N_FRAMES,
                    initial_homography=view_homography(),
                    motions=pan_motion_script(N_FRAMES), dropout=0.2, seed=3)
    frames = generate_sequence(cfg)
    out = [SequenceFrame(frame_index=0, measurements=frames[0].measurements)]
    for prev, curr in zip(frames, frames[1:]):
        common = np.intersect1d(prev.gt_ids, curr.gt_ids)
        out.append(SequenceFrame(
            frame_index=curr.frame_index, measurements=curr.measurements,
            flow=(prev.gt_positions[np.searchsorted(prev.gt_ids, common)],
                  curr.gt_positions[np.searchsorted(curr.gt_ids, common)])))
    return out


def test_tracer_spans_cover_the_filter_layers(tracing):
    frames = flow_frames()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        estimates = list(pipeline.iter_filter(frames, TEMPLATE, default_covariance_bank(),
                                              FilterOptions(motion_source="estimate")))
    finally:
        tracer.uninstall()
    assert len(estimates) == N_FRAMES
    assert not tracer.missing

    spans = {}
    for layer, _, _, _, info, error in tracer.spans:
        assert error is None, layer
        spans.setdefault(layer, []).append(info)
    steady = N_FRAMES - 1
    assert len(spans["pipeline.iter_filter"]) == N_FRAMES
    assert spans["keypoint_filter.lkf_update"] == [f.measurements.k for f in frames]
    assert len(spans["homography_filter.ekf_update"]) == steady
    assert all(k > 0 for k in spans["homography_filter.ekf_update"])
    motion = spans["motion.estimate_global_motion"]
    assert [pairs for pairs, _ in motion] == [f.flow[0].shape[0] for f in frames[1:]]
    assert all(frac == 1.0 for _, frac in motion)   # exact flow has no outliers

    metrics = tracer.layer_metrics(1, N_FRAMES, 1)
    for name in ("homography_filter.ekf_update_ms", "homography_filter.ekf_predict_ms",
                 "keypoint_filter.lkf_update_ms", "motion.estimate_global_motion_ms",
                 "homography_filter.active_per_update", "motion.inlier_frac",
                 "pipeline.iter_filter_self_ms"):
        assert metrics[name]["value"] > 0, name
