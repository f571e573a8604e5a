"""The three workloads: stream, offline and clips.

Each run builds its inputs from the seed, then runs whole rounds of the same
operations on the same inputs until the rounds have taken the requested
seconds, checks the outputs, and returns what run.py prints.  Every round
must reproduce round 0's outputs byte for byte; round 0's outputs go through
every check.

* stream  -- live tracking of one long broadcast on a 91-point grid template,
  frames handed over in memory, motion estimated from flow.  Operation: one
  frame.  Stresses the dense filter core and motion; bypasses seqio, metrics
  and RANSAC (except at the one init per pass).
* offline -- the README's command-line loop on sequence files and the
  31-point template: simulate, calibrate, filter, baseline, evaluate, all
  through fieldreg.cli.main in-process.  Operation: one verb invocation.
  Stresses seqio, RANSAC, metrics, calibration and the simulator.
* clips   -- many 90-frame files zoomed on half the pitch (about 4 to 10
  detections a frame), each through `fieldreg filter`.  Operation: one clip.
  Small-matrix filter updates, one init RANSAC and per-file set-up per clip.

Every workload reports every end-to-end metric.  The per-verb times of
simulate, calibrate, baseline and evaluate exist only in offline, so they go
to the run line, not to the metrics.  Stream and clips also run fieldreg's
per-frame baseline once, untimed and checked, for baseline_ground_err_m.
"""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
from checks import CheckFailed
from tracing import Tracer

import fieldreg
from fieldreg import cli, pipeline
from fieldreg.field import FieldTemplate, ImageDims
from fieldreg.keypoint_filter import MeasurementFrame
from fieldreg.motion import AffineSimilarity
from fieldreg.pipeline import FrameEstimate
from fieldreg.seqio import SequenceFrame

DIMS = ImageDims(inputs.WIDTH_PX, inputs.HEIGHT_PX)
SETUP_PROBES = 7
VERBS = ("simulate", "calibrate", "filter", "baseline", "evaluate")

_BROADCAST_QUAD = ((0.15, 0.2), (0.85, 0.2), (0.97, 0.93), (0.03, 0.93))

STREAM_SPEC = inputs.SceneSpec(
    n_frames=500, view_field=(0.0, 0.0, 105.0, 68.0), view_quad=_BROADCAST_QUAD,
    measurement=((9.0, 1.2), (1.2, 6.25)), dropout=0.3, jitter_px=0.5,
    pan_px=3.0, zoom=0.002, roll=0.001, period=150.0,
    flow_pairs=80, flow_outliers=0.25, view_jitter=0.0)

OFFLINE_TRAIN_FRAMES = 200
OFFLINE_TEST_FRAMES = 150
OFFLINE_TRAIN_FILES = 2
OFFLINE_TEST_FILES = 4
OFFLINE_SIMULATIONS = 4
OFFLINE_SPEC = inputs.SceneSpec(
    n_frames=OFFLINE_TEST_FRAMES, view_field=(0.0, 0.0, 105.0, 68.0),
    view_quad=_BROADCAST_QUAD, measurement=((12.0, 2.0), (2.0, 8.0)), dropout=0.3,
    jitter_px=0.5, pan_px=3.0, zoom=0.002, roll=0.001, period=150.0)

CLIP_COUNT = 24
CLIP_SPEC = inputs.SceneSpec(
    n_frames=90, view_field=(0.0, 0.0, 52.5, 68.0),
    view_quad=((0.0, 0.1), (1.0, 0.1), (1.15, 1.0), (-0.15, 1.0)),
    measurement=((4.0, 0.5), (0.5, 3.0)), dropout=0.3, jitter_px=0.5,
    pan_px=3.0, zoom=0.002, roll=0.001, period=150.0)
CLIP_INIT_SD = [0.5, 0.1, 1e-3, 0.5, 0.1, 1e-3, 200.0, 200.0]


# -- small helpers ---------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()


def _fr_template(t):
    return FieldTemplate(ids=t.ids, positions=t.positions)


def _motion(fr):
    return AffineSimilarity(*fr.motion) if fr.motion is not None else None


def _handover(fr, with_motion):
    """A frame the way a detector hands it to iter_filter: detections plus
    either provided motion or flow, and no ground truth."""
    return SequenceFrame(fr.index, MeasurementFrame(fr.index, fr.meas_idx, fr.meas_pos),
                         motion=_motion(fr) if with_motion else None, flow=fr.flow)


class FrameClock:
    """Times each estimate iter_filter yields, from the moment it is asked
    for the next frame to the moment the estimate comes back.  One wrapper
    around fieldreg.pipeline.iter_filter, so it also sees the filter inside
    `fieldreg filter`."""

    def __init__(self):
        self.samples_ms = []
        self._inner = None

    def install(self):
        inner = self._inner = pipeline.iter_filter
        samples = self.samples_ms

        def iter_filter(*args, **kwargs):
            gen = inner(*args, **kwargs)
            while True:
                t0 = time.perf_counter_ns()
                try:
                    est = next(gen)
                except StopIteration:
                    return
                samples.append((time.perf_counter_ns() - t0) * 1e-6)
                yield est

        pipeline.iter_filter = iter_filter

    def uninstall(self):
        pipeline.iter_filter = self._inner


class Tally:
    """Operations attempted and failed, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def fail(self, reason):
        self.failed += 1
        self.notes.append(reason)

    def wrong(self, reason):
        self.correct = False
        self.notes.append(reason)


def setup_seconds(root, template_path, bank_path):
    """Median set-up time over fresh interpreters (see probe.py)."""
    out = []
    for _ in range(SETUP_PROBES):
        p = subprocess.run(
            [sys.executable, str(root / "bench" / "probe.py"), str(root / "src"),
             str(template_path), str(bank_path)],
            capture_output=True, text=True, timeout=60, check=True)
        out.append(float(p.stdout.strip().splitlines()[-1]))
    return statistics.median(out)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the baseline on stream and clips -----------------------------------------


def baseline_errors(frame_lists, template, tally):
    """ground_error of fieldreg's per-frame baseline on every frame of every
    list it fits, untimed; each list is one checked operation."""
    ft = _fr_template(template)
    errs = []
    for frames in frame_lists:
        tally.attempted += 1
        base = pipeline.run_ransac_baseline([_handover(f, True) for f in frames], ft)
        hs = [e.homography for e in base]
        try:
            checks.check_baseline(frames, hs, template.positions)
        except CheckFailed as e:
            tally.fail(f"baseline: {e}")
            continue
        errs.extend(checks.ground_error(f.H, H) for f, H in zip(frames, hs) if H is not None)
    return errs


# -- stream ------------------------------------------------------------------------


def _stream_pass(handed, template, bank, options):
    estimates = []
    t0 = time.perf_counter_ns()
    for est in pipeline.iter_filter(iter(handed), template, bank, options):
        estimates.append(est)
    return (time.perf_counter_ns() - t0) * 1e-6, estimates


def _fingerprint(estimates):
    h = hashlib.sha1()
    for e in estimates:
        h.update(repr((e.frame_index, e.flags)).encode())
        if e.homography is not None:
            h.update(np.ascontiguousarray(e.homography).tobytes())
    return h.hexdigest()


def run_stream(ctx):
    tally = Tally()
    template = inputs.grid_template()
    frames = inputs.generate_scene(STREAM_SPEC, template, [ctx.seed, 0])
    handed = [_handover(f, False) for f in frames]
    tpl_path = ctx.work / "grid_template.json"
    inputs.write_template(tpl_path, template)

    ft = _fr_template(template)
    bank = fieldreg.default_covariance_bank()
    options = pipeline.FilterOptions(motion_source="estimate")
    n = len(frames)

    def one_round(r, state):
        ms, est = _stream_pass(handed, ft, bank, options)
        state["job_ms"] += ms
        state["frames"] += n
        state["pass_ms"].append(ms)
        state["verbs"]["filter"].append(ms / n)
        tally.attempted += n
        fp = _fingerprint(est)
        if r == 0:
            state["first"] = est
            state["fp"] = fp
            try:
                checks.check_estimates([f.index for f in frames],
                                       [e.frame_index for e in est],
                                       [e.homography for e in est])
            except CheckFailed as e:
                state["bad"].add("pass")
                tally.notes.append(f"stream estimates: {e}")
        elif fp != state["fp"]:
            tally.wrong(f"stream pass {r} differs from pass 0")
        if state["bad"]:
            tally.failed += n

    def accuracy(state):
        est = state["first"]
        errs = [checks.ground_error(f.H, e.homography)
                for f, e in zip(frames, est) if e.homography is not None]
        return (errs, checks.dlt_ground_errors(frames, template.positions),
                baseline_errors([frames], template, tally))

    return _finish(ctx, tally, one_round, accuracy, tpl_path, "-")


# -- offline -----------------------------------------------------------------------


def _offline_files(ctx, template):
    w = ctx.work
    tpl = w / "template.json"
    inputs.write_template(tpl, template)
    train, test = [], []
    for k in range(OFFLINE_TRAIN_FILES):
        spec = dataclasses.replace(OFFLINE_SPEC, n_frames=OFFLINE_TRAIN_FRAMES)
        fr = inputs.generate_scene(spec, template, [ctx.seed, 10 + k])
        p = w / f"train_{k}.jsonl"
        inputs.write_sequence(p, f"train{k}", fr, template)
        train.append(p)
    for k in range(OFFLINE_TEST_FILES):
        fr = inputs.generate_scene(OFFLINE_SPEC, template, [ctx.seed, 20 + k])
        p = w / f"test_{k}.jsonl"
        inputs.write_sequence(p, f"test{k}", fr, template)
        test.append((p, fr))
    return tpl, train, test


def _offline_ops(ctx, tpl, train, test):
    """[(verb, argv, frames, output path, context for its check)] of one round."""
    w = ctx.work
    T = ["--template", str(tpl)]
    ops = []
    for k in range(OFFLINE_SIMULATIONS):
        out = w / f"sim_{k}.jsonl"
        ops.append(("simulate", ["simulate", *T, "--output", str(out), "--frames",
                                 str(OFFLINE_TEST_FRAMES), "--noise", "measurement",
                                 "--dropout", "0.3", "--seed", str(ctx.seed * 10 + k)],
                    OFFLINE_TEST_FRAMES, out, None))
    for k, p in enumerate(train):
        out = w / f"bank_{k}.json"
        ops.append(("calibrate", ["calibrate", *T, "--input", str(p), "--output", str(out)],
                    OFFLINE_TRAIN_FRAMES, out, None))
    for k, (p, fr) in enumerate(test):
        est_f, est_b = w / f"filter_{k}.jsonl", w / f"baseline_{k}.jsonl"
        n = len(fr)
        ops.append(("filter", ["filter", *T, "--input", str(p), "--bank",
                               str(w / f"bank_{k % OFFLINE_TRAIN_FILES}.json"),
                               "--output", str(est_f)], n, est_f, fr))
        ops.append(("baseline", ["baseline", *T, "--input", str(p), "--output", str(est_b)],
                    n, est_b, fr))
        for tag, est in (("filter", est_f), ("baseline", est_b)):
            out = w / f"report_{tag}_{k}.json"
            ops.append(("evaluate", ["evaluate", *T, "--input", str(est), "--truth", str(p),
                                     "--output", str(out)], n, out, (fr, est)))
    return ops


def _read_jsonl(path):
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return rows[0], rows[1:]


def _estimates_file(path, template):
    """An estimates file as FrameEstimates (keypoint ids made canonical)."""
    _, rows = _read_jsonl(path)
    index = {int(i): k for k, i in enumerate(template.ids)}
    out = []
    for r in rows:
        H = None if r["homography"] is None else np.array(r["homography"], dtype=float)
        kp = r["keypoints"]
        out.append(FrameEstimate(
            r["frame"], H, np.array([index[int(e[0])] for e in kp], dtype=int),
            np.array([e[1:] for e in kp], dtype=float).reshape(-1, 2), tuple(r["flags"])))
    return out


def _check_offline_op(verb, out, extra, template, R):
    """Check one offline operation's output file; returns accuracy rows."""
    if verb == "simulate":
        pos = {int(i): k for k, i in enumerate(template.ids)}
        _, rows = _read_jsonl(out)
        if len(rows) != OFFLINE_TEST_FRAMES:
            raise CheckFailed(f"simulate wrote {len(rows)} frames")
        for r in rows:
            ids = np.array([pos[int(e[0])] for e in r["gt_keypoints"]], dtype=int)
            xy = np.array([e[1:] for e in r["gt_keypoints"]], dtype=float).reshape(-1, 2)
            checks.check_simulated_frame(np.array(r["gt_homography"]), ids, xy,
                                         template.positions, r["frame"])
        return None
    if verb == "calibrate":
        with open(out, encoding="utf-8") as f:
            bank = json.load(f)
        m = bank["measurement"]
        checks.check_measurement_cov(m["pooled"], sum(m["counts"].values()), R)
        return None
    if verb in ("filter", "baseline"):
        frames = extra
        est = _estimates_file(out, template)
        hs = [e.homography for e in est]
        checks.check_estimates([f.index for f in frames], [e.frame_index for e in est], hs)
        if verb == "baseline":
            checks.check_baseline(frames, hs, template.positions)
        return [checks.ground_error(f.H, H) for f, H in zip(frames, hs) if H is not None]
    frames, est_path = extra
    with open(out, encoding="utf-8") as f:
        doc = json.load(f)
    checks.check_report(doc, {f.index: f.H for f in frames},
                        {e.frame_index: e.homography for e in _estimates_file(est_path, template)},
                        template.positions)
    return None


def _cli_op(ctx, tally, state, r, key, verb, argv, n, out, check):
    """One timed fieldreg.cli.main call of round r, on n frames, writing out.

    Round 0 runs check() on the output; later rounds must write the same
    bytes.  An operation whose round-0 check failed fails in every round.
    """
    tally.attempted += 1
    t0 = time.perf_counter_ns()
    code = ctx.call_cli(argv)
    ms = (time.perf_counter_ns() - t0) * 1e-6
    state["job_ms"] += ms
    state["frames"] += n
    state["verbs"][verb].append(ms / n)
    if verb == "filter":
        state["pass_ms"].append(ms)
    if code != 0:
        tally.fail(f"{verb} {key} exited {code}")
        return
    digest = _digest(out)
    if r == 0:
        state["digests"][key] = digest
        try:
            check()
        except (CheckFailed, KeyError, ValueError) as e:
            state["bad"].add(key)
            tally.notes.append(f"{verb} {key}: {e}")
    elif state["digests"].get(key) != digest:
        tally.wrong(f"round {r}: {verb} {key} output differs from round 0")
    if key in state["bad"]:
        tally.failed += 1


def run_offline(ctx):
    tally = Tally()
    template = inputs.standard_template()
    tpl, train, test = _offline_files(ctx, template)
    ops = _offline_ops(ctx, tpl, train, test)
    R = np.array(OFFLINE_SPEC.measurement)
    err = {"filter": [], "baseline": []}

    def one_round(r, state):
        for i, (verb, argv, n, out, extra) in enumerate(ops):
            def check(verb=verb, out=out, extra=extra):
                err.get(verb, []).extend(_check_offline_op(verb, out, extra, template, R) or ())

            _cli_op(ctx, tally, state, r, i, verb, argv, n, out, check)

    def accuracy(state):
        return (err["filter"],
                [e for _, fr in test for e in checks.dlt_ground_errors(fr, template.positions)],
                err["baseline"])

    return _finish(ctx, tally, one_round, accuracy, tpl, "-")


# -- clips -------------------------------------------------------------------------


def _clip_scenes(ctx, template):
    scenes = []
    k = 0
    while len(scenes) < CLIP_COUNT:
        fr = inputs.generate_scene(CLIP_SPEC, template, [ctx.seed, 100 + k], mirror=k % 2 == 1)
        k += 1
        # a clip the filter cannot initialize on is not a valid input
        if inputs.has_init_frame(fr, template):
            scenes.append(fr)
    return scenes


def run_clips(ctx):
    tally = Tally()
    template = inputs.standard_template()
    tpl = ctx.work / "template.json"
    inputs.write_template(tpl, template)
    bank = ctx.work / "bank.json"
    with open(bank, "w", encoding="utf-8") as f:
        json.dump(inputs.matched_bank_document(CLIP_SPEC, CLIP_INIT_SD), f)
    scenes = _clip_scenes(ctx, template)
    paths = []
    for k, fr in enumerate(scenes):
        p = ctx.work / f"clip_{k:02d}.jsonl"
        inputs.write_sequence(p, f"clip{k:02d}", fr, template)
        paths.append(p)
    errs = []

    def one_round(r, state):
        for k, (p, fr) in enumerate(zip(paths, scenes)):
            out = ctx.work / f"est_{k:02d}.jsonl"

            def check(k=k, fr=fr, out=out):
                est = _estimates_file(out, template)
                checks.check_estimates([f.index for f in fr], [e.frame_index for e in est],
                                       [e.homography for e in est])
                errs.extend(checks.ground_error(f.H, e.homography)
                            for f, e in zip(fr, est) if e.homography is not None)

            _cli_op(ctx, tally, state, r, k, "filter",
                    ["filter", "--template", str(tpl), "--bank", str(bank),
                     "--input", str(p), "--output", str(out)], len(fr), out, check)

    def accuracy(state):
        return (errs,
                [e for fr in scenes for e in checks.dlt_ground_errors(fr, template.positions)],
                baseline_errors(scenes, template, tally))

    return _finish(ctx, tally, one_round, accuracy, tpl, bank)


# -- the run loop shared by the workloads -------------------------------------


def _job(ctx, one_round, seconds):
    """Whole rounds until they have taken `seconds`; returns the state."""
    state = {"job_ms": 0.0, "frames": 0, "pass_ms": [], "rounds": 0,
             "verbs": {v: [] for v in VERBS}, "digests": {}, "bad": set()}
    while True:
        one_round(state["rounds"], state)
        state["rounds"] += 1
        if state["job_ms"] >= seconds * 1e3:
            return state


def _finish(ctx, tally, one_round, accuracy, tpl, bank):
    """Set-up probes, the rounds, accuracy; the end-to-end metrics."""
    if ctx.trace:
        return _finish_traced(ctx, tally, one_round)
    setup = setup_seconds(ctx.root, tpl, bank)
    clock = FrameClock()
    clock.install()
    try:
        state = _job(ctx, one_round, ctx.seconds)
    finally:
        clock.uninstall()
    # Accuracy is the median over frames of each frame's mean ground error:
    # a mean over frames is ruled by the few frames where a fit goes wild.
    err, dlt_err, base_err = (float(np.median(e)) if e else math.nan
                              for e in accuracy(state))
    try:
        checks.check_beats_dlt(err, dlt_err, ctx.workload)
    except CheckFailed as e:
        tally.wrong(str(e))
    ctx.info.update({
        "rounds": state["rounds"],
        "frame_samples": len(clock.samples_ms),
        "frame_ms_percentiles": {q: float(np.percentile(clock.samples_ms, q))
                                 for q in (90, 95, 98, 99)},
        # per-verb medians, ungated: only offline runs every verb
        "verb_ms_per_frame": {v: _median(x) for v, x in state["verbs"].items() if x},
        "plain_dlt_ground_err_m": dlt_err,
    })
    metrics = {
        "setup_s": (setup, "s"),
        "job_ms_per_frame": (state["job_ms"] / state["frames"], "ms/frame"),
        "frame_ms_p50": (_median(clock.samples_ms), "ms"),
        "clip_ms_p50": (_median(state["pass_ms"]), "ms"),
        "filter_ms_per_frame": (_median(state["verbs"]["filter"]), "ms/frame"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ground_err_m": (err, "m"),
        "baseline_ground_err_m": (base_err, "m"),
    }
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _finish_traced(ctx, tally, one_round):
    """Half the time untraced, half traced: per-layer metrics from the traced
    half, and the job time of both halves so the tracing overhead shows."""
    plain = _job(ctx, one_round, ctx.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    ctx.tracer = tracer
    try:
        traced = _job(ctx, one_round, ctx.seconds / 2.0)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    plain_ms = plain["job_ms"] / plain["frames"]
    traced_ms = traced["job_ms"] / traced["frames"]
    metrics = tracer.layer_metrics(traced["job_ms"] * 1e6, traced["frames"], traced["rounds"])
    metrics["trace.job_ms_per_frame"] = {"value": traced_ms, "unit": "ms/frame"}
    metrics["trace.untraced_job_ms_per_frame"] = {"value": plain_ms, "unit": "ms/frame"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_ms / plain_ms - 1.0), "unit": "%"}
    ctx.info["traced_rounds"] = traced["rounds"]
    ctx.info["spans"] = len(tracer.spans)
    ctx.info["missing_layers"] = sorted(tracer.missing)
    out = ctx.root / "bench" / ".trace"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{ctx.workload}-seed{ctx.seed}.jsonl",
                 {"workload": ctx.workload, "seed": ctx.seed, "machine": ctx.machine})
    return tally, metrics


class Context:
    def __init__(self, root, workload, seed, seconds, trace, machine):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.machine = machine
        self.tracer = None
        self.info = {}
        self.work = root / "bench" / ".work" / f"{workload}-{seed}-{os.getpid()}"

    def call_cli(self, argv):
        """fieldreg.cli.main in-process, its console output discarded; under
        tracing, inside a cli.main span."""
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if self.tracer is None:
                return cli.main(argv)
            with self.tracer.span("cli.main"):
                return cli.main(argv)


WORKLOADS = {"stream": run_stream, "offline": run_offline, "clips": run_clips}


def run(root, workload, seed, seconds, trace, machine):
    ctx = Context(root, workload, seed, seconds, trace, machine)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        tally, metrics = WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass
    return tally, metrics, ctx.info
