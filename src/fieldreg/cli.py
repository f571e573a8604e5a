"""Command line front end.

Five verbs: simulate, calibrate, filter, baseline, evaluate.  Each accepts an
optional --config JSON file whose keys (snake_case flag names) supply
defaults; explicit flags win over the config, the config wins over built-in
defaults.  Matrix-valued settings (initial homography, noise covariances,
view corners) are config-file only.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .calibration import MIN_SAMPLES_PER_KEYPOINT
from .defaults import (
    DEFAULT_HOMOGRAPHY_PROCESS,
    DEFAULT_MEASUREMENT,
    default_covariance_bank,
)
from .errors import FieldRegError, FrameMismatch
from .field import ImageDims, standard_soccer_template
from .geometry import RansacParams, dlt_homography
from .motion import AffineSimilarity
from .pipeline import (
    MOTION_SOURCES,
    FilterOptions,
    run_calibrate,
    run_evaluate,
    run_filter,
    run_ransac_baseline,
)
from .seqio import (
    SequenceHeader,
    read_bank,
    read_estimates,
    read_sequence,
    read_template,
    training_records,
    write_bank,
    write_estimates,
    write_report,
    write_sequence,
)
from .simulator import SimConfig, SimNoise, generate_sequence, pan_motion_script

# simulate --noise full: homography drift at this fraction of the reference
# table (the table is a per-frame covariance measured on hand-held broadcast
# footage; unscaled it shakes the synthetic camera too hard to be useful)
FULL_NOISE_H_SCALE = 1e-4


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return doc


def _opt(args, config, key, default):
    v = getattr(args, key, None)
    if v is None:
        v = config.get(key, default)
    return v


def _template(args):
    if getattr(args, "template", None):
        return read_template(args.template)
    return standard_soccer_template()


def _ransac(args, config, default_threshold=3.0, default_iters=2000):
    return RansacParams(
        inlier_threshold_px=float(_opt(args, config, "threshold_px", default_threshold)),
        max_iters=int(_opt(args, config, "max_iters", default_iters)),
        seed=int(_opt(args, config, "seed", 0)),
        confidence=float(_opt(args, config, "confidence", 0.99)),
    )


def _default_view(template, dims):
    # mild broadcast perspective: far touchline compressed, near one wide
    w, h = float(dims.width_px), float(dims.height_px)
    quad = np.array([
        [0.17 * w, 0.18 * h],
        [0.83 * w, 0.18 * h],
        [0.97 * w, 0.92 * h],
        [0.03 * w, 0.92 * h],
    ])
    return dlt_homography(template.corners(), quad)


def _motion_script(spec, n_frames):
    if spec is None:
        spec = {"kind": "pan"}
    kind = spec.get("kind", "pan")
    if kind == "static":
        return [AffineSimilarity.identity()] * (n_frames - 1)
    if kind == "pan":
        kw = {k: float(spec[k])
              for k in ("angle_amplitude", "scale_amplitude", "period", "phase")
              if k in spec}
        if "translation_amplitude" in spec:
            ta = spec["translation_amplitude"]
            kw["translation_amplitude"] = (float(ta[0]), float(ta[1]))
        return pan_motion_script(n_frames, **kw)
    raise ValueError(f"unknown motion kind {kind!r} (expected 'pan' or 'static')")


def _sim_noise(args, config):
    spec = _opt(args, config, "noise", "none")
    if isinstance(spec, str):
        if spec == "none":
            return SimNoise()
        if spec == "measurement":
            return SimNoise(measurement=DEFAULT_MEASUREMENT)
        if spec == "full":
            return SimNoise(measurement=DEFAULT_MEASUREMENT,
                            homography_process=FULL_NOISE_H_SCALE * DEFAULT_HOMOGRAPHY_PROCESS)
        raise ValueError(f"unknown noise preset {spec!r} (none, measurement, full)")
    if not isinstance(spec, dict):
        raise ValueError(f"noise must be a preset name or an object, got {type(spec).__name__}")
    keys = [f.name for f in dataclasses.fields(SimNoise)]
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ValueError(f"unknown noise key {unknown[0]!r} (expected {', '.join(keys)})")
    return SimNoise(**{key: np.array(value, dtype=float) for key, value in spec.items()})


def _cmd_simulate(args):
    config = _load_config(args.config)
    template = _template(args)
    n_frames = int(_opt(args, config, "frames", 200))
    dims = ImageDims(int(_opt(args, config, "width", 1280)),
                     int(_opt(args, config, "height", 720)))
    if "initial_homography" in config:
        h0 = np.array(config["initial_homography"], dtype=float)
    elif "view_corners" in config:
        h0 = dlt_homography(template.corners(),
                            np.array(config["view_corners"], dtype=float))
    else:
        h0 = _default_view(template, dims)
    sim = SimConfig(
        template=template,
        dims=dims,
        n_frames=n_frames,
        initial_homography=h0,
        motions=_motion_script(config.get("motion"), n_frames),
        noise=_sim_noise(args, config),
        dropout=float(_opt(args, config, "dropout", 0.0)),
        seed=int(_opt(args, config, "seed", 0)),
        sequence_id=str(_opt(args, config, "sequence_id", "sim")),
    )
    frames = generate_sequence(sim)
    write_sequence(args.output, SequenceHeader(sim.sequence_id, dims), frames, template)
    print(f"wrote {len(frames)} frames to {args.output}")
    return 0


def _cmd_calibrate(args):
    config = _load_config(args.config)
    template = _template(args)
    sequences = []
    for path in args.input:
        _, frames = read_sequence(path, template)
        records = training_records(frames)
        if records:
            sequences.append(records)
    bank = run_calibrate(
        sequences, template,
        ransac=_ransac(args, config),
        min_samples=int(_opt(args, config, "min_samples", MIN_SAMPLES_PER_KEYPOINT)))
    write_bank(bank, args.output)
    n_kp = len(bank.measurement)
    print(f"wrote covariance bank ({n_kp} per-keypoint entries) to {args.output}")
    return 0


def _cmd_filter(args):
    config = _load_config(args.config)
    template = _template(args)
    header, frames = read_sequence(args.input, template)
    bank = read_bank(args.bank) if args.bank else default_covariance_bank()
    init_from_h = _opt(args, config, "init_from_homography", False)
    options = FilterOptions(
        motion_source=str(_opt(args, config, "motion_source", "provided")),
        ransac=_ransac(args, config),
        ekf_active_set=str(_opt(args, config, "active_set", "measured_now")),
        init_all_from_homography=bool(init_from_h),
        max_condition=float(_opt(args, config, "max_condition", 1e12)),
        seed=int(_opt(args, config, "seed", 0)),
    )
    estimates = run_filter(frames, template, bank, options)
    write_estimates(args.output, header, estimates, template)
    n_h = sum(1 for e in estimates if e.homography is not None)
    print(f"wrote {len(estimates)} estimates ({n_h} with a homography) to {args.output}")
    return 0


def _cmd_baseline(args):
    config = _load_config(args.config)
    template = _template(args)
    header, frames = read_sequence(args.input, template)
    estimates = run_ransac_baseline(frames, template, ransac=_ransac(args, config))
    write_estimates(args.output, header, estimates, template)
    n_h = sum(1 for e in estimates if e.homography is not None)
    print(f"wrote {len(estimates)} estimates ({n_h} with a homography) to {args.output}")
    return 0


def _print_report(report):
    c = report.counts
    print(f"frames {c['frames']}  scored {c['scored']}  pre-init {c['pre_init']}  "
          f"no-gt {c['no_ground_truth']}  degenerate {c['degenerate_projection']}")
    print(f"{'metric':<24}{'mean':>14}{'median':>14}")
    for name, agg in report.aggregates.items():
        mean = "-" if agg["mean"] is None else f"{agg['mean']:.6g}"
        median = "-" if agg["median"] is None else f"{agg['median']:.6g}"
        print(f"{name:<24}{mean:>14}{median:>14}")


def _cmd_evaluate(args):
    config = _load_config(args.config)
    template = _template(args)
    est_header, estimates = read_estimates(args.input, template)
    truth_header, truth = read_sequence(args.truth, template)
    if est_header.sequence_id != truth_header.sequence_id:
        raise FrameMismatch(
            f"estimates are for sequence {est_header.sequence_id!r}, "
            f"truth is {truth_header.sequence_id!r}")
    report = run_evaluate(
        estimates, truth, template, truth_header.dims,
        rng_seed=int(_opt(args, config, "seed", 0)),
        pr_threshold_px=float(_opt(args, config, "pr_threshold_px", 20.0)),
        projection_samples=int(_opt(args, config, "projection_samples", 2500)))
    write_report(report, args.output)
    _print_report(report)
    print(f"wrote report to {args.output}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fieldreg",
        description="Bayesian sports-field registration: simulate, calibrate, "
                    "filter, baseline, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--template", help="field template JSON (default: built-in soccer pitch)")
    common.add_argument("--config", help="JSON file of option defaults for this command")
    common.add_argument("--seed", type=int, help="random seed (default 0)")

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic annotated sequence")
    p.add_argument("--output", required=True, help="sequence JSONL to write")
    p.add_argument("--frames", type=int, help="number of frames (default 200)")
    p.add_argument("--dropout", type=float, help="per-keypoint dropout probability (default 0)")
    p.add_argument("--width", type=int, help="image width px (default 1280)")
    p.add_argument("--height", type=int, help="image height px (default 720)")
    p.add_argument("--sequence-id", dest="sequence_id", help="sequence id (default 'sim')")
    p.add_argument("--noise", choices=("none", "measurement", "full"),
                   help="noise preset (default none; matrices go in --config)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", parents=[common],
                       help="estimate a covariance bank from annotated sequences")
    p.add_argument("--input", required=True, nargs="+", help="sequence JSONL file(s)")
    p.add_argument("--output", required=True, help="bank JSON to write")
    p.add_argument("--min-samples", dest="min_samples", type=int,
                   help="per-keypoint sample floor before pooling (default 10)")
    p.add_argument("--threshold-px", dest="threshold_px", type=float,
                   help="robust-fit inlier threshold (default 3)")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="robust-fit iteration cap (default 2000)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("filter", parents=[common],
                       help="run the two-stage filter over a sequence")
    p.add_argument("--input", required=True, help="sequence JSONL")
    p.add_argument("--bank", help="covariance bank JSON (default: built-in reference values)")
    p.add_argument("--output", required=True, help="estimates JSONL to write")
    p.add_argument("--motion-source", dest="motion_source",
                   choices=MOTION_SOURCES,
                   help="inter-frame motion source (default provided)")
    p.add_argument("--active-set", dest="active_set",
                   choices=("measured_now", "measured_ever"),
                   help="keypoints driving the homography update (default measured_now)")
    p.add_argument("--init-from-homography", dest="init_from_homography",
                   action="store_true", default=None,
                   help="seed every keypoint track from the initial homography")
    p.add_argument("--max-condition", dest="max_condition", type=float,
                   help="innovation condition cap before skipping an update (default 1e12)")
    p.add_argument("--threshold-px", dest="threshold_px", type=float,
                   help="init robust-fit inlier threshold (default 3)")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="init robust-fit iteration cap (default 2000)")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("baseline", parents=[common],
                       help="per-frame robust homography fits, no temporal model")
    p.add_argument("--input", required=True, help="sequence JSONL")
    p.add_argument("--output", required=True, help="estimates JSONL to write")
    p.add_argument("--threshold-px", dest="threshold_px", type=float,
                   help="inlier threshold px (default 3)")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="iteration cap (default 2000)")
    p.add_argument("--confidence", type=float, help="stopping confidence (default 0.99)")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score estimates against ground truth")
    p.add_argument("--input", required=True, help="estimates JSONL")
    p.add_argument("--truth", required=True, help="annotated sequence JSONL")
    p.add_argument("--output", required=True, help="report JSON to write")
    p.add_argument("--pr-threshold-px", dest="pr_threshold_px", type=float,
                   help="precision/recall match threshold px (default 20)")
    p.add_argument("--projection-samples", dest="projection_samples", type=int,
                   help="samples for the projection error (default 2500)")
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FieldRegError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
