"""Command line front end.

Five verbs: simulate, calibrate, filter, baseline, evaluate.  Each accepts an
optional --config JSON file whose keys (snake_case flag names) supply
settings; explicit flags win over the config, and a setting that neither
gives takes the library's default.  Matrix-valued settings (initial
homography, noise covariances, view corners) and the motion script are
config-file only.
"""

import argparse
import dataclasses
import functools
import sys

from .calibration import MIN_SAMPLES_PER_KEYPOINT
from .defaults import (
    DEFAULT_HOMOGRAPHY_PROCESS,
    DEFAULT_MEASUREMENT,
    default_covariance_bank,
)
from .errors import FieldRegError, FormatError, FrameMismatch
from .field import ImageDims, standard_soccer_template
from .geometry import RansacParams, check_int, dlt_homography
from .metrics import PR_THRESHOLD_PX, PROJECTION_ERROR_SAMPLES
from .motion import AffineSimilarity
from .pipeline import (
    ACTIVE_SETS,
    MOTION_SOURCES,
    FilterOptions,
    check_evaluate_settings,
    run_calibrate,
    run_evaluate,
    run_filter,
    run_ransac_baseline,
)
from .seqio import (
    SequenceHeader,
    _load_json,
    _numbers,
    read_bank,
    read_estimates,
    read_sequence,
    read_template,
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

# SimNoise arguments of each simulate --noise preset
NOISE_PRESETS = {
    "none": {},
    "measurement": {"measurement": DEFAULT_MEASUREMENT},
    "full": {"measurement": DEFAULT_MEASUREMENT,
             "homography_process": FULL_NOISE_H_SCALE * DEFAULT_HOMOGRAPHY_PROCESS},
}
# simulate's own defaults; every other setting defaults in the library
SIMULATE_DEFAULTS = {"frames": 200, "width": 1280, "height": 720, "noise": "none", "motion": {}}
# pan_motion_script's arguments other than the frame count
PAN_NUMBERS = ("angle_amplitude", "scale_amplitude", "period", "phase")

# The JSON type of each config key: the types json.load gives for it, and
# its name in an error.
_NUMBER = ((int, float), "a number")
CONFIG_TYPES = {
    **dict.fromkeys(("seed", "frames", "width", "height", "min_samples", "max_iters",
                     "projection_samples"), ((int,), "an integer")),
    **dict.fromkeys(("dropout", "threshold_px", "confidence", "max_condition",
                     "pr_threshold_px"), _NUMBER),
    **dict.fromkeys(("sequence_id", "motion_source", "active_set"), ((str,), "a string")),
    **dict.fromkeys(("initial_homography", "view_corners"), ((list,), "an array")),
    "noise": ((str, dict), "a preset name or an object"),
    "motion": ((dict,), "an object"),
}


def _typed(key, value, kind):
    """value if json.load's type for it is one of kind's, numbers as floats;
    a ValueError naming key otherwise."""
    types, what = kind
    if type(value) not in types:
        raise ValueError(f"{key} must be {what}, got {type(value).__name__}")
    return float(value) if float in types else value


def _options(args, config, make, *keys, **renamed):
    """make(**settings) over the settings (flag dests and config keys) that a
    flag or the config gives, each under its own name or the keyword renamed
    maps it to; a flag wins, and an unset setting keeps make's default.  An
    error in the config's values, of type or raised by make, names the file."""
    flags, given = {}, {}
    try:
        for key in keys + tuple(renamed):
            name = renamed.get(key, key)
            if getattr(args, key, None) is not None:
                flags[name] = getattr(args, key)
            elif key in config:
                given[name] = _typed(key, config[key], CONFIG_TYPES[key])
        checked = make(**given) if given else None
    except (FieldRegError, ValueError, OverflowError) as e:
        raise FormatError(str(e), path=args.config) from None
    return checked if given and not flags else make(**given, **flags)


def _ransac(args, config):
    return _options(args, config, RansacParams, "max_iters", "seed", "confidence",
                    threshold_px="inlier_threshold_px")


def _default_corners(dims):
    # mild broadcast perspective: far touchline compressed, near one wide
    w, h = float(dims.width_px), float(dims.height_px)
    return [[0.17 * w, 0.18 * h], [0.83 * w, 0.18 * h], [0.97 * w, 0.92 * h],
            [0.03 * w, 0.92 * h]]


def _motion_script(spec, n_frames):
    kind = spec.get("kind", "pan")
    if kind not in ("pan", "static"):
        raise ValueError(f"unknown motion kind {kind!r} (expected 'pan' or 'static')")
    kw = {}
    for key, value in spec.items():
        if key == "translation_amplitude":
            kw[key] = _numbers(value, f"motion {key}", (2,), None)
        elif key in PAN_NUMBERS:
            kw[key] = _typed(f"motion {key}", value, _NUMBER)
        elif key != "kind":
            raise ValueError(f"unknown motion key {key!r} (expected kind, translation_amplitude, "
                             f"{', '.join(PAN_NUMBERS)})")
    if kind == "static":
        return [AffineSimilarity.identity()] * (n_frames - 1)
    return pan_motion_script(n_frames, **kw)


def _sim_noise(spec):
    if isinstance(spec, str):
        if spec not in NOISE_PRESETS:
            raise ValueError(f"unknown noise preset {spec!r} ({', '.join(NOISE_PRESETS)})")
        return SimNoise(**NOISE_PRESETS[spec])
    keys = [f.name for f in dataclasses.fields(SimNoise)]
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ValueError(f"unknown noise key {unknown[0]!r} (expected {', '.join(keys)})")
    return SimNoise(**{key: _numbers(value, f"noise {key}", (None, None), None)
                       for key, value in spec.items()})


def _sim_config(template, **settings):
    """SimConfig from simulate's settings, SIMULATE_DEFAULTS filling the CLI's own."""
    s = {**SIMULATE_DEFAULTS, **settings}
    dims = ImageDims(s["width"], s["height"])
    if "initial_homography" in s:
        h0 = _numbers(s["initial_homography"], "initial_homography", (None, None), None)
    else:
        corners = _numbers(s.get("view_corners", _default_corners(dims)), "view_corners",
                           (None, None), None)
        try:
            h0 = dlt_homography(template.corners(), corners)
        except (FieldRegError, ValueError) as e:
            raise ValueError(f"view_corners: {e}") from None
    return SimConfig(
        template=template, dims=dims, n_frames=s["frames"], initial_homography=h0,
        motions=_motion_script(s["motion"], s["frames"]), noise=_sim_noise(s["noise"]),
        **{key: s[key] for key in ("dropout", "seed", "sequence_id") if key in s})


def _cmd_simulate(args, config, template):
    sim = _options(args, config, functools.partial(_sim_config, template),
                   "frames", "width", "height", "noise", "motion", "initial_homography",
                   "view_corners", "dropout", "seed", "sequence_id")
    frames = generate_sequence(sim)
    write_sequence(args.output, SequenceHeader(sim.sequence_id, sim.dims), frames, template)
    print(f"wrote {len(frames)} frames to {args.output}")
    return 0


def _calibrate_settings(**settings):
    """calibrate's keyword settings back; a ValueError names a min_samples below 1."""
    check_int("min_samples", settings.get("min_samples", 1), 1)
    return settings


def _cmd_calibrate(args, config, template):
    ransac = _ransac(args, config)
    settings = _options(args, config, _calibrate_settings, "min_samples")
    sequences = [read_sequence(path, template)[1] for path in args.input]
    bank = run_calibrate(sequences, template, ransac=ransac, **settings)
    write_bank(bank, args.output)
    n_kp = len(bank.measurement)
    print(f"wrote covariance bank ({n_kp} per-keypoint entries) to {args.output}")
    return 0


def _cmd_filter(args, config, template):
    options = _options(args, config, functools.partial(FilterOptions, ransac=_ransac(args, config)),
                       "motion_source", "max_condition", active_set="ekf_active_set")
    header, frames = read_sequence(args.input, template)
    bank = read_bank(args.bank) if args.bank else default_covariance_bank()
    estimates = run_filter(frames, template, bank, options)
    write_estimates(args.output, header, estimates, template)
    n_h = sum(1 for e in estimates if e.homography is not None)
    print(f"wrote {len(estimates)} estimates ({n_h} with a homography) to {args.output}")
    return 0


def _cmd_baseline(args, config, template):
    ransac = _ransac(args, config)
    header, frames = read_sequence(args.input, template)
    estimates = run_ransac_baseline(frames, template, ransac=ransac)
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


def _cmd_evaluate(args, config, template):
    settings = _options(args, config, check_evaluate_settings, "pr_threshold_px",
                        "projection_samples", seed="rng_seed")
    est_header, estimates = read_estimates(args.input, template)
    truth_header, truth = read_sequence(args.truth, template)
    if est_header.sequence_id != truth_header.sequence_id:
        raise FrameMismatch(
            f"estimates are for sequence {est_header.sequence_id!r}, "
            f"truth is {truth_header.sequence_id!r}")
    report = run_evaluate(estimates, truth, template, truth_header.dims, **settings)
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
    ransac = RansacParams()
    common.add_argument("--seed", type=int, help=f"random seed (default {ransac.seed})")

    robust = argparse.ArgumentParser(add_help=False)
    robust.add_argument("--threshold-px", type=float, help="robust-fit inlier threshold px "
                        f"(default {ransac.inlier_threshold_px:g})")
    robust.add_argument("--max-iters", type=int,
                        help=f"robust-fit iteration cap (default {ransac.max_iters})")

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic annotated sequence")
    p.add_argument("--output", required=True, help="sequence JSONL to write")
    sim = SIMULATE_DEFAULTS
    p.add_argument("--frames", type=int, help=f"number of frames (default {sim['frames']})")
    p.add_argument("--dropout", type=float,
                   help=f"per-keypoint dropout probability (default {SimConfig.dropout:g})")
    p.add_argument("--width", type=int, help=f"image width px (default {sim['width']})")
    p.add_argument("--height", type=int, help=f"image height px (default {sim['height']})")
    p.add_argument("--sequence-id", help=f"sequence id (default {SimConfig.sequence_id!r})")
    p.add_argument("--noise", choices=NOISE_PRESETS,
                   help=f"noise preset (default {sim['noise']}; matrices go in --config)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", parents=[common, robust],
                       help="estimate a covariance bank from annotated sequences")
    p.add_argument("--input", required=True, nargs="+", help="sequence JSONL file(s)")
    p.add_argument("--output", required=True, help="bank JSON to write")
    p.add_argument("--min-samples", type=int,
                   help="per-keypoint sample floor before pooling "
                        f"(default {MIN_SAMPLES_PER_KEYPOINT})")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("filter", parents=[common, robust],
                       help="run the two-stage filter over a sequence")
    p.add_argument("--input", required=True, help="sequence JSONL")
    p.add_argument("--bank", help="covariance bank JSON (default: built-in reference values)")
    p.add_argument("--output", required=True, help="estimates JSONL to write")
    p.add_argument("--motion-source", choices=MOTION_SOURCES,
                   help=f"inter-frame motion source (default {FilterOptions.motion_source})")
    p.add_argument("--active-set", choices=ACTIVE_SETS,
                   help="keypoints driving the homography update "
                        f"(default {FilterOptions.ekf_active_set})")
    p.add_argument("--max-condition", type=float,
                   help="innovation condition cap before skipping an update "
                        f"(default {FilterOptions.max_condition:g})")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("baseline", parents=[common, robust],
                       help="per-frame robust homography fits, no temporal model")
    p.add_argument("--input", required=True, help="sequence JSONL")
    p.add_argument("--output", required=True, help="estimates JSONL to write")
    p.add_argument("--confidence", type=float,
                   help=f"stopping confidence (default {ransac.confidence})")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score estimates against ground truth")
    p.add_argument("--input", required=True, help="estimates JSONL")
    p.add_argument("--truth", required=True, help="annotated sequence JSONL")
    p.add_argument("--output", required=True, help="report JSON to write")
    p.add_argument("--pr-threshold-px", type=float,
                   help=f"precision/recall match threshold px (default {PR_THRESHOLD_PX:g})")
    p.add_argument("--projection-samples", type=int,
                   help=f"samples for the projection error (default {PROJECTION_ERROR_SAMPLES})")
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_json(args.config) if args.config else {}
        if not isinstance(config, dict):
            raise FormatError("a config file must hold a JSON object", path=args.config)
        unknown = sorted(set(config) - set(CONFIG_TYPES))
        if unknown:
            raise FormatError(f"unknown key {unknown[0]!r}", path=args.config)
        template = read_template(args.template) if args.template else standard_soccer_template()
        return args.func(args, config, template)
    except (FieldRegError, ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
