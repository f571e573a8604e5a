"""Spans around fieldreg's public functions, recorded from outside the package.

Each function is wrapped under the name by which its caller looks it up
(`fieldreg.pipeline.lkf_update`, not `fieldreg.keypoint_filter.lkf_update`,
because pipeline imported the name into its own namespace).  A span holds
its layer name, start, end, parent span and the counts named below; spans
stay in memory until the run ends.  A wrapped name that no longer exists is
reported as missing, so its metrics read null, never 0.
"""

import contextlib
import importlib
import json
import time
from collections import defaultdict

_ns = time.perf_counter_ns


def _frac(mask):
    return float(mask.mean()) if mask.size else 0.0


# (module, attribute, layer, info(args, kwargs, result) -> number or None)
TARGETS = [
    ("fieldreg.pipeline", "iter_filter", "pipeline.iter_filter", None),
    ("fieldreg.pipeline", "lkf_predict", "keypoint_filter.lkf_predict", None),
    ("fieldreg.pipeline", "lkf_update", "keypoint_filter.lkf_update",
     lambda a, kw, r: a[1].k),
    ("fieldreg.pipeline", "ekf_predict", "homography_filter.ekf_predict", None),
    ("fieldreg.pipeline", "ekf_update", "homography_filter.ekf_update",
     lambda a, kw, r: len(a[2])),
    ("fieldreg.pipeline", "ekf_init", "homography_filter.ekf_init", None),
    ("fieldreg.pipeline", "estimate_global_motion", "motion.estimate_global_motion",
     lambda a, kw, r: (len(a[0]), _frac(r[1]))),
    ("fieldreg.homography_filter", "ransac_homography", "geometry.ransac_homography",
     lambda a, kw, r: _frac(r[1])),
    ("fieldreg.pipeline", "ransac_homography", "geometry.ransac_homography",
     lambda a, kw, r: _frac(r[1])),
    ("fieldreg.calibration", "ransac_homography", "geometry.ransac_homography",
     lambda a, kw, r: _frac(r[1])),
    ("fieldreg.pipeline", "calibrate_bank", "calibration.calibrate_bank", None),
    ("fieldreg.calibration", "estimate_init_homography_cov",
     "calibration.estimate_init_homography_cov", None),
    ("fieldreg.pipeline", "projection_error", "metrics.projection_error", None),
    ("fieldreg.pipeline", "iou_entire", "metrics.iou_entire", None),
    ("fieldreg.pipeline", "iou_entire_image", "metrics.iou_entire_image", None),
    ("fieldreg.pipeline", "iou_part", "metrics.iou_part", None),
    ("fieldreg.pipeline", "reprojection_error", "metrics.reprojection_error", None),
    ("fieldreg.pipeline", "nrmse", "metrics.keypoint_metrics", None),
    ("fieldreg.pipeline", "precision_recall", "metrics.keypoint_metrics",
     lambda a, kw, r: 1),  # once per frame: marks the frames counted
    ("fieldreg.pipeline", "average_precision", "metrics.keypoint_metrics", None),
    ("fieldreg.metrics", "clip_polygon", "geometry.clip_polygon", None),
    ("fieldreg.cli", "read_sequence", "seqio.read_sequence", lambda a, kw, r: len(r[1])),
    ("fieldreg.cli", "read_estimates", "seqio.read_estimates", lambda a, kw, r: len(r[1])),
    ("fieldreg.cli", "write_estimates", "seqio.write_estimates", lambda a, kw, r: len(a[2])),
    ("fieldreg.cli", "write_sequence", "seqio.write_sequence", lambda a, kw, r: len(a[2])),
    ("fieldreg.cli", "write_report", "seqio.write_report", None),
    ("fieldreg.cli", "read_bank", "seqio.read_bank", None),
    ("fieldreg.cli", "generate_sequence", "simulator.generate_sequence",
     lambda a, kw, r: len(r)),
    ("fieldreg.cli", "run_evaluate", "pipeline.run_evaluate", None),
    ("fieldreg.cli", "run_ransac_baseline", "pipeline.run_ransac_baseline", None),
]

# Exceptions by which ekf_update reports a skipped update (pipeline catches them).
_SKIP = ("SingularInnovation", "NumericalDegeneracy")


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, start_ns, end_ns, parent index, info, error]
        self._stack = []
        self._undo = []
        self.missing = set()     # layers with a wrap target that does not exist
        self.present = set()

    # -- recording ------------------------------------------------------------

    def _open(self, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, _ns(), 0, parent, None, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = _ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer):
        """A span opened by the benchmark itself."""
        s = self._open(layer)
        try:
            yield
        finally:
            self._close(s)

    def _wrap_call(self, fn, layer, info):
        def wrapper(*args, **kwargs):
            s = self._open(layer)
            try:
                r = fn(*args, **kwargs)
            except Exception as e:
                s[5] = type(e).__name__
                raise
            finally:
                self._close(s)
            if info is not None:
                s[4] = info(args, kwargs, r)
            return r

        return wrapper

    def _wrap_generator(self, fn, layer):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                s = self._open(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(s)
                    s[0] = layer + ".end"
                    return
                except Exception as e:
                    s[5] = type(e).__name__
                    self._close(s)
                    raise
                self._close(s)
                yield item

        return wrapper

    def install(self):
        for mod_name, attr, layer, info in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.missing.add(layer)
                continue
            self.present.add(layer)
            if attr == "iter_filter":
                wrapped = self._wrap_generator(fn, layer)
            else:
                wrapped = self._wrap_call(fn, layer, info)
            setattr(mod, attr, wrapped)
            self._undo.append((mod, attr, fn))
        # a layer counts as missing only when none of its call sites exists
        self.missing -= self.present

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(extra) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, wall_ns, frames, rounds):
        """Per-layer metrics from the recorded spans.

        wall_ns is the traced job's wall time, frames the frames it
        processed, rounds the whole rounds it ran.
        """
        child = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        by = defaultdict(list)   # layer -> [(duration, self, info, error)]
        root_ns = 0
        for i, s in enumerate(self.spans):
            d = s[2] - s[1]
            by[s[0]].append((d, d - child[i], s[4], s[5]))
            if s[3] < 0:
                root_ns += d
        # the generator's final next() (StopIteration) yields no frame
        by.pop("pipeline.iter_filter.end", None)

        def per_call(layer, field=0, scale=1e-6):
            rows = by.get(layer, [])
            return sum(r[field] for r in rows) * scale / len(rows) if rows else 0.0

        def total(layer, field=0):
            return sum(r[field] for r in by.get(layer, []))

        def info_mean(layer, pick=lambda x: x):
            vals = [pick(r[2]) for r in by.get(layer, []) if r[2] is not None]
            return sum(vals) / len(vals) if vals else 0.0

        def per_frame(layer):
            rows = by.get(layer, [])
            n = sum(r[2] or 0 for r in rows)
            return sum(r[0] for r in rows) * 1e-6 / n if n else 0.0

        kp_frames = sum(1 for r in by.get("metrics.keypoint_metrics", []) if r[2] == 1)
        ekf = by.get("homography_filter.ekf_update", [])
        m = {
            "keypoint_filter.lkf_predict_ms": (per_call("keypoint_filter.lkf_predict"), "ms"),
            "keypoint_filter.lkf_update_ms": (per_call("keypoint_filter.lkf_update"), "ms"),
            "homography_filter.ekf_predict_ms": (per_call("homography_filter.ekf_predict"), "ms"),
            "homography_filter.ekf_update_ms": (per_call("homography_filter.ekf_update"), "ms"),
            "keypoint_filter.measured_per_frame": (info_mean("keypoint_filter.lkf_update"), "count"),
            "homography_filter.active_per_update": (info_mean("homography_filter.ekf_update"), "count"),
            "homography_filter.updates_skipped": (
                sum(1 for r in ekf if r[3] in _SKIP) / rounds, "count"),
            "motion.estimate_global_motion_ms": (per_call("motion.estimate_global_motion"), "ms"),
            "motion.pairs_per_call": (info_mean("motion.estimate_global_motion", lambda x: x[0]), "count"),
            "motion.inlier_frac": (info_mean("motion.estimate_global_motion", lambda x: x[1]), "frac"),
            "homography_filter.ekf_init_self_ms": (per_call("homography_filter.ekf_init", 1), "ms"),
            "geometry.ransac_homography_ms": (per_call("geometry.ransac_homography"), "ms"),
            "geometry.ransac_calls": (len(by.get("geometry.ransac_homography", [])) / rounds, "count"),
            "geometry.ransac_inlier_frac": (info_mean("geometry.ransac_homography"), "frac"),
            "metrics.projection_error_ms": (per_call("metrics.projection_error"), "ms"),
            "metrics.iou_entire_ms": (per_call("metrics.iou_entire"), "ms"),
            "metrics.iou_entire_image_ms": (per_call("metrics.iou_entire_image"), "ms"),
            "metrics.iou_part_ms": (per_call("metrics.iou_part"), "ms"),
            "metrics.reprojection_error_ms": (per_call("metrics.reprojection_error"), "ms"),
            "metrics.keypoint_metrics_ms": (
                total("metrics.keypoint_metrics") * 1e-6 / kp_frames if kp_frames else 0.0, "ms"),
            "geometry.clip_polygon_us": (per_call("geometry.clip_polygon", scale=1e-3), "us"),
            "geometry.clip_polygon_calls": (len(by.get("geometry.clip_polygon", [])) / rounds, "count"),
            "calibration.calibrate_bank_self_ms": (per_call("calibration.calibrate_bank", 1), "ms"),
            "calibration.estimate_init_homography_cov_self_ms": (
                per_call("calibration.estimate_init_homography_cov", 1), "ms"),
            "seqio.read_sequence_ms_per_frame": (per_frame("seqio.read_sequence"), "ms/frame"),
            "seqio.read_estimates_ms_per_frame": (per_frame("seqio.read_estimates"), "ms/frame"),
            "seqio.write_estimates_ms_per_frame": (per_frame("seqio.write_estimates"), "ms/frame"),
            "seqio.write_sequence_ms_per_frame": (per_frame("seqio.write_sequence"), "ms/frame"),
            "seqio.write_report_ms": (per_call("seqio.write_report"), "ms"),
            "seqio.read_bank_ms": (per_call("seqio.read_bank"), "ms"),
            "simulator.generate_sequence_ms_per_frame": (per_frame("simulator.generate_sequence"), "ms/frame"),
            "pipeline.iter_filter_self_ms": (per_call("pipeline.iter_filter", 1), "ms/frame"),
            "pipeline.run_evaluate_self_ms": (per_call("pipeline.run_evaluate", 1), "ms"),
            "pipeline.run_ransac_baseline_self_ms": (per_call("pipeline.run_ransac_baseline", 1), "ms"),
            "cli.self_ms": (per_call("cli.main", 1), "ms"),
            "unattributed_ms_per_frame": ((wall_ns - root_ns) * 1e-6 / frames, "ms/frame"),
        }
        return {name: {"value": None if _layer_of(name) in self.missing else value,
                       "unit": unit}
                for name, (value, unit) in m.items()}


def _layer_of(metric):
    """Layer a metric is computed from: keypoint_filter.lkf_update_ms ->
    keypoint_filter.lkf_update; counts map to the layer that records them."""
    special = {
        "keypoint_filter.measured_per_frame": "keypoint_filter.lkf_update",
        "homography_filter.active_per_update": "homography_filter.ekf_update",
        "homography_filter.updates_skipped": "homography_filter.ekf_update",
        "motion.pairs_per_call": "motion.estimate_global_motion",
        "motion.inlier_frac": "motion.estimate_global_motion",
        "geometry.ransac_calls": "geometry.ransac_homography",
        "geometry.ransac_inlier_frac": "geometry.ransac_homography",
        "geometry.clip_polygon_calls": "geometry.clip_polygon",
        "cli.self_ms": "cli.main",
        "unattributed_ms_per_frame": None,
    }
    if metric in special:
        return special[metric]
    for suffix in ("_self_ms", "_ms_per_frame", "_ms", "_us"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return metric
