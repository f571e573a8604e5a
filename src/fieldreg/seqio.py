"""File formats: field templates, sequences, estimates, covariance banks, reports.

Sequences and estimates are line-delimited JSON with a one-line versioned
header; templates, banks and metric reports are single JSON documents.  Files
carry raw template keypoint ids; reading translates them to canonical
indices against the template, writing translates back.  The full schemas
live in docs/file_formats.md with golden examples under tests/data.
"""

import json
from dataclasses import dataclass

import numpy as np

from .calibration import CovarianceBank, TrainingRecord
from .errors import FormatError, SingularMatrix, UnknownKeypointId
from .field import FieldTemplate, ImageDims
from .geometry import normalize_homography
from .keypoint_filter import MeasurementFrame
from .motion import AffineSimilarity
from .pipeline import FrameEstimate

SEQUENCE_KIND = "sequence"
ESTIMATES_KIND = "homography_estimates"
TEMPLATE_KIND = "field_template"
BANK_KIND = "covariance_bank"
REPORT_KIND = "metrics_report"
FORMAT_VERSION = 1

# Recorded in every bank file so a reader never has to guess the layout.
H_PARAM_ORDER_TAG = "column-stacked: h11 h21 h31 h12 h22 h32 h13 h23 (h33 fixed at 1, excluded)"


def _matrix(rows):
    return [[float(x) for x in row] for row in np.asarray(rows, dtype=float)]


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}", path=path) from None
    except UnicodeDecodeError as e:
        raise FormatError(f"not valid UTF-8: {e}", path=path) from None


def _expect_kind(doc, kind, path, line=None):
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise FormatError(f"expected a {kind!r} document", path=path, line=line)
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version!r}", path=path, line=line)


def _int(value, key, path, line=None):
    """value if it is a JSON integer (an int, not a bool), else a FormatError."""
    if type(value) is not int:
        raise FormatError(f"{key} must be an integer, got {value!r:.40}", path=path, line=line)
    return value


def _dim(row, key, path, line):
    """row[key] as an image dimension: a JSON integer that a float can hold."""
    value = _int(row[key], key, path, line)
    try:
        float(value)
    except OverflowError:
        raise FormatError(f"{key} is too large", path=path, line=line) from None
    return value


def _finite(value, key, shape, path, line=None):
    """A finite float array reshaped to shape, or a FormatError naming key."""
    try:
        a = np.array(value, dtype=float).reshape(shape)
    except (TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad {key}: {e}", path=path, line=line) from None
    if not np.isfinite(a).all():
        raise FormatError(f"non-finite {key} value", path=path, line=line)
    return a


def _id_xy(entries, key, path, line=None):
    """Raw ids and (K, 2) positions of an [id, x, y] list.

    Ids must be unique JSON integers, and x, y finite numbers.
    """
    a = None
    if isinstance(entries, list):
        try:
            a = np.array(entries) if entries else np.empty((0, 3))
        except ValueError:      # ragged
            pass
    if a is None or a.ndim != 2 or a.shape[1] != 3 or a.dtype.kind not in "if":
        raise FormatError(f"{key} must be a list of [id, x, y]", path=path, line=line)
    ids = [e[0] for e in entries]
    if not all(type(i) is int for i in ids):
        raise FormatError(f"{key} ids must be integers", path=path, line=line)
    if len(set(ids)) != len(ids):
        raise FormatError(f"duplicate ids in {key}", path=path, line=line)
    return ids, _finite(a[:, 1:], key, (-1, 2), path, line)


# -- field templates ---------------------------------------------------------


def write_template(template, path):
    doc = {
        "kind": TEMPLATE_KIND,
        "version": FORMAT_VERSION,
        "width_m": float(template.width_m),
        "height_m": float(template.height_m),
        "keypoints": [[int(i), float(x), float(y)]
                      for i, (x, y) in zip(template.ids, template.positions)],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_template(path):
    doc = _load_json(path)
    _expect_kind(doc, TEMPLATE_KIND, path)
    try:
        ids, pos = _id_xy(doc["keypoints"], "keypoints", path)
        return FieldTemplate(ids=np.array(ids), positions=pos,
                             width_m=float(doc["width_m"]), height_m=float(doc["height_m"]))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad template document: {e}", path=path) from None


# -- sequences and estimates -------------------------------------------------


@dataclass(frozen=True)
class SequenceHeader:
    sequence_id: str
    dims: ImageDims


@dataclass(frozen=True)
class SequenceFrame:
    """One frame of a sequence, ids already canonical; the simulator's output too."""

    frame_index: int
    measurements: MeasurementFrame
    motion: AffineSimilarity = None
    flow: tuple = None              # (prev (M,2), curr (M,2)) or None
    gt_homography: np.ndarray = None
    gt_ids: np.ndarray = None
    gt_positions: np.ndarray = None


def _id_pos_list(ids, positions, template):
    raw = template.ids[np.asarray(ids, dtype=int)]
    return [[int(i), float(p[0]), float(p[1])] for i, p in zip(raw, np.atleast_2d(positions))]


def _write_header(f, kind, header):
    f.write(json.dumps({
        "kind": kind,
        "version": FORMAT_VERSION,
        "sequence_id": header.sequence_id,
        "width_px": int(header.dims.width_px),
        "height_px": int(header.dims.height_px),
    }) + "\n")


def write_sequence(path, header, frames, template):
    """frames: iterable of SequenceFrame."""
    with open(path, "w", encoding="utf-8") as f:
        _write_header(f, SEQUENCE_KIND, header)
        for fr in frames:
            row = {
                "frame": int(fr.frame_index),
                "measurements": _id_pos_list(fr.measurements.ids, fr.measurements.positions,
                                             template),
            }
            if fr.motion is not None:
                row["motion"] = [float(v) for v in fr.motion.params()]
            if fr.flow is not None:
                prev, curr = fr.flow
                row["flow"] = [[float(a), float(b), float(c), float(d)]
                               for (a, b), (c, d) in zip(np.atleast_2d(prev), np.atleast_2d(curr))]
            if fr.gt_homography is not None:
                row["gt_homography"] = _matrix(fr.gt_homography)
            if fr.gt_ids is not None:
                row["gt_keypoints"] = _id_pos_list(fr.gt_ids, fr.gt_positions, template)
            f.write(json.dumps(row) + "\n")


def _frame_rows(path, kind):
    """Yield a JSONL file's SequenceHeader, then (line, frame, row) per frame row.

    Owns what the sequence and estimates readers share: UTF-8 decoding, blank
    lines, JSON errors, the header, and the strictly increasing non-negative
    integer 'frame' (per-frame seeds are seed + frame).  Lines are decoded one
    at a time so a bad byte names its line.
    """
    with open(path, "rb") as f:
        header = None
        last = None
        for line, raw in enumerate(f, start=1):
            try:
                raw = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise FormatError(f"not valid UTF-8: {e}", path=path, line=line) from None
            if not raw:
                continue
            try:
                row = json.loads(raw)
            except json.JSONDecodeError as e:
                raise FormatError(f"invalid JSON: {e}", path=path, line=line) from None
            if header is None:
                _expect_kind(row, kind, path, line)
                try:
                    header = SequenceHeader(
                        sequence_id=str(row["sequence_id"]),
                        dims=ImageDims(_dim(row, "width_px", path, line),
                                       _dim(row, "height_px", path, line)))
                except (KeyError, ValueError) as e:
                    raise FormatError(f"bad {kind} header: {e}", path=path, line=line) from None
                yield header
                continue
            if not isinstance(row, dict):
                raise FormatError("a frame row must be a JSON object", path=path, line=line)
            frame = _int(row.get("frame"), "frame", path, line)
            if frame < 0:
                raise FormatError(f"frame must be at least 0, got {frame}", path=path, line=line)
            if last is not None and frame <= last:
                raise FormatError(f"frame indices must strictly increase "
                                  f"({frame} after {last})", path=path, line=line)
            last = frame
            yield line, frame, row
        if header is None:
            raise FormatError(f"empty {kind} file", path=path)


def _parse_id_pos(entries, key, template, path, line):
    raw_ids, pos = _id_xy(entries, key, path, line)
    try:
        idx = template.index_of(raw_ids)
    except UnknownKeypointId as e:
        raise UnknownKeypointId(f"{path}: line {line}: {e}") from None
    return idx, pos


def _parse_homography(value, key, path, line):
    """A finite 3x3 matrix normalized to h33 = 1, or a FormatError naming key."""
    try:
        return normalize_homography(_finite(value, key, (3, 3), path, line))
    except SingularMatrix as e:
        raise FormatError(f"bad {key}: {e}", path=path, line=line) from None


def iter_sequence(path, template):
    """Yield SequenceHeader first, then SequenceFrame per line, streaming."""
    rows = _frame_rows(path, SEQUENCE_KIND)
    yield next(rows)
    for line, idx, row in rows:
        m_idx, m_pos = _parse_id_pos(row.get("measurements", []), "measurements",
                                     template, path, line)
        motion = None
        if "motion" in row:
            p = row["motion"]
            if not isinstance(p, list) or len(p) != 4:
                raise FormatError("motion must be [a, b, tx, ty]", path=path, line=line)
            try:
                motion = AffineSimilarity(*_finite(p, "motion", 4, path, line).tolist())
            except ValueError as e:
                raise FormatError(f"bad motion: {e}", path=path, line=line) from None
        flow = None
        if "flow" in row:
            arr = _finite(row["flow"], "flow", (-1, 4), path, line)
            flow = (arr[:, :2].copy(), arr[:, 2:].copy())
        gt_h = None
        if "gt_homography" in row:
            gt_h = _parse_homography(row["gt_homography"], "gt_homography", path, line)
        gt_idx = gt_pos = None
        if "gt_keypoints" in row:
            gt_idx, gt_pos = _parse_id_pos(row["gt_keypoints"], "gt_keypoints",
                                           template, path, line)
        yield SequenceFrame(
            frame_index=idx,
            measurements=MeasurementFrame(idx, m_idx, m_pos),
            motion=motion,
            flow=flow,
            gt_homography=gt_h,
            gt_ids=gt_idx,
            gt_positions=gt_pos,
        )


def read_sequence(path, template):
    """(SequenceHeader, list of SequenceFrame)."""
    header, *frames = iter_sequence(path, template)
    return header, frames


def training_records(frames):
    """TrainingRecords from sequence frames that carry a ground-truth homography."""
    out = []
    for fr in frames:
        if fr.gt_homography is None:
            continue
        gt_ids = fr.gt_ids if fr.gt_ids is not None else np.empty(0, dtype=int)
        gt_pos = fr.gt_positions if fr.gt_positions is not None else np.empty((0, 2))
        out.append(TrainingRecord(
            frame_index=fr.frame_index,
            gt_homography=fr.gt_homography,
            gt_ids=gt_ids,
            gt_positions=gt_pos,
            measured_ids=fr.measurements.ids,
            measured_positions=fr.measurements.positions,
            motion=fr.motion,
        ))
    return out


def write_estimates(path, header, estimates, template):
    with open(path, "w", encoding="utf-8") as f:
        _write_header(f, ESTIMATES_KIND, header)
        for est in estimates:
            row = {"frame": int(est.frame_index)}
            row["homography"] = None if est.homography is None else _matrix(est.homography)
            row["keypoints"] = _id_pos_list(est.keypoint_ids, est.keypoint_positions, template)
            row["flags"] = list(est.flags)
            f.write(json.dumps(row) + "\n")


def read_estimates(path, template):
    """(SequenceHeader, list of FrameEstimate)."""
    rows = _frame_rows(path, ESTIMATES_KIND)
    header = next(rows)
    out = []
    for line, idx, row in rows:
        H = row.get("homography")
        if H is not None:
            H = _parse_homography(H, "homography", path, line)
        k_idx, k_pos = _parse_id_pos(row.get("keypoints", []), "keypoints", template, path, line)
        flags = row.get("flags", [])
        if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
            raise FormatError("flags must be a list of strings", path=path, line=line)
        out.append(FrameEstimate(
            frame_index=idx, homography=H, keypoint_ids=k_idx,
            keypoint_positions=k_pos, flags=tuple(flags)))
    return header, out


# -- covariance banks --------------------------------------------------------


def write_bank(bank, path):
    def per_id(blocks, counts):
        keys = sorted(blocks.keys())
        return {
            "per_id": {str(k): _matrix(blocks[k]) for k in keys},
            "counts": {str(k): int(counts.get(k, 0)) for k in keys},
        }

    doc = {
        "kind": BANK_KIND,
        "version": FORMAT_VERSION,
        "homography_param_order": H_PARAM_ORDER_TAG,
        "matrix_layout": "row-major",
        "keypoint_process": {
            "pooled": _matrix(bank.keypoint_process_pooled),
            **per_id(bank.keypoint_process, bank.keypoint_process_counts),
        },
        "measurement": {
            "pooled": _matrix(bank.measurement_pooled),
            **per_id(bank.measurement, bank.measurement_counts),
        },
        "homography_process": _matrix(bank.homography_process),
        "init_homography": _matrix(bank.init_homography),
        "samples": {
            "homography_process": int(bank.homography_process_samples),
            "init_homography": int(bank.init_homography_samples),
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_bank(path):
    doc = _load_json(path)
    _expect_kind(doc, BANK_KIND, path)
    if doc.get("homography_param_order") != H_PARAM_ORDER_TAG:
        raise FormatError(
            f"unknown homography parameter order {doc.get('homography_param_order')!r}", path=path)
    try:
        def section(name, k):
            sec = doc[name]
            pooled = _finite(sec["pooled"], f"{name} pooled", (k, k), path)
            blocks = {int(i): _finite(m, f"{name} per_id {i}", (k, k), path)
                      for i, m in sec.get("per_id", {}).items()}
            counts = {int(i): _int(c, f"{name} counts", path)
                      for i, c in sec.get("counts", {}).items()}
            return blocks, pooled, counts

        kp_blocks, kp_pooled, kp_counts = section("keypoint_process", 2)
        m_blocks, m_pooled, m_counts = section("measurement", 2)
        samples = doc.get("samples", {})
        return CovarianceBank(
            keypoint_process=kp_blocks,
            keypoint_process_pooled=kp_pooled,
            keypoint_process_counts=kp_counts,
            measurement=m_blocks,
            measurement_pooled=m_pooled,
            measurement_counts=m_counts,
            homography_process=_finite(doc["homography_process"], "homography_process",
                                       (8, 8), path),
            homography_process_samples=_int(samples.get("homography_process", 0),
                                            "samples", path),
            init_homography=_finite(doc["init_homography"], "init_homography", (8, 8), path),
            init_homography_samples=_int(samples.get("init_homography", 0), "samples", path),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad covariance bank: {e}", path=path) from None


# -- metric reports ----------------------------------------------------------


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.as_document(), f, indent=1)
        f.write("\n")


def read_report(path):
    doc = _load_json(path)
    _expect_kind(doc, REPORT_KIND, path)
    return doc
