"""File formats: field templates, sequences, estimates, covariance banks, reports.

Sequences and estimates are line-delimited JSON with a one-line versioned
header; templates, banks and metric reports are single JSON documents.  Files
carry raw template keypoint ids; reading translates them to canonical
indices against the template, writing translates back.  The full schemas
live in docs/file_formats.md with golden examples under tests/data.

The frame rows of a sequence or estimates file are read BLOCK_ROWS at a
time, each field of a block checked and converted as one array.  A block
that fails a check is read again one row at a time, by the code that names
the first bad row's path, line and field; tests/test_seqio.py holds the two
paths to the same frames and errors.
"""

import json
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .calibration import CovarianceBank, TrainingRecord
from .errors import FormatError, SingularMatrix, UnknownKeypointId
from .field import FieldTemplate, ImageDims
from .geometry import EPS_T, normalize_homography
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

# Frame rows are read in blocks of this many: each field of a block is
# checked and converted as one array, so the checks run once per block, not
# once per row, and a streaming reader holds no more parsed rows than this.
# A block's fixed cost is some 40 NumPy calls: blocks of 16 and 32 rows read
# the benchmark's 90-frame clips in 1.9 and 1.75 times the time of
# json.loads on their lines, blocks of 48 in 1.6 times.
BLOCK_ROWS = 48
# A block with a number this large or larger is read row by row.  Below it
# a float holds every integer exactly, and an [id, x, y] list of integers
# fits the int64 array that _id_xy makes of it.  The bound also leaves out
# NaN and the infinities.
_BLOCK_MAX = 2.0 ** 53
_NUMBER_TYPES = frozenset((int, float))


def _matrix(rows):
    return np.asarray(rows, dtype=float).tolist()


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}", path=path) from None
    except UnicodeDecodeError as e:
        raise FormatError(f"not valid UTF-8: {e}", path=path) from None


_DECODER = json.JSONDecoder()


def _loads(text):
    """json.loads(text) for a line with no whitespace at either end.

    A line that json.loads takes is one value with nothing after it, which
    raw_decode reads without json.loads' wrapper.  Anything else goes to
    json.loads itself, so its error is json.loads' own.
    """
    try:
        value, end = _DECODER.raw_decode(text)
        if end == len(text):
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(text)


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


def _non_number(value):
    """[the first leaf of value, a number or nested lists, that is not a JSON
    number], or [] when there is none."""
    if type(value) is not list:
        return [] if type(value) in _NUMBER_TYPES else [value]
    if _NUMBER_TYPES.issuperset(map(type, value)):
        return []
    for v in value:
        bad = _non_number(v)
        if bad:
            return bad
    return []


def _check_numbers(key, value, path, line):
    """A FormatError naming key unless every leaf of value is a JSON number.

    float() and np.array(dtype=float) take true, false and numeric strings,
    so the other checks pass them; this one runs after those, which keeps
    the errors they raise as they were.
    """
    bad = _non_number(value)
    if bad:
        raise FormatError(f"{key}: {json.dumps(bad[0]):.40} is not a number",
                          path=path, line=line)


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
        template = FieldTemplate(ids=np.array(ids), positions=pos,
                                 width_m=float(doc["width_m"]), height_m=float(doc["height_m"]))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad template document: {e}", path=path) from None
    for key in ("width_m", "height_m", "keypoints"):
        _check_numbers(key, doc[key], path, None)
    return template


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
    raw = template.ids[np.asarray(ids, dtype=int)].tolist()
    return [[i, x, y] for i, (x, y) in
            zip(raw, np.atleast_2d(np.asarray(positions, dtype=float)).tolist())]


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
                row["motion"] = np.asarray(fr.motion.params(), dtype=float).tolist()
            if fr.flow is not None:
                prev, curr = (np.atleast_2d(np.asarray(a, dtype=float)).tolist() for a in fr.flow)
                row["flow"] = [p + c for p, c in zip(prev, curr)]
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
                row = _loads(raw)
            except json.JSONDecodeError as e:
                raise FormatError(f"invalid JSON: {e}", path=path, line=line) from None
            if header is None:
                _expect_kind(row, kind, path, line)
                try:
                    sequence_id = row["sequence_id"]
                    dims = ImageDims(_dim(row, "width_px", path, line),
                                     _dim(row, "height_px", path, line))
                except (KeyError, ValueError) as e:
                    raise FormatError(f"bad {kind} header: {e}", path=path, line=line) from None
                if type(sequence_id) is not str:
                    raise FormatError(f"sequence_id must be a string, got "
                                      f"{json.dumps(sequence_id):.40}", path=path, line=line)
                header = SequenceHeader(sequence_id, dims)
                yield header
                continue
            if type(row) is not dict:
                raise FormatError("a frame row must be a JSON object", path=path, line=line)
            frame = row.get("frame")
            if type(frame) is not int:
                _int(frame, "frame", path, line)
            if frame < 0:
                raise FormatError(f"frame must be at least 0, got {frame}", path=path, line=line)
            if last is not None and frame <= last:
                raise FormatError(f"frame indices must strictly increase "
                                  f"({frame} after {last})", path=path, line=line)
            last = frame
            yield line, frame, row
        if header is None:
            raise FormatError(f"empty {kind} file", path=path)


def _blocks(rows):
    """_frame_rows' frame rows in lists of up to BLOCK_ROWS.  An error in a
    line comes after the block of the rows before it, as it would if each
    row were read as it came."""
    block = []
    try:
        for item in rows:
            block.append(item)
            if len(block) == BLOCK_ROWS:
                yield block
                block = []
    except FormatError:
        if block:
            yield block
        raise
    if block:
        yield block


# -- the row-by-row path: each field of one row checked on its own, which
# names the first error of a block that failed a block check


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


def _check_row_numbers(row, keys, path, line):
    """_check_numbers on each of keys that row holds, not null, in turn."""
    for key in keys:
        if row.get(key) is not None:
            _check_numbers(key, row[key], path, line)


def _sequence_frame(line, idx, row, template, path):
    """One sequence row as a SequenceFrame, or the FormatError of its first bad field."""
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
    _check_row_numbers(row, ("measurements", "motion", "flow", "gt_homography", "gt_keypoints"),
                       path, line)
    return SequenceFrame(
        frame_index=idx,
        measurements=MeasurementFrame(idx, m_idx, m_pos),
        motion=motion,
        flow=flow,
        gt_homography=gt_h,
        gt_ids=gt_idx,
        gt_positions=gt_pos,
    )


def _estimate(line, idx, row, template, path):
    """One estimates row as a FrameEstimate, or the FormatError of its first bad field."""
    H = row.get("homography")
    if H is not None:
        H = _parse_homography(H, "homography", path, line)
    k_idx, k_pos = _parse_id_pos(row.get("keypoints", []), "keypoints", template, path, line)
    flags = row.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise FormatError("flags must be a list of strings", path=path, line=line)
    _check_row_numbers(row, ("homography", "keypoints"), path, line)
    return FrameEstimate(frame_index=idx, homography=H, keypoint_ids=k_idx,
                         keypoint_positions=k_pos, flags=tuple(flags))


# -- the block path: each field of a block checked as one array.  A block
# function returns None when a check fails, and the block is then read row
# by row, so both paths take the same rows and raise the same errors.


def _built(cls, **fields):
    """A cls over fields that a block check has just checked, made without
    __init__ and __post_init__, as homography_filter._built_state does."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _flat(values, shape):
    """The leaves of values as one flat list, or None unless each value is
    nested lists of that shape whose leaves are JSON numbers.

    A value of the right length that is not a list (a string, an object)
    yields strings here, which are not numbers.
    """
    try:
        for size in shape:
            if not {size}.issuperset(map(len, values)):
                return None
            values = list(chain.from_iterable(values))
    except TypeError:       # a number, a bool or null where a list belongs
        return None
    return values if _NUMBER_TYPES.issuperset(map(type, values)) else None


def _array(flat, shape):
    """The leaves _flat gave as a float array of shape (-1, *shape), or None
    unless each is below _BLOCK_MAX in magnitude."""
    try:
        a = np.array(flat, dtype=float)
    except OverflowError:       # an integer too large for a float
        return None
    return a.reshape(-1, *shape) if (np.abs(a) < _BLOCK_MAX).all() else None


def _stack(values, shape):
    """values as one float array of shape (len(values), *shape), or None."""
    flat = _flat(values, shape)
    return None if flat is None else _array(flat, shape)


def _concat(lists):
    """(the items of lists in one list, the length of each list), or None
    unless each is a list."""
    if not {list}.issuperset(map(type, lists)):
        return None
    return list(chain.from_iterable(lists)), list(map(len, lists))


def _rows_with(rows, key):
    return [i for i, row in enumerate(rows) if key in row]


def _runs(a, counts):
    """a's rows in consecutive runs of counts rows, each a new array.

    Views would keep each block's arrays alive for as long as any of its
    frames, among the block's freed temporaries: in the bench's offline
    workload that raised the peak RSS by more than the copies cost.
    """
    ends = list(accumulate(counts))
    return [a[s:e].copy() for s, e in zip([0, *ends], ends)]


def _scatter(n, at, values, empty):
    """n items: the values at the positions at, empty elsewhere."""
    out = [empty] * n
    for i, v in zip(at, values):
        out[i] = v
    return out


def _template_index(template):
    """(the template's raw ids sorted, their canonical indices, the template size)."""
    order = np.argsort(template.ids, kind="stable")
    return template.ids[order], order, template.n


def _id_pos_block(lists, index):
    """[(canonical ids, (K, 2) positions)] of a block's [id, x, y] lists, or
    None unless each list is one that _parse_id_pos takes."""
    entries = _concat(lists)
    flat = None if entries is None else _flat(entries[0], (3,))
    if flat is None or not {int}.issuperset(map(type, flat[::3])):
        return None
    a = _array(flat, (3,))
    if a is None:
        return None
    raw = a[:, 0].astype(np.int64)
    known, order, n = index
    at = np.searchsorted(known, raw)
    if not (known.take(at, mode="clip") == raw).all():
        return None
    idx = order[at]
    counts = entries[1]
    # one flag per (list, id): fewer set flags than entries means an id
    # twice in one list
    seen = np.zeros(len(lists) * n, dtype=bool)
    seen[np.repeat(np.arange(0, len(lists) * n, n), counts) + idx] = True
    if np.count_nonzero(seen) != idx.size:
        return None
    return list(zip(_runs(idx, counts), _runs(a[:, 1:], counts)))


def _homography_block(values):
    """values as 3x3 homographies normalized to h33 = 1, each a new array as
    in _runs, or None unless _parse_homography takes each."""
    H = _stack(values, (3, 3))
    if H is None or not (np.abs(H[:, 2, 2]) > EPS_T).all():
        return None
    return list(map(np.copy, H / H[:, 2:, 2:]))


def _sequence_block(block, index):
    """The block's SequenceFrames, or None."""
    rows = [row for _, _, row in block]
    at_m, at_f, at_h, at_k = (_rows_with(rows, key) for key in
                              ("motion", "flow", "gt_homography", "gt_keypoints"))
    n = len(rows)
    # the measurements and ground-truth keypoints of every row, in one call
    kps = _id_pos_block([row.get("measurements", []) for row in rows]
                        + [rows[i]["gt_keypoints"] for i in at_k], index)
    M = _stack([rows[i]["motion"] for i in at_m], (4,))
    H = _homography_block([rows[i]["gt_homography"] for i in at_h])
    if (kps is None or M is None or H is None
            or not (M[:, 0] * M[:, 0] + M[:, 1] * M[:, 1] > 0.0).all()):
        return None
    flow = [None] * n
    if at_f:
        flows = _concat([rows[i]["flow"] for i in at_f])
        F = None if flows is None else _stack(flows[0], (4,))
        if F is None:
            return None
        flow = _scatter(n, at_f, zip(_runs(F[:, :2], flows[1]), _runs(F[:, 2:], flows[1])),
                        None)
    motion = _scatter(n, at_m, (_built(AffineSimilarity, a=a, b=b, tx=tx, ty=ty)
                                for a, b, tx, ty in M.tolist()), None)
    gt_h = _scatter(n, at_h, H, None)
    gt = _scatter(n, at_k, kps[n:], (None, None))
    return [_built(SequenceFrame, frame_index=idx,
                   measurements=_built(MeasurementFrame, frame_index=idx, ids=m_idx,
                                       positions=m_pos),
                   motion=motion[b], flow=flow[b], gt_homography=gt_h[b],
                   gt_ids=gt[b][0], gt_positions=gt[b][1])
            for b, ((_, idx, _), (m_idx, m_pos)) in enumerate(zip(block, kps))]


def _estimates_block(block, index):
    """The block's FrameEstimates, or None."""
    rows = [row for _, _, row in block]
    at_h = [i for i, row in enumerate(rows) if row.get("homography") is not None]
    H = _homography_block([rows[i]["homography"] for i in at_h])
    kps = _id_pos_block([row.get("keypoints", []) for row in rows], index)
    flags = [row.get("flags", []) for row in rows]
    if (H is None or kps is None or not {list}.issuperset(map(type, flags))
            or not {str}.issuperset(map(type, chain.from_iterable(flags)))):
        return None
    return [_built(FrameEstimate, frame_index=idx, homography=h, keypoint_ids=k_idx,
                   keypoint_positions=k_pos, flags=tuple(f))
            for (_, idx, _), h, (k_idx, k_pos), f
            in zip(block, _scatter(len(rows), at_h, H, None), kps, flags)]


def iter_sequence(path, template):
    """Yield SequenceHeader first, then SequenceFrame per line, streaming."""
    rows = _frame_rows(path, SEQUENCE_KIND)
    yield next(rows)
    index = _template_index(template)
    for block in _blocks(rows):
        frames = _sequence_block(block, index)
        if frames is None:
            frames = (_sequence_frame(line, idx, row, template, path)
                      for line, idx, row in block)
        del block   # so that one block of parsed rows is alive at a time
        yield from frames


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
    index = _template_index(template)
    out = []
    for block in _blocks(rows):
        estimates = _estimates_block(block, index)
        if estimates is None:
            estimates = (_estimate(line, idx, row, template, path)
                         for line, idx, row in block)
        del block   # so that one block of parsed rows is alive at a time
        out.extend(estimates)
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
    # matrices whose leaves are not yet known to be JSON numbers, by key
    unchecked = []
    try:
        def section(name, k):
            sec = doc[name]
            pooled = _finite(sec["pooled"], f"{name} pooled", (k, k), path)
            unchecked.append((f"{name} pooled", sec["pooled"]))
            items = list(sec.get("per_id", {}).items())
            # one stack for every block; one block at a time only to name a bad one
            stack = _stack([m for _, m in items], (k, k))
            if stack is None:
                blocks = {int(i): _finite(m, f"{name} per_id {i}", (k, k), path)
                          for i, m in items}
                unchecked.extend((f"{name} per_id {i}", m) for i, m in items)
            else:
                blocks = {int(i): m for (i, _), m in zip(items, stack)}
            counts = {int(i): _int(c, f"{name} counts", path)
                      for i, c in sec.get("counts", {}).items()}
            return blocks, pooled, counts

        kp_blocks, kp_pooled, kp_counts = section("keypoint_process", 2)
        m_blocks, m_pooled, m_counts = section("measurement", 2)
        samples = doc.get("samples", {})
        bank = CovarianceBank(
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
    unchecked += [(key, doc[key]) for key in ("homography_process", "init_homography")]
    for key, value in unchecked:
        _check_numbers(key, value, path, None)
    return bank


# -- metric reports ----------------------------------------------------------


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.as_document(), f, indent=1)
        f.write("\n")


def read_report(path):
    doc = _load_json(path)
    _expect_kind(doc, REPORT_KIND, path)
    return doc
