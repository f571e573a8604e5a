"""The sequence and estimates readers' two paths, and what every reader
takes as a number.

The readers check each field once per block of rows; a block that fails a
check is read again row by row, and that path names the error.  The two
paths must give bit-identical frames, or the same error, on every input.
"""

import dataclasses
import json
import pathlib
import random

import numpy as np
import pytest

from fieldreg import seqio
from fieldreg.errors import FieldRegError, FormatError
from fieldreg.field import standard_soccer_template
from test_io_fuzz import ESTIMATES, SEEDS, SEQUENCE, mutate_lines

DATA = pathlib.Path(__file__).parent / "data"
TEMPLATE = standard_soccer_template()


def _estimates(path, template):
    return seqio.read_estimates(path, template)[1]


READERS = {"sequence": (SEQUENCE, seqio.iter_sequence), "estimates": (ESTIMATES, _estimates)}


def _row_by_row(monkeypatch):
    """Make every block fail its block check, so each row is read on its own."""
    monkeypatch.setattr(seqio, "_sequence_block", lambda block, index: None)
    monkeypatch.setattr(seqio, "_estimates_block", lambda block, index: None)


def _canon(value):
    """value as nested tuples that compare equal only when bit-identical."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_canon(getattr(value, f.name))
                                        for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def _read(read, path):
    """(what read yields, up to its error; the error's type and text, or None)."""
    out = []
    try:
        for item in read(path, TEMPLATE):
            out.append(_canon(item))
    except FieldRegError as e:
        return out, (type(e).__name__, str(e))
    return out, None


@pytest.mark.parametrize("block_rows", [seqio.BLOCK_ROWS, 3])
@pytest.mark.parametrize("which", ["sequence", "estimates"])
def test_block_and_row_paths_agree_on_every_fuzzed_file(tmp_path, monkeypatch, which, block_rows):
    # blocks of 3 rows split the 10-frame golden files, so that a bad row
    # also lands after whole blocks
    monkeypatch.setattr(seqio, "BLOCK_ROWS", block_rows)
    source, read = READERS[which]
    lines = source.read_text().splitlines()
    cases = [("golden", lines)] + [
        (what, mutated) for mutated, what, _ in
        (mutate_lines(lines, random.Random(f"{which}/{seed}")) for seed in SEEDS)]
    paths = []
    for k, (_, text) in enumerate(cases):
        paths.append(tmp_path / f"{k}.jsonl")
        paths[-1].write_text("\n".join(text) + "\n")
    by_block = [_read(read, p) for p in paths]
    _row_by_row(monkeypatch)
    by_row = [_read(read, p) for p in paths]
    for (what, _), a, b in zip(cases, by_block, by_row):
        assert a == b, what
    # the golden file reads without error, and the seeds reach both outcomes
    assert by_block[0][1] is None
    assert {err is None for _, err in by_block[1:]} == {True, False}


def _edge(key, value):
    def edit(row):
        row[key] = value
    return edit


# rows that the block checks hand to the row-by-row path, which takes some
# of them (a reshape) and rejects the others
EDGES = [
    *(_edge("measurements", [[0, x, 1.5]])
      for x in (10 ** 400, -10 ** 19, 10 ** 19, 1e300, 2 ** 53)),
    _edge("measurements", [[2 ** 63, 1.0, 1.5]]),
    _edge("measurements", []),
    _edge("motion", [[1.0], [0.0], [0.5], [0.5]]),
    _edge("motion", [1e-170, 0.0, 0.0, 0.0]),
    _edge("gt_homography", [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
    _edge("gt_homography", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-300]]),
    _edge("flow", [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]),
    _edge("flow", [1.0, 2.0, 3.0, 4.0]),
    _edge("flow", []),
    _edge("flow", None),
    _edge("gt_keypoints", [[0, 1.0, 2.0], [0, 3.0, 4.0]]),
]


@pytest.mark.parametrize("edit", EDGES)
def test_block_and_row_paths_agree_on_edge_rows(tmp_path, monkeypatch, edit):
    path = tmp_path / "edge.jsonl"
    path.write_text(_jsonl_case(SEQUENCE, 3, edit)[1])
    by_block = _read(seqio.iter_sequence, path)
    _row_by_row(monkeypatch)
    assert by_block == _read(seqio.iter_sequence, path)


def _jsonl_case(source, line, edit):
    """(file name, edited text of a JSONL file): edit(row) changes one line's row."""
    rows = [json.loads(t) for t in source.read_text().splitlines()]
    edit(rows[line - 1])
    return source.name, "\n".join(json.dumps(r) for r in rows) + "\n"


def _edit(at, new):
    """An edit of a JSON value that replaces the item at the path `at` with new(item)."""
    def edit(doc):
        for k in at[:-1]:
            doc = doc[k]
        doc[at[-1]] = new(doc[at[-1]])
    return edit


def _set(*at, value):
    return _edit(at, lambda _: value)


def _as_string(*at):
    return _edit(at, repr)


# (case id, (file name, text), reader, the error after "<path>: ")
NOT_NUMBERS = [
    ("motion-string", _jsonl_case(SEQUENCE, 3, _as_string("motion", 2)), "sequence",
     'line 3: motion: "0.1570078687288315" is not a number'),
    ("measurement-x-true", _jsonl_case(SEQUENCE, 2, _set("measurements", 0, 1, value=True)),
     "sequence", "line 2: measurements: true is not a number"),
    ("gt-homography-string", _jsonl_case(SEQUENCE, 4, _as_string("gt_homography", 0, 0)),
     "sequence", 'line 4: gt_homography: "8.0'),
    ("gt-homography-false", _jsonl_case(SEQUENCE, 11, _set("gt_homography", 2, 1, value=False)),
     "sequence", "line 11: gt_homography: false is not a number"),
    *((f"sequence-id-{json.dumps(v)}", _jsonl_case(SEQUENCE, 1, _set("sequence_id", value=v)),
       "sequence", f"line 1: sequence_id must be a string, got {json.dumps(v)}")
      for v in (5, None, ["a"], True)),
    ("estimates-sequence-id", _jsonl_case(ESTIMATES, 1, _set("sequence_id", value=7)),
     "estimates", "line 1: sequence_id must be a string, got 7"),
    ("estimates-homography-string", _jsonl_case(ESTIMATES, 6, _as_string("homography", 1, 2)),
     "estimates", 'line 6: homography: "1'),
]
DOCUMENTS = {"template": ("golden_template.json", seqio.read_template),
             "bank": ("golden_bank.json", seqio.read_bank)}
NOT_NUMBERS_IN_DOCUMENTS = [
    ("template-x-true", "template", _set("keypoints", 4, 1, value=True),
     "keypoints: true is not a number"),
    ("template-width-string", "template", _set("width_m", value="105"),
     'width_m: "105" is not a number'),
    ("bank-pooled-string", "bank", _as_string("measurement", "pooled", 0, 0),
     'measurement pooled: "'),
    ("bank-per-id-string", "bank", _as_string("keypoint_process", "per_id", "3", 1, 1),
     'keypoint_process per_id 3: "'),
    ("bank-homography-process-true", "bank", _set("homography_process", 7, 7, value=True),
     "homography_process: true is not a number"),
]


@pytest.mark.parametrize("row_by_row", [False, True], ids=["block", "row"])
@pytest.mark.parametrize("case, file, which, message", NOT_NUMBERS,
                         ids=[c[0] for c in NOT_NUMBERS])
def test_a_json_number_or_string_is_not_coerced(tmp_path, monkeypatch, row_by_row,
                                                 case, file, which, message):
    # float(), np.array(dtype=float) and str() took each of these
    if row_by_row:
        _row_by_row(monkeypatch)
    path = tmp_path / file[0]
    path.write_text(file[1])
    read = seqio.read_sequence if which == "sequence" else seqio.read_estimates
    with pytest.raises(FormatError) as e:
        read(path, TEMPLATE)
    assert str(e.value).startswith(f"{path}: {message}")
    assert str(e.value).endswith((" is not a number", f"got {message.split()[-1]}"))


@pytest.mark.parametrize("case, which, edit, message", NOT_NUMBERS_IN_DOCUMENTS,
                         ids=[c[0] for c in NOT_NUMBERS_IN_DOCUMENTS])
def test_a_json_number_in_a_document_is_not_coerced(tmp_path, case, which, edit, message):
    name, read = DOCUMENTS[which]
    doc = json.loads((DATA / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as e:
        read(path)
    assert str(e.value).startswith(f"{path}: {message}")
    assert str(e.value).endswith(" is not a number")
