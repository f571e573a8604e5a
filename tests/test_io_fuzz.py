"""Seeded mutations of the golden sequence, estimates, bank, template and
config files.

Each case applies one mutation to one line of a JSONL file, or to the whole
of a JSON document: truncate it, delete a key, retype a key or a number at
any depth, reshape or duplicate a list entry, or put NaN or an infinity in
place of a number.  Every CLI verb that reads the mutated file must then
return 0, or return 1 with `error: <path>: line N: ` (`error: <path>: ` for
a JSON document, which has no lines to name); none may raise.  A number
retyped to something that is not a number (true, "x", null, a list, an
object) must give that error, since every number a file holds is read.
Every file a verb writes must be strict JSON, with no NaN or Infinity
token.  The one other allowed failure is evaluate's cross-file
FrameMismatch, which a changed frame index or sequence id can cause.
Standard library only.
"""

import contextlib
import io
import json
import pathlib
import random
import re

import pytest

from fieldreg.cli import main as cli_main

DATA = pathlib.Path(__file__).parent / "data"
SEQUENCE = DATA / "golden_sequence.jsonl"
ESTIMATES = DATA / "golden_estimates.jsonl"
BANK = DATA / "golden_bank.json"
TEMPLATE = DATA / "golden_template.json"
CONFIG = DATA / "golden_config.json"
SEEDS = range(200)

RETYPED = [None, True, "x", 2.7, -1, [], {}, [1, 2], {"frame": 1}]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
# the messages evaluate's FrameMismatch carries
FRAME_MISMATCH = ("error: estimates are for sequence ", "error: prediction and truth frame sets")


def _paths(value, keep, at=()):
    """Paths to every part of a JSON value that keep() accepts, itself included."""
    if keep(value):
        yield at
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield from _paths(v, keep, at + (k,))


def _get(value, at):
    for k in at:
        value = value[k]
    return value


def _set(value, at, new):
    _get(value, at[:-1])[at[-1]] = new


def _is_number(value):
    return type(value) in (int, float)


def mutate_lines(lines, rng):
    """The lines with one seeded mutation applied to one of them, its
    description, and whether it made a number something else."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    lines[i], what, unnumbered = mutate(lines[i], rng)
    return lines, f"line {i + 1}: {what}", unnumbered


def mutate(text, rng):
    """The JSON document text with one seeded mutation applied, its
    description, and whether it made a number something else."""
    row = json.loads(text)
    kind = rng.choice(["truncate", "delete", "retype", "reshape", "duplicate", "non-finite"])
    lists = [at for at in _paths(row, lambda v: isinstance(v, list)) if at]
    nonempty = [at for at in lists if _get(row, at)]
    unnumbered = False
    if kind == "truncate":
        return text[:rng.randrange(len(text))], "truncate", unnumbered
    if kind == "delete":
        key = rng.choice(sorted(row))
        del row[key]
        what = f"delete {key!r}"
    elif kind == "retype":
        # a top-level key, or half the time a number nested in a list or object
        nested = [at for at in _paths(row, _is_number) if len(at) > 1]
        at = rng.choice(nested) if nested and rng.random() < 0.5 else (rng.choice(sorted(row)),)
        new = rng.choice(RETYPED)
        unnumbered = _is_number(_get(row, at)) and not _is_number(new)
        _set(row, at, new)
        what = f"retype {at} to {json.dumps(new)}"
    elif kind == "reshape" and lists:
        at = rng.choice(lists)
        target = _get(row, at)
        how = rng.choice(["drop", "append", "wrap"])
        if how == "drop" and target:
            target.pop(rng.randrange(len(target)))
        elif how == "wrap":
            _set(row, at, [target])
        else:
            target.append(0.5)
        what = f"reshape {at} ({how})"
    elif kind == "duplicate" and nonempty:
        at = rng.choice(nonempty)
        target = _get(row, at)
        j = rng.randrange(len(target))
        target.insert(j, json.loads(json.dumps(target[j])))
        what = f"duplicate an entry of {at}"
    else:
        at = rng.choice(list(_paths(row, _is_number)))
        _set(row, at, rng.choice(NON_FINITE))
        what = f"non-finite at {at}"
    return json.dumps(row), what, unnumbered


def _reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def _strict_json(path):
    text = pathlib.Path(path).read_text()
    docs = text.splitlines() if path.endswith(".jsonl") else [text]
    for doc in docs:
        json.loads(doc, parse_constant=_reject_constant)


def _run(argv):
    """(return code, stderr) of one in-process CLI run."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli_main(argv)
    return rc, stderr.getvalue()


def _verbs(mutated, which):
    """The verb runs that read the mutated file, without --output."""
    evaluate = ["evaluate", "--projection-samples", "30"]
    if which == "estimates":
        return [evaluate + ["--input", mutated, "--truth", str(SEQUENCE)]]
    return [["filter", "--input", mutated], ["baseline", "--input", mutated],
            ["calibrate", "--input", mutated],
            evaluate + ["--input", str(ESTIMATES), "--truth", mutated]]


@pytest.mark.parametrize("which", ["sequence", "estimates"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_inputs_fail_cleanly(tmp_path, which, seed):
    source = SEQUENCE if which == "sequence" else ESTIMATES
    lines, what, unnumbered = mutate_lines(source.read_text().splitlines(),
                                           random.Random(f"{which}/{seed}"))
    mutated = str(tmp_path / source.name)
    pathlib.Path(mutated).write_text("\n".join(lines) + "\n")
    located = re.compile(rf"error: {re.escape(mutated)}: line \d+: ")
    for argv in _verbs(mutated, which):
        out = str(tmp_path / (argv[0] + (".jsonl" if argv[0] in ("filter", "baseline")
                                         else ".json")))
        rc, err = _run(argv + ["--output", out])
        context = f"{what}; {argv[0]}: {err.strip()}"
        if rc == 0 and not unnumbered:
            _strict_json(out)
            continue
        assert rc == 1, context
        assert located.match(err) or (argv[0] == "evaluate" and err.startswith(FRAME_MISMATCH)
                                      and not unnumbered), context


def _document_fails_cleanly(tmp_path, source, tag, seed, argv, output, elsewhere=None):
    """Run argv(mutated) + --output on one seeded mutation of the JSON document
    source.  elsewhere matches an error in another input that a mutation
    which leaves the document valid can cause."""
    text, what, unnumbered = mutate(source.read_text(), random.Random(f"{tag}/{seed}"))
    mutated = str(tmp_path / source.name)
    pathlib.Path(mutated).write_text(text)
    out = str(tmp_path / output)
    rc, err = _run(argv(mutated) + ["--output", out])
    if rc == 0 and not unnumbered:
        _strict_json(out)
        return
    assert rc == 1, f"{what}: {err.strip()}"
    assert re.match(rf"error: {re.escape(mutated)}: (?!line )", err) or (
        elsewhere and not unnumbered and re.match(elsewhere, err)), f"{what}: {err.strip()}"


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_bank_fails_cleanly(tmp_path, seed):
    _document_fails_cleanly(tmp_path, BANK, "bank", seed,
                            lambda m: ["filter", "--input", str(SEQUENCE), "--bank", m],
                            "filter.jsonl")


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_template_fails_cleanly(tmp_path, seed):
    _document_fails_cleanly(tmp_path, TEMPLATE, "template", seed,
                            lambda m: ["filter", "--input", str(SEQUENCE), "--template", m],
                            "filter.jsonl",
                            # a template whose ids changed misses ids the sequence uses
                            rf"error: {re.escape(str(SEQUENCE))}: line \d+: "
                            r"keypoint id \d+ is not in the template$")


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_config_fails_cleanly(tmp_path, seed):
    _document_fails_cleanly(tmp_path, CONFIG, "config", seed,
                            lambda m: ["simulate", "--config", m], "simulate.jsonl")
