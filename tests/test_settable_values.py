"""A ratchet on the package's settable values: every keyword default of a
function plus every dataclass field with a default, over src/fieldreg/*.py.
A field declared with init=False (FieldTemplate._index) is state, not a
setting.  A change that adds a knob raises SETTABLE_VALUES in the same diff;
one that deletes a knob lowers it."""

import ast
import pathlib

import fieldreg

PACKAGE = pathlib.Path(fieldreg.__file__).resolve().parent
SETTABLE_VALUES = 65


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _is_init_false(value):
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords)


def settable_values(tree):
    """(keyword defaults, dataclass fields with a default) in tree."""
    defaults = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += len(node.args.defaults)
            defaults += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                          and not _is_init_false(s.value) for s in node.body)
    return defaults, fields


def test_settable_values_ratchet():
    counts = [settable_values(ast.parse(p.read_text(encoding="utf-8")))
              for p in sorted(PACKAGE.glob("*.py"))]
    assert sum(d + f for d, f in counts) == SETTABLE_VALUES


def test_count_sees_both_kinds_and_skips_init_false():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: dict = field(default_factory=dict)\n"
        "    w: dict = field(init=False)\n"
        "class Plain:\n"
        "    v: int = 0\n")
    assert settable_values(tree) == (2, 2)
