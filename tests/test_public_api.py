"""Every name the package exports is used by the library, the benchmark or a
demo.  A name that only tests call belongs in tests/, next to its callers."""

import ast
import pathlib

import fieldreg

ROOT = pathlib.Path(fieldreg.__file__).resolve().parent
SOURCES = [*ROOT.glob("*.py"), *ROOT.parent.parent.glob("bench/*.py"),
           *ROOT.parent.parent.glob("demos/*.py")]
EXEMPT = {
    # the reader of a documented format, the report that `evaluate` writes
    "read_report",
    # the simulator's own noise bank; its defects are an open roadmap item
    "matched_bank",
    # array forms of kernels the library calls in another form: `project`,
    # `invert_rows` on nested lists, and `_jacobian_terms`, which also
    # returns the projections
    "apply_homography",
    "invert_homography",
    "measurement_jacobian",
}


def exported_names():
    tree = ast.parse((ROOT / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def used_names(tree):
    """Names read in tree, a name inside its own def or class not counted."""
    used = set()

    def visit(node, inside):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_export_is_used_outside_tests():
    assert SOURCES
    used = set()
    for path in SOURCES:
        if path != ROOT / "__init__.py":
            used |= used_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(exported_names() - EXEMPT - used) == []
    # an exemption that the library has come to use is stale
    assert sorted(EXEMPT & used) == []
