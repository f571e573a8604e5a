"""Every module-level import in the package, the tests and the demos is read
somewhere in its module.  The package's __init__.py is exempt: its imports
are the exports."""

import ast
import pathlib

import fieldreg

REPO = pathlib.Path(fieldreg.__file__).resolve().parent.parent.parent
PACKAGE = REPO / "src" / "fieldreg"
SOURCES = sorted(p for pattern in ("src/fieldreg/*.py", "tests/*.py", "demos/*.py")
                 for p in REPO.glob(pattern) if p != PACKAGE / "__init__.py")


def module_imports(tree):
    """(name bound, line) for each import statement at module level, in
    conditional and try blocks included."""
    bound = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            bound += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    return bound


def unused_imports(source):
    """(name, line) for each module-level import that source never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {n.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    return sorted((name, line) for name, line in module_imports(tree)
                  if name not in read | exported)


def test_scan_sees_every_tree():
    assert {p.parent.name for p in SOURCES} == {"fieldreg", "tests", "demos"}
    assert pathlib.Path(__file__).resolve() in SOURCES


def test_scan_flags_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "try:\n    import json\nexcept ImportError:\n    pass\n"
              "__all__ = ['c']\nprint(np.pi, d)\n")
    assert unused_imports(source) == [("json", 5), ("os", 1)]


def test_no_unused_module_imports():
    found = [f"{path.relative_to(REPO)}:{line} {name}" for path in SOURCES
             for name, line in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
