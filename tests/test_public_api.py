"""Every name the package exports is used by the library, the benchmark or a
demo, and so is every classmethod and staticmethod of an exported class.  A
name that only tests call belongs in tests/, next to its callers."""

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


def class_methods(tree, classes):
    """(class, method) of each classmethod or staticmethod of classes defined in tree."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            found |= {(node.name, item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and any(isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                              for d in item.decorator_list)}
    return found


def class_attributes(tree):
    """(owner, attribute) of each owner.attribute read in tree, the owner a
    bare name or the last part of a dotted one.  Unlike a match on the
    attribute alone, this tells NoiseConfig.uniform from rng.uniform."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                used.add((owner.id, node.attr))
            elif isinstance(owner, ast.Attribute):
                used.add((owner.attr, node.attr))
    return used


def test_every_class_method_of_an_export_is_called_outside_tests():
    exported = exported_names()
    methods = set()
    for path in ROOT.glob("*.py"):
        methods |= class_methods(ast.parse(path.read_text(encoding="utf-8")), exported)
    assert ("AffineSimilarity", "identity") in methods
    used = set()
    for path in SOURCES:
        used |= class_attributes(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(methods - used) == []


def test_class_attributes_need_the_class_as_owner():
    tree = ast.parse("rng.uniform(0, 1)\n"
                     "fieldreg.AffineSimilarity.identity()\n"
                     "class C:\n"
                     "    @classmethod\n"
                     "    def make(cls):\n"
                     "        return cls.make()\n"
                     "    @staticmethod\n"
                     "    def zero():\n"
                     "        return 0\n"
                     "    def plain(self):\n"
                     "        return C.zero()\n")
    assert class_attributes(tree) == {("rng", "uniform"), ("fieldreg", "AffineSimilarity"),
                                      ("AffineSimilarity", "identity"), ("cls", "make"),
                                      ("C", "zero")}
    assert class_methods(tree, {"C"}) == {("C", "make"), ("C", "zero")}
    assert class_methods(tree, set()) == set()
