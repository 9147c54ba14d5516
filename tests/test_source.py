"""Source hygiene for src/tripletfem: no unused imports, and no private
function, class or method that nothing in the package references.

Code that nothing calls is deleted rather than kept; these checks find it
with the standard library's ast, so a refactor that leaves a name behind
fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tripletfem"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in MODULES}


def imported_names(tree):
    """Names a module binds by import, except from __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def referenced_names(tree):
    """Every bare name and attribute name a module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("name", [p.name for p in MODULES
                                  if p.name != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    used = set(referenced_names(tree))
    unused = [n for n in imported_names(tree) if n not in used]
    assert not unused, f"{name} imports {unused} and never uses them"


def private_definitions(body, owner=""):
    """(qualified name, name) of each private function or class in body,
    and of each private method in the bodies of its classes."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") and not node.name.startswith("__"):
            yield owner + node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from private_definitions(node.body, f"{owner}{node.name}.")


def test_every_private_definition_is_referenced():
    used = set()
    for tree in TREES.values():
        used.update(referenced_names(tree))
        # a method looked up with getattr is named by a string
        used.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str))
    orphans = [f"{name}:{qualified}"
               for name, tree in TREES.items()
               for qualified, short in private_definitions(tree.body)
               if short not in used]
    assert not orphans, f"private definitions nothing references: {orphans}"


# Where src/ may call LAPACK's inverse or determinant: geometry.inv and
# det hand it the sizes their closed forms do not cover, Affine sets up
# its one matrix, and fem.local_stiffness stays on LAPACK as the oracle
# that tests/test_acceptance.py checks assembly against. Every other
# small-matrix inverse or determinant goes through geometry.inv / det.
LAPACK_ALLOWED = {("geometry.py", "det"), ("geometry.py", "inv"),
                  ("geometry.py", "Affine.__init__"),
                  ("fem.py", "local_stiffness")}
LAPACK_NAMES = {"inv", "det", "slogdet"}


def calls(node, owner=""):
    """(qualified name of the enclosing function or class, call node) of
    every call below node."""
    for child in ast.iter_child_nodes(node):
        where = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            where = f"{owner}.{child.name}" if owner else child.name
        elif isinstance(child, ast.Call):
            yield owner, child
        yield from calls(child, where)


def lapack_calls(tree):
    """(enclosing function or class, called name) of every call
    x.linalg.inv / det / slogdet in tree, as np.linalg.inv or
    scipy.linalg.det."""
    for where, call in calls(tree):
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr in LAPACK_NAMES
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "linalg"):
            yield where, func.attr


def stray_lapack_calls(trees):
    return sorted(f"{name}:{where} calls np.linalg.{called}"
                  for name, tree in trees.items()
                  for where, called in lapack_calls(tree)
                  if (name, where) not in LAPACK_ALLOWED)


def test_small_matrices_go_through_geometry_inv_and_det():
    assert not stray_lapack_calls(TREES)


def test_a_stray_lapack_call_is_found():
    source = (PACKAGE / "fem.py").read_text()
    assert "inv(edges)" in source
    broken = source.replace("inv(edges)", "np.linalg.inv(edges)")
    trees = dict(TREES, **{"fem.py": ast.parse(broken)})
    assert stray_lapack_calls(trees) == [
        "fem.py:_p1_gradients calls np.linalg.inv"]


# The pointwise transforms share one repeat rule: triplet._once_if_repeated
# is the only function that asks whether a stack repeats one matrix, so
# no transform keeps a first-slice branch of its own.
def first_slice_callers(trees):
    return sorted(f"{name}:{where}"
                  for name, tree in trees.items()
                  for where, call in calls(tree)
                  if isinstance(call.func, ast.Name)
                  and call.func.id == "_first_if_repeated")


def test_one_repeat_rule_for_the_pointwise_transforms():
    assert first_slice_callers(TREES) == ["triplet.py:_once_if_repeated"]


def test_a_second_first_slice_branch_is_found():
    source = (PACKAGE / "triplet.py").read_text()
    anchor = "    det = _abs_det(J)\n    Jinv = geometry.inv(J)\n"
    assert anchor in source
    broken = source.replace(
        anchor, "    J_1 = _first_if_repeated(J)\n    J = J if J_1 is None "
        "else J_1\n" + anchor)
    trees = dict(TREES, **{"triplet.py": ast.parse(broken)})
    assert first_slice_callers(trees) == ["triplet.py:_motion_metric",
                                          "triplet.py:_once_if_repeated"]
