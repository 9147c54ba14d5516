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
