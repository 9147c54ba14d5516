"""Source hygiene for src/tripletfem: no unused imports, and no private
module-level function or class that nothing in the package references.

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


def test_every_private_definition_is_referenced():
    used = set()
    for tree in TREES.values():
        used.update(referenced_names(tree))
    orphans = [f"{name}:{node.name}"
               for name, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")
               and node.name not in used]
    assert not orphans, f"private definitions nothing references: {orphans}"
