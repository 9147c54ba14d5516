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


def nodes(node, owner=""):
    """(qualified name of the enclosing function or class, node) of every
    node below node."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        where = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            where = f"{owner}.{child.name}" if owner else child.name
        yield from nodes(child, where)


def calls(node):
    """(enclosing function or class, call node) of every call below node."""
    return ((where, child) for where, child in nodes(node)
            if isinstance(child, ast.Call))


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
    anchor = "        dets, adj = adjugate(edges[c])\n"
    assert anchor in source
    broken = source.replace(anchor, "        dets, adj = np.linalg.det("
                            "edges[c]), adjugate(edges[c])[1]\n")
    trees = dict(TREES, **{"fem.py": ast.parse(broken)})
    assert stray_lapack_calls(trees) == [
        "fem.py:_p1_gradients calls np.linalg.det"]


# The pointwise transforms and Composite's Jacobian share one repeat rule:
# geometry._once_if_repeated is the only function that asks whether a
# stack repeats one matrix, so no transform keeps a first-slice branch of
# its own.
def first_slice_callers(trees):
    return sorted(f"{name}:{where}"
                  for name, tree in trees.items()
                  for where, call in calls(tree)
                  if isinstance(call.func, ast.Name)
                  and call.func.id == "_first_if_repeated")


def test_one_repeat_rule_for_the_pointwise_transforms():
    assert first_slice_callers(TREES) == ["geometry.py:_once_if_repeated"]


def test_a_second_first_slice_branch_is_found():
    source = (PACKAGE / "triplet.py").read_text()
    anchor = "    det = _abs_det(J)\n    Jinv = geometry.inv(J)\n"
    assert anchor in source
    broken = source.replace(
        anchor, "    J_1 = _first_if_repeated(J)\n    J = J if J_1 is None "
        "else J_1\n" + anchor)
    trees = dict(TREES, **{"triplet.py": ast.parse(broken)})
    assert first_slice_callers(trees) == ["geometry.py:_once_if_repeated",
                                          "triplet.py:_motion_metric"]


# Every number a file or the command line gets is formatted by
# mesh.text_rows: the 17-digit format appears in that one function, so no
# writer keeps a per-row format of its own.
def seventeen_digit_formats(trees):
    return sorted({f"{name}:{where}"
                   for name, tree in trees.items()
                   for where, node in nodes(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and ".17g" in node.value})


def test_one_number_formatter():
    assert seventeen_digit_formats(TREES) == ["mesh.py:text_rows"]


def test_a_second_number_format_is_found():
    source = (PACKAGE / "cli.py").read_text()
    anchor = "    return mesh_mod.text_rows([float(x)])[:-1]\n"
    assert anchor in source
    broken = source.replace(anchor, '    return f"{float(x):.17g}"\n')
    trees = dict(TREES, **{"cli.py": ast.parse(broken)})
    assert seventeen_digit_formats(trees) == ["cli.py:_fmt",
                                              "mesh.py:text_rows"]


# Assembly takes what does not depend on the triplet from the domain,
# once per topology: _CsrSum is built only where the record is looked up
# in the slot a mesh shares with its map_mesh images, and fem.py takes
# element geometry from the mesh (edge matrices, volumes, centroids),
# never by gathering element coordinates.
def topology_rule_breaks(trees):
    built = [f"{name}:{where} builds _CsrSum"
             for name, tree in trees.items()
             for where, call in calls(tree)
             if isinstance(call.func, ast.Name) and call.func.id == "_CsrSum"]
    gathered = [f"fem.py:{where} calls element_coords"
                for where, call in calls(trees["fem.py"])
                if isinstance(call.func, ast.Attribute)
                and call.func.attr == "element_coords"]
    return sorted(built + gathered)


def test_one_record_lookup_and_no_coordinate_gather_in_assembly():
    assert topology_rule_breaks(TREES) == [
        "fem.py:_csr_sum_of builds _CsrSum"]


def test_a_second_record_build_and_a_coordinate_gather_are_found():
    source = (PACKAGE / "fem.py").read_text()
    lookup = "        self._csr_sum, reused = _csr_sum_of(self)\n"
    centroids = "    centroids = np.concatenate([p.mesh.centroids() " \
        "for p in system.patches])\n"
    assert lookup in source and centroids in source
    broken = source.replace(
        lookup, "        self._csr_sum, reused = _CsrSum(self), False\n"
    ).replace(centroids, "    centroids = system.patches[0].mesh."
              "element_coords().mean(axis=1)\n")
    trees = dict(TREES, **{"fem.py": ast.parse(broken)})
    assert topology_rule_breaks(trees) == [
        "fem.py:AssembledSystem.__init__ builds _CsrSum",
        "fem.py:_all_element_fields calls element_coords",
        "fem.py:_csr_sum_of builds _CsrSum"]


# One edge formula and one adjugate formula. An edge matrix is rows 1..d
# (or row i + 1) of one array minus its row 0, and only
# mesh._edge_matrices forms it; every other edge matrix (the mesh's, a
# motion step's, the oracle fem.local_stiffness's) comes from there. An
# adjugate or a 2x2 determinant is a difference of two products, and
# only geometry forms one: det's cofactor expansion, the cross products
# under it, and adjugate, which geometry.inv and fem._p1_gradients share.
FORMULA_SITES = {"mesh.py:_edge_matrices": "edge difference",
                 "geometry.py:_cross": "difference of products",
                 "geometry.py:det": "difference of products",
                 "geometry.py:adjugate": "difference of products"}


def differences(tree):
    """(enclosing function, left, right) of every a - b and
    np.subtract(a, b, ...) in tree."""
    for where, node in nodes(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            yield where, node.left, node.right
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "subtract"):
            yield where, node.args[0], node.args[1]


def takes(index, test):
    """Whether any part of a subscript's index passes test."""
    return any(test(part) for part in ast.walk(index))


def is_row_zero(part):
    return ((isinstance(part, ast.Constant) and part.value == 0)
            or (isinstance(part, ast.Slice) and part.lower is None
                and isinstance(part.upper, ast.Constant)
                and part.upper.value == 1))


def is_later_row(part):
    return (isinstance(part, ast.Slice)
            and isinstance(part.lower, ast.Constant)
            and part.lower.value == 1) or (
        isinstance(part, ast.BinOp) and isinstance(part.op, ast.Add)
        and isinstance(part.right, ast.Constant) and part.right.value == 1)


def formula_sites(trees):
    found = set()
    for name, tree in trees.items():
        for where, left, right in differences(tree):
            if (isinstance(left, ast.Subscript)
                    and isinstance(right, ast.Subscript)
                    and ast.dump(left.value) == ast.dump(right.value)
                    and takes(left.slice, is_later_row)
                    and takes(right.slice, is_row_zero)):
                found.add((f"{name}:{where}", "edge difference"))
            if all(isinstance(side, ast.BinOp)
                   and isinstance(side.op, ast.Mult)
                   for side in (left, right)):
                found.add((f"{name}:{where}", "difference of products"))
    return dict(sorted(found))


def test_one_edge_formula_and_one_adjugate():
    assert formula_sites(TREES) == FORMULA_SITES


def test_a_second_edge_formula_and_adjugate_are_found():
    apps = (PACKAGE / "applications.py").read_text()
    edges = "    dets = det(_edge_matrices(step_map.forward(nodes), elements))\n"
    fem = (PACKAGE / "fem.py").read_text()
    adj = "        dets, adj = adjugate(edges[c])\n"
    assert edges in apps and adj in fem
    broken_apps = apps.replace(
        edges, "    mapped = step_map.forward(nodes)[elements]\n"
        "    dets = det(mapped[:, 1:, :] - mapped[:, :1, :])\n")
    broken_fem = fem.replace(
        adj, "        a, b, f, e = (edges[c, i, j] for i in (0, 1)"
        " for j in (0, 1))\n"
        "        dets, adj = a * e - b * f, adjugate(edges[c])[1]\n")
    trees = dict(TREES, **{"applications.py": ast.parse(broken_apps),
                           "fem.py": ast.parse(broken_fem)})
    assert formula_sites(trees) == dict(
        FORMULA_SITES, **{"applications.py:_check_topology": "edge difference",
                          "fem.py:_p1_gradients": "difference of products"})


# One duplicate sum: assembly's first build and every partial update add
# the block buffer's runs through fem._summed, the one call of scipy's
# sum_duplicates in src/, so no update keeps a summation of its own.
def duplicate_sum_sites(trees):
    return sorted(f"{name}:{where}"
                  for name, tree in trees.items()
                  for where, call in calls(tree)
                  if isinstance(call.func, ast.Attribute)
                  and call.func.attr == "sum_duplicates")


def test_one_duplicate_sum():
    assert duplicate_sum_sites(TREES) == ["fem.py:_summed"]


def test_a_second_duplicate_sum_is_found():
    source = (PACKAGE / "fem.py").read_text()
    anchor = "        new = rows.summed(self.data)\n"
    assert anchor in source
    broken = source.replace(
        anchor, "        whole = sp.coo_matrix(self.data)\n"
        "        whole.sum_duplicates()\n" + anchor)
    trees = dict(TREES, **{"fem.py": ast.parse(broken)})
    assert duplicate_sum_sites(trees) == ["fem.py:AssembledSystem._build",
                                          "fem.py:_summed"]


# One error path in the CLI: a library error ends in an exit code in one
# except clause, cli._exit_status, which the scenario commands and the
# mesh utilities share. The other handlers in cli.py that name
# TripletFemError (_declared, build_mesh) re-raise it as a ScenarioError
# naming the declaration; a handler that raises nothing ends the error.
def exit_code_handlers(tree):
    return [where for where, node in nodes(tree)
            if isinstance(node, ast.ExceptHandler)
            and any(isinstance(n, ast.Name) and n.id == "TripletFemError"
                    for n in ast.walk(node.type))
            and not any(isinstance(n, ast.Raise) for n in ast.walk(node))]


def test_one_except_clause_maps_errors_to_exit_codes():
    assert exit_code_handlers(TREES["cli.py"]) == ["_exit_status"]


def test_a_second_exit_code_handler_is_found():
    source = (PACKAGE / "cli.py").read_text()
    anchor = "    try:\n        return _exit_status(run)\n"
    assert anchor in source
    broken = source.replace(
        anchor, "    try:\n        return _exit_status(run)\n"
        "    except (TripletFemError, OSError):\n        return 2\n")
    assert exit_code_handlers(ast.parse(broken)) == ["_exit_status",
                                                     "_mesh_command"]


# One triangulation: every structured mesh takes its cells and boundary
# facets from mesh._kuhn, the one call of itertools.permutations in src/,
# so no generator keeps a simplex split of its own.
def permutation_sites(trees):
    return sorted(f"{name}:{where}"
                  for name, tree in trees.items()
                  for where, call in calls(tree)
                  if "permutations" in (getattr(call.func, "attr", None),
                                        getattr(call.func, "id", None)))


def test_one_kuhn_triangulation():
    assert permutation_sites(TREES) == ["mesh.py:_kuhn"]


def test_a_second_kuhn_split_is_found():
    source = (PACKAGE / "mesh.py").read_text()
    anchor = '    tags = ["inner"] * n_theta + ["outer"] * n_theta\n'
    assert anchor in source
    broken = source.replace(
        anchor, anchor + "    orders = list(itertools.permutations((1, 0)))\n")
    trees = dict(TREES, **{"mesh.py": ast.parse(broken)})
    assert permutation_sites(trees) == ["mesh.py:_annulus_2d",
                                        "mesh.py:_kuhn"]


# One point check: ChartMap.forward, inverse and jacobian check the
# points and call the chart's private evaluators, so a chart class that
# defined a public evaluator of its own would check them (or not) on a
# second path.
CHART_METHODS = {"forward", "inverse", "jacobian"}


def public_evaluator_sites(tree):
    return sorted(f"{cls.name}.{node.name}"
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name in CHART_METHODS)


def test_one_point_check_for_every_chart():
    assert public_evaluator_sites(TREES["geometry.py"]) == [
        "ChartMap.forward", "ChartMap.inverse", "ChartMap.jacobian"]


def test_a_second_domain_check_path_is_found():
    source = (PACKAGE / "geometry.py").read_text()
    anchor = "    def _inverse(self, q):\n        return self._folded("
    assert source.count(anchor) == 1
    broken = source.replace(
        anchor, "    def inverse(self, points):\n"
        "        return self._inverse(_as_points(points, self.dim))\n\n"
        + anchor)
    assert public_evaluator_sites(ast.parse(broken)) == [
        "ChartMap.forward", "ChartMap.inverse", "ChartMap.jacobian",
        "KelvinShell.inverse"]
