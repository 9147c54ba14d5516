"""Interface matching and stitched dof numbering across chart patches."""

import numpy as np
import pytest

from tripletfem import atlas as atl
from tripletfem import geometry as geo
from tripletfem import mesh as msh
from tripletfem.errors import InterfaceMismatch


def two_square_atlas(n, translated=False):
    """Unit squares side by side in the universal chart, glued along x=1.
    With translated=True the right region's mesh is drawn at the origin
    and its chart shifts universal coordinates onto it."""
    left = msh.generate_structured("box", (n, n), region="L")
    if translated:
        right = msh.generate_structured("box", (n, n), region="R")
        chart_b = geo.translation([-1.0, 0.0])  # universal [1,2] -> mesh [0,1]
    else:
        right = msh.generate_structured("box", (n, n),
                                        bounds=([1, 0], [2, 1]), region="R")
        chart_b = geo.Identity(2)
    return atl.Atlas(
        [("A", geo.Identity(2), left), ("B", chart_b, right)],
        [(("A", "B"), ("right", "left"))])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_two_region_dof_count(n):
    index = atl.build_global_index(two_square_atlas(n))
    assert index.n_dofs == 2 * (n + 1) ** 2 - (n + 1)


def test_matching_happens_in_the_universal_chart():
    plain = atl.build_global_index(two_square_atlas(4))
    translated = atl.build_global_index(two_square_atlas(4, translated=True))
    assert plain.n_dofs == translated.n_dofs
    # glued nodes share one dof across regions
    a = two_square_atlas(4, translated=True)
    left_edge = a.region("A").mesh.boundary_nodes("right")
    right_edge = a.region("B").mesh.boundary_nodes("left")
    da = set(translated.dofs("A")[left_edge].tolist())
    db = set(translated.dofs("B")[right_edge].tolist())
    assert da == db


def test_numbering_is_deterministic():
    one = atl.build_global_index(two_square_atlas(5))
    two = atl.build_global_index(two_square_atlas(5))
    assert one.n_dofs == two.n_dofs
    for rid in ("A", "B"):
        assert np.array_equal(one.dofs(rid), two.dofs(rid))


def test_first_seen_dof_wins():
    index = atl.build_global_index(two_square_atlas(3))
    # region A is declared first, so its dofs are 0..(n_A - 1)
    assert index.dofs("A").max() == two_square_atlas(3).region("A").mesh.n_nodes - 1
    assert index.dofs("A").min() == 0


def test_perturbed_interface_node_is_reported():
    a = two_square_atlas(4)
    tol = a.dedup_tolerance()
    right = a.region("B").mesh
    nodes = right.nodes.copy()
    victim = int(right.boundary_nodes("left")[2])
    nodes[victim, 0] += 10.0 * tol
    bad_mesh = msh.Mesh(nodes, right.elements, right.element_regions,
                        right.boundary_facets, right.facet_tags)
    bad = atl.Atlas(
        [("A", geo.Identity(2), a.region("A").mesh), ("B", geo.Identity(2), bad_mesh)],
        [(("A", "B"), ("right", "left"))])
    with pytest.raises(InterfaceMismatch) as err:
        atl.build_global_index(bad)
    assert "partner" in str(err.value)


def test_undeclared_interface_is_an_error():
    left = msh.generate_structured("box", (2, 2), region="L")
    right = msh.generate_structured("box", (2, 2), bounds=([1, 0], [2, 1]),
                                    region="R")
    regions = [("A", geo.Identity(2), left), ("B", geo.Identity(2), right)]
    with pytest.raises(ValueError, match="unknown region 'C'"):
        atl.Atlas(regions, [(("A", "C"), ("right", "left"))])
    with pytest.raises(ValueError):
        atl.Atlas(regions).region("C")


def test_reversed_lookup_uses_other_sides_tag():
    # the same interface declared from side B: each side keeps its own tag
    forward = two_square_atlas(3)
    reversed_ = atl.Atlas([(r.region_id, r.chart, r.mesh)
                           for r in forward.regions],
                          [(("B", "A"), ("left", "right"))])
    one = atl.build_global_index(forward)
    two = atl.build_global_index(reversed_)
    assert one.n_dofs == two.n_dofs
    for rid in ("A", "B"):
        assert np.array_equal(one.dofs(rid), two.dofs(rid))


def test_duplicate_region_ids_rejected():
    m = msh.generate_structured("box", (1, 1))
    with pytest.raises(ValueError):
        atl.Atlas([("A", geo.Identity(2), m), ("A", geo.Identity(2), m)])


def test_four_region_numbering_matches_union_find_reference():
    # four unit squares around (1, 1), declared out of geometric order, so
    # the corner node is glued through a chain of four interfaces
    boxes = {"NE": ([1, 1], [2, 2]), "SW": ([0, 0], [1, 1]),
             "NW": ([0, 1], [1, 2]), "SE": ([1, 0], [2, 1])}
    regions = [(rid, geo.Identity(2),
                msh.generate_structured("box", (3, 2), bounds=b, region=rid))
               for rid, b in boxes.items()]
    interfaces = [(("SE", "NE"), ("top", "bottom")),
                  (("NW", "NE"), ("right", "left")),
                  (("SW", "NW"), ("top", "bottom")),
                  (("SE", "SW"), ("left", "right"))]
    atlas = atl.Atlas(regions, interfaces)
    index = atl.build_global_index(atlas)

    # reference: union-find on (region position, node) keys, dofs handed
    # out in region order then node order
    parent = {}

    def find(key):
        while parent.get(key, key) != key:
            key = parent[key]
        return key

    order = {r.region_id: i for i, r in enumerate(atlas.regions)}
    for pair, tags in interfaces:
        ia, ib = atl._match_interface(atlas, pair, tags,
                                      atlas.dedup_tolerance())
        for na, nb in zip(ia, ib):
            ra = find((order[pair[0]], int(na)))
            rb = find((order[pair[1]], int(nb)))
            parent[max(ra, rb)] = min(ra, rb)
    dof_of_root = {}
    for i, r in enumerate(atlas.regions):
        want = [dof_of_root.setdefault(find((i, n)), len(dof_of_root))
                for n in range(r.mesh.n_nodes)]
        assert index.dofs(r.region_id).tolist() == want
    assert index.n_dofs == len(dof_of_root) == 7 * 5
