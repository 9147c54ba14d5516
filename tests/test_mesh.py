"""Mesh construction, structured generation, chart mapping, quality,
and the MSH/VTK/CSV interchange paths."""

import numpy as np
import pytest

from tripletfem import geometry as geo
from tripletfem import mesh as msh
from tripletfem.errors import (
    DegenerateElement,
    DegenerateShape,
    InvalidFacet,
    LengthMismatch,
    MalformedFile,
    UnknownTag,
    UnsupportedVersion,
)


# ---------------------------------------------------------------- building


def test_the_region_list_is_kept_once_and_handed_out_as_a_copy():
    m = msh.generate_structured("box", (4, 4),
                                region_bands=[("band", 0, 0.5, 1.0)])
    assert m.regions() == list(dict.fromkeys(m.element_regions.tolist()))
    m.regions().append("stray")
    assert m.regions() == ["domain", "band"]
    moved = msh.map_mesh(m, geo.AxisScaling((2.0, 1.0)))
    assert moved._regions is m._regions
    assert moved.regions() == ["domain", "band"]


def test_unit_cell_counts():
    m = msh.generate_structured("box", (1, 1))
    assert m.n_nodes == 4
    assert m.n_elements == 2
    assert len(m.boundary_facets) == 4


@pytest.mark.parametrize("n", [2, 5, 8])
def test_square_grid_counts(n):
    m = msh.generate_structured("box", (n, n))
    assert m.n_nodes == (n + 1) ** 2
    assert m.n_elements == 2 * n * n
    assert np.isclose(m.volumes().sum(), 1.0)


def test_boundary_tags_sit_on_their_sides():
    m = msh.generate_structured("box", (4, 3), bounds=([0, 0], [2, 1]))
    assert np.allclose(m.nodes[m.boundary_nodes("left")][:, 0], 0.0)
    assert np.allclose(m.nodes[m.boundary_nodes("right")][:, 0], 2.0)
    assert np.allclose(m.nodes[m.boundary_nodes("bottom")][:, 1], 0.0)
    assert np.allclose(m.nodes[m.boundary_nodes("top")][:, 1], 1.0)
    with pytest.raises(UnknownTag):
        m.boundary_nodes("lid")


def test_box_3d_counts_and_conformity():
    m = msh.generate_structured("box", (2, 2, 2))
    assert m.n_nodes == 27
    assert m.n_elements == 48
    assert np.isclose(m.volumes().sum(), 1.0)
    # every interior face shared by exactly two tets, 48 boundary faces
    faces = msh._sorted_faces(m.elements)
    _, counts = np.unique(faces, axis=0, return_counts=True)
    assert set(counts.tolist()) == {1, 2}
    assert int((counts == 1).sum()) == 48
    assert len(m.boundary_facets) == 48
    for tag in ("left", "right", "bottom", "top", "back", "front"):
        assert len(m.boundary_nodes(tag)) == 9


def test_annulus_generation():
    m = msh.generate_structured("annulus", (8, 2), radii=(1.0, 2.0))
    assert m.n_nodes == 8 * 3
    assert m.n_elements == 2 * 8 * 2
    assert np.all(m.volumes() > 0)
    r = np.linalg.norm(m.nodes, axis=1)
    assert np.allclose(r[m.boundary_nodes("inner")], 1.0)
    assert np.allclose(r[m.boundary_nodes("outer")], 2.0)


def test_annulus_is_generated_counterclockwise():
    """No element is flipped on construction, so the stored volumes are
    those of the stored orientation and a rebuilt mesh has the same."""
    m = msh.generate_structured("annulus", (64, 24), radii=(1.0, 2.0),
                                grading=2.0)
    assert np.array_equal(m.volumes(),
                          msh.signed_volumes(m.nodes, m.elements))
    again = msh.Mesh(m.nodes, m.elements, m.element_regions,
                     m.boundary_facets, m.facet_tags)
    assert np.array_equal(again.volumes(), m.volumes())


def test_degenerate_extents_rejected():
    with pytest.raises(DegenerateShape):
        msh.generate_structured("box", (2, 2), bounds=([0, 0], [0, 1]))
    with pytest.raises(DegenerateShape):
        msh.generate_structured("annulus", (8, 2), radii=(2.0, 2.0))
    with pytest.raises(ValueError):
        msh.generate_structured("box", (0, 2))


def test_region_bands_paint_cells():
    m = msh.generate_structured(
        "box", (4, 4), region="air",
        region_bands=[("slab", 1, 0.25, 0.5)])
    tags = set(m.element_regions.tolist())
    assert tags == {"air", "slab"}
    slab = m.elements_in_regions(["slab"])
    assert len(slab) == 2 * 4  # one row of cells
    cy = m.centroids()[slab][:, 1]
    assert np.all((cy > 0.25) & (cy < 0.5))


def test_region_band_collapse_is_detected():
    # both edges of the band snap to the same grid line: the feature is
    # thinner than the grid can represent
    with pytest.raises(DegenerateElement) as err:
        msh.generate_structured(
            "box", (64, 64), region="air",
            region_bands=[("slab", 1, 0.499995, 0.500005)])
    assert "slab" in str(err.value)
    assert "snap" in str(err.value)


@pytest.mark.parametrize("tags, text", [
    (np.array(["a", "bb"]), ["a", "bb"]),
    (["a", "bb"], ["a", "bb"]),
    ([1, 2.5], ["1", "2.5"]),
    (np.array([1, 2]), ["1", "2"]),
], ids=["unicode-array", "str-list", "numbers", "int-array"])
def test_region_tags_are_stored_as_their_text(tags, text):
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    m = msh.Mesh(nodes, [[0, 1, 2], [1, 3, 2]], tags)
    assert m.element_regions.dtype == object
    assert [type(t) for t in m.element_regions] == [str, str]
    assert m.element_regions.tolist() == text
    with pytest.raises(LengthMismatch, match="got 2 tags for 1"):
        msh.Mesh(nodes, [[0, 1, 2]], tags)


def test_constructor_normalizes_orientation():
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    m = msh.Mesh(nodes, [[0, 2, 1]], ["d"])  # clockwise on purpose
    assert m.volumes()[0] > 0


def test_constructor_rejects_zero_volume():
    nodes = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(DegenerateElement):
        msh.Mesh(nodes, [[0, 1, 2]], ["d"])


def test_constructor_rejects_subnormal_volume():
    # the edge matrix's inverse would overflow and assemble to NaN
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-310], [1.0, 1e-310]]
    with pytest.raises(DegenerateElement,
                       match="element 0 has volume .* at or below 1e-300"):
        msh.Mesh(nodes, [[0, 1, 2], [1, 3, 2]], ["d", "d"])


def test_constructor_rejects_elements_whose_gradients_overflow():
    # the volume clears the floor, but the basis gradients (about 1e200)
    # overflow when the blocks square them
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-200], [1.0, 1e-200]]
    with pytest.raises(DegenerateElement,
                       match="element 0 has volume .* overflow"):
        msh.Mesh(nodes, [[0, 1, 2], [1, 3, 2]], ["d", "d"])


def test_constructor_rejects_a_needle_its_rounding_spoils():
    # 1e8 long and about 1 across, off the axes: the cofactor expansion
    # rounds by about eps * 1e24 against a determinant of about 1e8
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    tip = np.array([[0.0, 0.0, 0.0], [1e8, 0.0, 0.0], [0.5e8, 1.0, 0.0],
                    [0.5e8, 0.0, 1.0]])
    with pytest.raises(DegenerateElement,
                       match=r"element 0 .* exceeds 2\^46"):
        msh.Mesh(tip @ Q.T, [[0, 1, 2, 3]], ["d"])
    # 1e4 long is kept, in any orientation
    m = msh.Mesh(tip * [1e-4, 1.0, 1.0] @ Q.T, [[0, 1, 2, 3]], ["d"])
    assert m.volumes()[0] == pytest.approx(1e4 / 6, rel=1e-6)


def test_a_small_element_far_from_a_large_one_is_kept():
    # against the whole mesh's extent the small triangle's gradients would
    # overflow; against its own edges (about 1e100 / 1e-200) they do not
    nodes = [[0.0, 0.0], [1e-100, 0.0], [0.0, 1e-100],
             [1e100, 0.0], [2e100, 0.0], [1e100, 1e100]]
    m = msh.Mesh(nodes, [[0, 1, 2], [3, 4, 5]], ["d", "d"])
    assert m.n_elements == 2


def test_constructor_rejects_elements_whose_volume_overflows():
    nodes = [[0.0, 0.0, 0.0], [1e103, 0.0, 0.0], [0.0, 1e103, 0.0],
             [0.0, 0.0, 1e103]]
    with pytest.raises(DegenerateElement, match="element 0 has volume inf"):
        msh.Mesh(nodes, [[0, 1, 2, 3]], ["d"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructor_rejects_non_finite_nodes(bad):
    nodes = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, bad]]
    with pytest.raises(DegenerateShape, match="node 3 has a non-finite"):
        msh.Mesh(nodes, [[0, 1, 2], [1, 3, 2]], ["d", "d"])


def test_constructor_rejects_interior_facets():
    m = msh.generate_structured("box", (2, 2))
    interior_edge = None
    faces = msh._sorted_faces(m.elements)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    interior_edge = uniq[counts == 2][0]
    with pytest.raises(ValueError):
        msh.Mesh(m.nodes, m.elements, m.element_regions,
                 np.vstack([m.boundary_facets, interior_edge[None, :]]),
                 m.facet_tags.tolist() + ["bogus"])


# ----------------------------------------------------------------- mapping


def test_map_mesh_identity_is_noop():
    m = msh.generate_structured("box", (3, 3))
    mapped = msh.map_mesh(m, geo.Identity(2))
    assert np.array_equal(mapped.nodes, m.nodes)
    assert np.array_equal(mapped.elements, m.elements)
    assert mapped.element_regions.tolist() == m.element_regions.tolist()
    assert mapped.facet_tags.tolist() == m.facet_tags.tolist()


def test_affine_map_scales_volumes_exactly():
    m = msh.generate_structured("box", (4, 4))
    A = np.array([[2.0, 0.3], [0.1, 1.5]])
    mapped = msh.map_mesh(m, geo.Affine(A))
    ratio = mapped.volumes() / m.volumes()
    assert np.abs(ratio - abs(np.linalg.det(A))).max() <= 1e-12 * abs(np.linalg.det(A))


def test_shell_map_pulls_far_nodes_inside():
    m = msh.generate_structured("annulus", (16, 6), radii=(1.0, 10.0))
    mapped = msh.map_mesh(m, geo.KelvinShell(1.0, 2.0))
    r = np.linalg.norm(mapped.nodes, axis=1)
    assert r.max() <= 1.9 + 1e-12
    assert mapped.n_elements == m.n_elements


def test_map_mesh_rejects_folds_and_reflections():
    m = msh.generate_structured("box", (2, 2), bounds=([-1, 0], [1, 1]))

    class Fold(geo.ChartMap):
        dim = 2

        def _forward(self, p):
            out = p.copy()
            out[..., 0] = np.abs(out[..., 0])
            return out

    with pytest.raises(DegenerateElement):
        msh.map_mesh(m, Fold())
    with pytest.raises(DegenerateElement) as err:
        msh.map_mesh(m, geo.Affine([[-1.0, 0.0], [0.0, 1.0]]))
    assert "orientation" in str(err.value)


def test_map_mesh_names_a_non_finite_node():
    m = msh.generate_structured("box", (2, 2))

    class CenterToInfinity(geo.ChartMap):
        dim = 2

        def _forward(self, p):
            out = p.copy()
            out[np.all(p == 0.5, axis=-1)] = np.inf
            return out

    # the suite turns a RuntimeWarning into an error, so none is emitted
    with pytest.raises(DegenerateShape, match=r"node 4 .*non-finite"):
        msh.map_mesh(m, CenterToInfinity())


def with_unused_node():
    m = msh.generate_structured("box", (3, 2))
    return msh.Mesh(np.vstack([m.nodes, [[0.25, 2.0]]]), m.elements,
                    m.element_regions, m.boundary_facets, m.facet_tags)


def read_back(m, tmp_path):
    path = tmp_path / "source.msh"
    msh.write_msh(m, path)
    return msh.read_msh(path)


MAPPED = {
    "box2d-bands-affine": (
        lambda _: msh.generate_structured(
            "box", (6, 5), region_bands=[("gap", 1, 0.4, 0.8)]),
        geo.Affine([[1.5, 0.4], [-0.2, 0.8]], [0.3, -1.0])),
    "box3d-rotation-scaling": (
        lambda _: msh.generate_structured(
            "box", (3, 2, 4), region_bands=[("slab", 2, 0.25, 0.75)]),
        geo.Composite([geo.AxisScaling([2.0, 0.5, 3.0]),
                       geo.Rotation(0.7, axis=[1.0, -2.0, 0.5])])),
    "annulus-kelvin": (
        lambda _: msh.generate_structured("annulus", (16, 6),
                                          radii=(1.0, 10.0)),
        geo.KelvinShell(1.0, 2.0)),
    "msh-roundtrip": (
        lambda tmp_path: read_back(msh.generate_structured(
            "box", (2, 2, 2), region_bands=[("gap", 0, 0.5, 1.0)]), tmp_path),
        geo.Affine(np.diag([1.0, 2.0, 0.5]))),
    "unused-node": (lambda _: with_unused_node(), geo.Rotation(1.1)),
}


@pytest.mark.parametrize("case", MAPPED)
def test_map_mesh_equals_the_full_constructor(case, tmp_path):
    make, chart = MAPPED[case]
    m = make(tmp_path)
    mapped = msh.map_mesh(m, chart)
    ref = msh.Mesh(chart.forward(m.nodes), m.elements, m.element_regions,
                   m.boundary_facets, m.facet_tags)
    for got, want in [(mapped.nodes, ref.nodes),
                      (mapped.elements, ref.elements),
                      (mapped.element_regions, ref.element_regions),
                      (mapped.boundary_facets, ref.boundary_facets),
                      (mapped.facet_tags, ref.facet_tags),
                      (mapped.volumes(), ref.volumes())]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    # the topology is the source's own, checked once when it was built
    for name in ("elements", "element_regions", "boundary_facets",
                 "facet_tags"):
        assert getattr(mapped, name) is getattr(m, name)


def test_straight_edges_only_approximate_curved_maps():
    # mapping nodes keeps edges straight; for a curved map the mapped
    # midpoint of an edge is not the midpoint of the mapped edge
    shell = geo.KelvinShell(1.0, 2.0)
    p0 = np.array([1.5, 0.0])
    p1 = np.array([0.0, 1.5])
    mid_of_map = 0.5 * (shell.forward(p0) + shell.forward(p1))
    map_of_mid = shell.forward(0.5 * (p0 + p1))
    assert np.linalg.norm(mid_of_map - map_of_mid) > 1e-3


# ----------------------------------------------------------------- quality


def test_quality_of_regular_simplices():
    equil = msh.Mesh([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]],
                     [[0, 1, 2]], ["d"])
    rep = msh.quality(equil)
    assert rep.max == pytest.approx(1.0, abs=1e-12)

    a = 1.0 / np.sqrt(2.0)
    regular_tet = msh.Mesh(
        [[a, 0, -a / np.sqrt(2)], [-a, 0, -a / np.sqrt(2)],
         [0, a, a / np.sqrt(2)], [0, -a, a / np.sqrt(2)]],
        [[0, 1, 2, 3]], ["d"])
    rep3 = msh.quality(regular_tet)
    assert rep3.max == pytest.approx(1.0, abs=1e-12)


def test_quality_uniform_for_congruent_elements():
    m = msh.generate_structured("box", (4, 4))
    rep = msh.quality(m)
    assert rep.max == pytest.approx(rep.min, rel=1e-12)
    assert rep.min >= 1.0


def test_quality_degrades_under_anisotropic_scaling():
    m = msh.generate_structured("box", (4, 4))
    before = msh.quality(m).max
    after = msh.quality(msh.map_mesh(m, geo.AxisScaling([100.0, 1.0]))).max
    assert 10.0 < after / before < 1000.0
    assert after > 40.0


# --------------------------------------------------------------------- I/O


def test_msh_roundtrip_is_exact(tmp_path):
    m = msh.generate_structured(
        "box", (3, 2), bounds=([0, 0], [np.pi, 1.0 / 3.0]),
        region="bulk", region_bands=[("lid", 1, 1.0 / 6.0, 1.0 / 3.0)])
    path = tmp_path / "grid.msh"
    msh.write_msh(m, path)
    back = msh.read_msh(path)
    assert np.array_equal(back.nodes, m.nodes)
    assert np.array_equal(back.elements, m.elements)
    assert back.element_regions.tolist() == m.element_regions.tolist()
    assert np.array_equal(back.boundary_facets, m.boundary_facets)
    assert back.facet_tags.tolist() == m.facet_tags.tolist()


def test_msh_roundtrip_3d(tmp_path):
    m = msh.generate_structured("box", (2, 1, 1))
    path = tmp_path / "grid3.msh"
    msh.write_msh(m, path)
    back = msh.read_msh(path)
    assert back.dim == 3
    assert np.array_equal(back.nodes, m.nodes)
    assert np.array_equal(back.elements, m.elements)


def test_msh_hand_written_fixture(tmp_path):
    content = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
2
1 2 2 7 7 1 2 3
2 2 2 7 7 1 3 4
$EndElements
"""
    path = tmp_path / "two.msh"
    path.write_text(content)
    m = msh.read_msh(path)
    assert m.n_nodes == 4
    assert m.n_elements == 2
    assert m.regions() == ["7"]  # no $PhysicalNames: numeric tag kept


def test_msh_unknown_element_type(tmp_path):
    content = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
1
1 3 2 1 1 1 2 3 4
$EndElements
"""
    path = tmp_path / "quad.msh"
    path.write_text(content)
    with pytest.raises(UnsupportedVersion) as err:
        msh.read_msh(path)
    assert "type 3" in str(err.value)


def test_msh_rejects_other_versions(tmp_path):
    path = tmp_path / "new.msh"
    path.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(UnsupportedVersion):
        msh.read_msh(path)


def test_msh_malformed_reports_line(tmp_path):
    content = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
2
1 0 0 0
2 oops 0 0
$EndNodes
"""
    path = tmp_path / "bad.msh"
    path.write_text(content)
    with pytest.raises(MalformedFile) as err:
        msh.read_msh(path)
    assert "line 7" in str(err.value)


MSH_HEAD = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
MSH_NODES = "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
MSH_ELEMENTS = "$Elements\n1\n1 2 2 7 7 1 2 3\n$EndElements\n"


@pytest.mark.parametrize("content, error, message", [
    ("$MeshFormat\n2.2 0 8\n\n", MalformedFile,
     "line 3: unexpected end of file"),
    ("\nhello\n", MalformedFile,
     "line 2: expected $MeshFormat, found 'hello'"),
    ("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n", UnsupportedVersion,
     "line 2: MSH version 4.1; only 2.2 ASCII is supported"),
    ("$MeshFormat\n2.2 1 8\n$EndMeshFormat\n", UnsupportedVersion,
     "line 2: binary MSH is not supported"),
    ("$MeshFormat\n2.2 0 8\n$Nodes\n", MalformedFile,
     "line 3: expected $EndMeshFormat"),
    (MSH_HEAD + "$PhysicalNames\none\n", MalformedFile,
     "line 5: bad physical-name count 'one'"),
    (MSH_HEAD + "$PhysicalNames\n1\n2 7 t\n", MalformedFile,
     "line 6: bad physical name entry '2 7 t'"),
    (MSH_HEAD + '$PhysicalNames\n1\n2 7 "t"\n$Nodes\n', MalformedFile,
     "line 7: expected $EndPhysicalNames"),
    (MSH_HEAD + "$Nodes\n3.0\n", MalformedFile,
     "line 5: bad node count '3.0'"),
    (MSH_HEAD + "$Nodes\n1\n1 0 0\n", MalformedFile,
     "line 6: node line needs 'id x y z', found '1 0 0'"),
    (MSH_HEAD + "$Nodes\n1\n1 0 x 0\n", MalformedFile,
     "line 6: unparseable node line '1 0 x 0'"),
    (MSH_HEAD + "$Nodes\n1\n1 0 0 0\n\n$Elements\n", MalformedFile,
     "line 8: expected $EndNodes"),
    (MSH_HEAD + "$Nodes\n2\n2 1 0 0\n2 5 5 0\n$EndNodes\n" + MSH_ELEMENTS,
     MalformedFile, "line 7: node id 2 repeats the node of line 6"),
    (MSH_HEAD + MSH_NODES + "$Elements\n-\n", MalformedFile,
     "line 11: bad element count '-'"),
    (MSH_HEAD + MSH_NODES + "$Elements\n1\n1 2 2 7 7 1 2 x\n", MalformedFile,
     "line 12: unparseable element line '1 2 2 7 7 1 2 x'"),
    (MSH_HEAD + MSH_NODES + "$Elements\n1\n1 2\n", MalformedFile,
     "line 12: element line too short: '1 2'"),
    (MSH_HEAD + MSH_NODES + "$Elements\n1\n1 3 0 1 2 3\n", UnsupportedVersion,
     "line 12: element type 3 is not supported (2-node lines, 3-node "
     "triangles and 4-node tetrahedra only)"),
    (MSH_HEAD + MSH_NODES + "$Elements\n1\n1 2 2 7 7 1 2\n", MalformedFile,
     "line 12: element type 2 needs 3 nodes, found 2"),
    (MSH_HEAD + MSH_NODES + "$Elements\n1\n1 2 2 7 7 1 2 3\n$EndNodes\n",
     MalformedFile, "line 13: expected $EndElements"),
    (MSH_HEAD + "$Comments\nno end\n", MalformedFile,
     "line 5: unexpected end of file"),
    (MSH_HEAD + MSH_ELEMENTS, MalformedFile, "no $Nodes section found"),
    (MSH_HEAD + "$Nodes\n0\n$EndNodes\n" + MSH_ELEMENTS, MalformedFile,
     "no $Nodes section found"),
    (MSH_HEAD + MSH_NODES, MalformedFile, "no $Elements section found"),
    (MSH_HEAD + MSH_NODES + "$Elements\n2\n1 2 2 7 7 1 2 3\n\n"
     "2 2 2 7 7 1 3 9\n$EndElements\n", MalformedFile,
     "line 14: element references unknown node 9"),
], ids=["end-of-file", "no-format", "version", "binary", "no-end-format",
        "name-count", "name-entry", "no-end-names", "node-count",
        "node-arity", "node-line", "no-end-nodes", "repeated-node",
        "element-count",
        "element-line", "element-short", "element-type", "element-nodes",
        "no-end-elements", "unknown-section-open", "no-nodes",
        "empty-nodes", "no-elements", "unknown-node"])
def test_each_msh_error_site_keeps_its_type_and_message(tmp_path, content,
                                                        error, message):
    path = tmp_path / "bad.msh"
    path.write_text(content)
    with pytest.raises(error) as err:
        msh.read_msh(path)
    assert type(err.value) is error
    assert str(err.value) == f"{path}: {message}"


def test_a_file_that_is_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_bytes(b"$MeshFormat\n\xff\n")
    with pytest.raises(MalformedFile) as err:
        msh.read_msh(path)
    assert str(err.value).startswith(f"{path}: not UTF-8 text: ")


def test_vtk_writer_blocks(tmp_path):
    m = msh.generate_structured("box", (2, 2))
    u = m.nodes[:, 0]
    vec = np.column_stack([np.ones(m.n_elements), np.zeros(m.n_elements)])
    path = tmp_path / "out.vtk"
    msh.write_vtk(m, path, point_data={"u": u}, cell_data={"E": vec})
    text = path.read_text()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINT_DATA {m.n_nodes}" in text
    assert "SCALARS u double 1" in text
    assert f"CELL_DATA {m.n_elements}" in text
    assert "VECTORS E double" in text

    msh.write_vtk(m, tmp_path / "bare.vtk")
    bare = (tmp_path / "bare.vtk").read_text()
    assert "POINT_DATA" not in bare

    with pytest.raises(LengthMismatch):
        msh.write_vtk(m, path, point_data={"u": u[:-1]})


def test_probe_csv_digits(tmp_path):
    path = tmp_path / "probe.csv"
    msh.write_probe_csv(path, [[1.0 / 3.0, 0.25]], [2.0 / 7.0])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    x, y, v = (float(tok) for tok in lines[1].split(","))
    assert x == 1.0 / 3.0 and v == 2.0 / 7.0


# ---------------------------------------------------------- face grouping
# The references below use the row-unique algorithm that the group-id
# helper replaced; generation must reproduce it exactly.


def reference_boundary_faces(elements):
    """Faces of exactly one element: sorted rows, lexicographic order."""
    uniq, counts = np.unique(msh._sorted_faces(elements), axis=0,
                             return_counts=True)
    return uniq[counts == 1]


def reference_facet_counts(m):
    """Elements each declared facet belongs to, via a row -> count dict."""
    uniq, counts = np.unique(msh._sorted_faces(m.elements), axis=0,
                             return_counts=True)
    table = {tuple(f): int(c) for f, c in zip(uniq, counts)}
    return [table.get(tuple(f), 0) for f in np.sort(m.boundary_facets, axis=1)]


def reference_side_facets(nodes, elements, lo, hi):
    bound = reference_boundary_faces(elements)
    coords = nodes[bound]
    tol = 1e-12 * max(np.abs(np.concatenate([lo, hi])).max(), 1.0)
    sides = [("left", "right"), ("bottom", "top"), ("back", "front")]
    facets, tags = [], []
    for axis, names in enumerate(sides[:nodes.shape[1]]):
        for value, tag in zip((lo[axis], hi[axis]), names):
            on = np.all(np.abs(coords[..., axis] - value) <= tol, axis=1)
            facets.extend(bound[on])
            tags.extend([tag] * int(on.sum()))
    return np.array(facets, dtype=np.int64), tags


GENERATED = [
    dict(shape="box", divisions=(7, 5), bounds=([0.0, -1.0], [2.0, 1.0]),
         region_bands=[("slab", 1, -0.2, 0.6), ("wall", 0, 0.5, 0.9)]),
    dict(shape="box", divisions=(4, 3, 5), bounds=([-1.0, 0.0, 2.0],
                                                   [1.0, 3.0, 4.0]),
         region_bands=[("slab", 2, 2.4, 3.2), ("wall", 0, -0.5, 0.0)]),
    dict(shape="annulus", divisions=(17, 6), radii=(1.0, 2.5),
         center=(0.3, -0.2), grading=2.0),
    # one cell thick along x, then along z, off the unit box
    dict(shape="box", divisions=(1, 3, 2), bounds=([-0.5, 1.0, -2.0],
                                                   [0.25, 4.0, 7.0])),
    dict(shape="box", divisions=(3, 2, 1), bounds=([2.0, -3.0, 0.5],
                                                   [5.0, -1.0, 0.75])),
]


@pytest.mark.parametrize("kwargs", GENERATED, ids=[
    "box2d", "box3d", "annulus", "box3d-thin-x", "box3d-thin-z"])
def test_generation_matches_row_unique_reference(kwargs):
    m = msh.generate_structured(**kwargs)
    assert reference_facet_counts(m) == [1] * len(m.boundary_facets)
    declared = np.unique(np.sort(m.boundary_facets, axis=1), axis=0)
    assert np.array_equal(declared, reference_boundary_faces(m.elements))
    # the former path built the mesh without facets, then again with them
    first = msh.Mesh(m.nodes, m.elements, m.element_regions)
    if m.dim == 3:
        facets, tags = reference_side_facets(first.nodes, first.elements,
                                             *kwargs["bounds"])
    else:
        facets, tags = m.boundary_facets, m.facet_tags
    ref = msh.Mesh(first.nodes, first.elements, first.element_regions,
                   facets, tags)
    assert np.array_equal(m.elements, ref.elements)
    assert np.array_equal(m.boundary_facets, ref.boundary_facets)
    assert m.boundary_facets.dtype == ref.boundary_facets.dtype
    assert np.array_equal(m.facet_tags, ref.facet_tags)
    assert np.array_equal(m.element_regions, ref.element_regions)


def test_face_groups_are_exact_for_huge_node_ids():
    # ids beyond 2**21 overflow a base-n_nodes int64 key for 3-node faces
    big = 2**40
    (ids,), n = msh._face_groups(np.array([[big, 1, 5], [5, big, 1],
                                           [3, big, 1], [big + 1, 1, 5]]))
    assert n == 3
    assert ids.tolist() == [1, 1, 0, 2]


def box_with_extra_facet(extra):
    m = msh.generate_structured("box", (2, 2))
    return msh.Mesh(m.nodes, m.elements, m.element_regions,
                    np.vstack([m.boundary_facets, [extra]]),
                    m.facet_tags.tolist() + ["extra"])


@pytest.mark.parametrize("extra, why", [
    ([1, 4], "belongs to 2 elements"),    # interior edge
    ([0, 8], "belongs to 0 elements"),    # orphan: no element has it
    ([1, 0], "repeats boundary facet"),   # bottom edge declared again
])
def test_bad_declared_facets_are_named(extra, why):
    with pytest.raises(InvalidFacet) as err:
        box_with_extra_facet(extra)
    assert str(err.value).startswith("boundary facet 8 ")
    assert why in str(err.value)


# ------------------------------------------------- near-boundary facet check


def full_grouping_counts(m_elements, facets):
    """Per-facet element counts and first equal row from grouping every
    face of the mesh: the check before it looked near the boundary only."""
    (faces, declared), n = msh._face_groups(msh._sorted_faces(m_elements),
                                            facets)
    counts = np.bincount(faces, minlength=n)[declared]
    _, first, inverse = np.unique(declared, return_index=True,
                                  return_inverse=True)
    return counts, first[inverse]


def expected_facet_error(facets, counts, first):
    """The InvalidFacet message for the first bad facet, or None."""
    bad = np.flatnonzero((counts != 1) | (first != np.arange(len(first))))
    if not bad.size:
        return None
    i = int(bad[0])
    if counts[i] != 1:
        return (f"boundary facet {i} {facets[i].tolist()} belongs to "
                f"{counts[i]} elements; boundary facets must belong to "
                "exactly one")
    return (f"boundary facet {i} {facets[i].tolist()} repeats boundary "
            f"facet {first[i]}; each boundary facet is declared once")


def corrupted(m, kind, rng):
    """m's facets with one bad row put at a random place: an interior
    face, a face no element has (nodes drawn from declared facets, so its
    element test is the near-boundary one), or a facet declared again."""
    faces = msh._sorted_faces(m.elements)
    rows, counts = np.unique(faces, axis=0, return_counts=True)
    if kind == "interior":
        extra = rows[counts == 2][rng.integers((counts == 2).sum())]
    elif kind == "orphan":
        known = {tuple(r) for r in rows}
        pool = np.unique(m.boundary_facets)
        while True:
            extra = np.sort(rng.choice(pool, m.dim, replace=False))
            if tuple(extra) not in known:
                break
    else:
        extra = m.boundary_facets[rng.integers(len(m.boundary_facets))]
    at = int(rng.integers(len(m.boundary_facets) + 1))
    facets = np.insert(m.boundary_facets, at, rng.permutation(extra), axis=0)
    tags = np.insert(m.facet_tags, at, "extra")
    return facets, tags


FACET_MESHES = {
    "box2d": lambda _: msh.generate_structured(**GENERATED[0]),
    "box3d": lambda _: msh.generate_structured(**GENERATED[1]),
    "annulus": lambda _: msh.generate_structured(**GENERATED[2]),
    "box3d-thin-x": lambda _: msh.generate_structured(**GENERATED[3]),
    "box3d-thin-z": lambda _: msh.generate_structured(**GENERATED[4]),
    "box2d-one-cell": lambda _: msh.generate_structured("box", (1, 1)),
    "msh-2d": lambda tmp_path: read_back(msh.generate_structured(
        "box", (3, 4), region_bands=[("gap", 1, 0.5, 1.0)]), tmp_path),
    "msh-3d": lambda tmp_path: read_back(
        msh.generate_structured("box", (2, 3, 2)), tmp_path),
}


@pytest.mark.parametrize("kind", ["interior", "orphan", "repeat"])
@pytest.mark.parametrize("case", FACET_MESHES)
def test_near_boundary_facet_check_matches_full_grouping(case, kind,
                                                         tmp_path):
    m = FACET_MESHES[case](tmp_path)
    rng = np.random.default_rng(sorted(FACET_MESHES).index(case))
    for facets in [m.boundary_facets] + [corrupted(m, kind, rng)[0]
                                         for _ in range(5)]:
        got = msh._facet_counts(m.elements, facets, m.n_nodes)
        want = full_grouping_counts(m.elements, facets)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    facets, tags = corrupted(m, kind, rng)
    message = expected_facet_error(facets, *full_grouping_counts(
        m.elements, facets))
    assert message is not None
    with pytest.raises(InvalidFacet) as err:
        msh.Mesh(m.nodes, m.elements, m.element_regions, facets, tags)
    assert str(err.value) == message
