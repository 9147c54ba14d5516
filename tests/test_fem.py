"""Assembly, boundary elimination, energy, and matrix comparison."""

import numpy as np
import pytest
import scipy.sparse as sp

from tripletfem import fem, geometry as geo, mesh, triplet as tp
from tripletfem.atlas import Atlas, AtlasRegion
from tripletfem.errors import (AsymmetricCoefficient, DegenerateElement,
                               DimensionMismatch, TripletFemError, UnknownTag)


def euclidean_triplet(dim, eps=1.0, chart=None):
    return tp.Triplet(chart=chart if chart is not None else geo.Identity(dim),
                      metric=geo.MetricField.euclidean(dim),
                      material=tp.MaterialField.uniform(eps, dim))


def unit_square_spec(n, eps=1.0):
    m = mesh.generate_structured("box", (n, n))
    t = euclidean_triplet(2, eps)
    return fem.BVPSpec(domain=m, triplet=t,
                       dirichlet=(("left", 0.0), ("right", 1.0)))


# ------------------------------------------------------- local stiffness


def test_unit_right_triangle_matrix_is_exact():
    L = fem.local_stiffness([[0, 0], [1, 0], [0, 1]], np.eye(2))
    want = np.array([[1.0, -0.5, -0.5],
                     [-0.5, 0.5, 0.0],
                     [-0.5, 0.0, 0.5]])
    assert np.abs(L - want).max() <= 1e-15


def test_doubling_k_doubles_every_entry():
    nodes = [[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]]
    L1 = fem.local_stiffness(nodes, np.eye(2))
    L2 = fem.local_stiffness(nodes, 2.0 * np.eye(2))
    assert np.abs(L2 - 2.0 * L1).max() <= 1e-14


def test_local_row_sums_vanish():
    rng = np.random.default_rng(11)
    for _ in range(10):
        nodes = rng.standard_normal((3, 2))
        if abs(np.linalg.det(nodes[1:] - nodes[0])) < 1e-3:
            continue
        L = fem.local_stiffness(nodes, np.eye(2))
        assert np.abs(L.sum(axis=1)).max() <= 1e-12
    tet = rng.standard_normal((4, 3))
    L = fem.local_stiffness(tet, np.eye(3))
    assert np.abs(L.sum(axis=1)).max() <= 1e-12


def test_local_stiffness_scalar_k_and_callable_k_agree():
    nodes = [[0, 0], [1, 0], [0, 1]]
    a = fem.local_stiffness(nodes, 3.0)
    b = fem.local_stiffness(nodes, lambda x: 3.0 * np.eye(2))
    assert np.abs(a - b).max() <= 1e-14


def test_interior_rule_matches_one_point_for_constant_k():
    nodes = [[0.0, 0.0], [2.0, 0.3], [0.4, 1.5]]
    K = np.array([[2.0, 0.3], [0.3, 1.0]])
    a = fem.local_stiffness(nodes, K, quadrature="one_point")
    b = fem.local_stiffness(nodes, K, quadrature="interior")
    assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


def test_linear_coefficient_integrated_exactly_by_interior_rule():
    # K(x) = (1 + x + 2y) I over the unit right triangle: gradients are
    # constant so the entry integral is gradT grad times int K, and
    # int (1 + x + 2y) dx over the triangle is 1/2 + 1/6 + 2/6 = 1.
    nodes = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    L = fem.local_stiffness(nodes, lambda x: (1 + x[0] + 2 * x[1]) * np.eye(2),
                            quadrature="interior")
    base = fem.local_stiffness(nodes, np.eye(2))
    assert np.abs(L - 2.0 * base).max() <= 1e-14


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateElement):
        fem.local_stiffness([[0, 0], [1, 0], [2, 0]], np.eye(2))


def test_subnormal_simplex_rejected_at_the_mesh_volume_floor():
    with pytest.raises(DegenerateElement, match="at or below 1e-300"):
        fem.local_stiffness([[0, 0], [1, 0], [0, 1e-310]], np.eye(2))


def test_quadrature_tables_have_unit_weight_and_interior_points():
    for name in ("one_point", "interior"):
        for dim in (2, 3):
            bary, w = fem.quadrature_rule(name, dim)
            assert abs(w.sum() - 1.0) <= 1e-15
            assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-15
            assert bary.min() > 0.0  # never touches the element boundary
    with pytest.raises(ValueError):
        fem.quadrature_rule("gauss7", 2)


# ------------------------------------------------------------ whole solves


def test_linear_solution_reproduced_exactly():
    sol = fem.solve_bvp(unit_square_spec(8))
    m = sol.system.spec.domain
    assert np.abs(sol.u - m.nodes[:, 0]).max() <= 1e-14


def test_constant_dirichlet_gives_constant_interior():
    m = mesh.generate_structured("box", (6, 6))
    t = euclidean_triplet(2)
    spec = fem.BVPSpec(m, t, (("left", 3.0), ("right", 3.0),
                              ("bottom", 3.0), ("top", 3.0)))
    sol = fem.solve_bvp(spec)
    assert np.abs(sol.u - 3.0).max() <= 1e-12


def test_constants_in_the_kernel_before_elimination():
    spec = unit_square_spec(12)
    system = fem.assemble(spec)
    ones = np.ones(system.n_dofs)
    assert np.abs(system.full_matrix @ ones).max() <= 1e-12


def test_assembled_matrix_is_symmetric_and_reduced_block_spd():
    spec = unit_square_spec(8, eps=2.0)
    system = fem.assemble(spec)
    skew = system.full_matrix - system.full_matrix.T
    assert np.abs(skew.data).max(initial=0.0) <= 1e-15
    eigs = np.linalg.eigvalsh(system.matrix.toarray())
    assert eigs.min() > 0.0


def test_residual_small_after_solve():
    spec = unit_square_spec(16)
    from tripletfem.solver import SolverConfig
    sol = fem.solve_bvp(spec, SolverConfig(tol=1e-12))
    system = sol.system
    r = system.rhs - system.matrix @ sol.u[system.free]
    assert np.linalg.norm(r) <= 1e-10 * max(np.linalg.norm(system.rhs), 1e-30)


def test_energy_of_unit_gradient_is_one():
    sol = fem.solve_bvp(unit_square_spec(8))
    assert abs(sol.energy - 1.0) <= 1e-12
    assert abs(sol.system.energy_of(sol.u) - 1.0) <= 1e-12


def test_energy_scales_linearly_with_material():
    a = fem.solve_bvp(unit_square_spec(6, eps=1.0))
    b = fem.solve_bvp(unit_square_spec(6, eps=7.5))
    assert abs(b.energy - 7.5 * a.energy) <= 1e-10


def test_energy_checks_dimensions():
    sol = fem.solve_bvp(unit_square_spec(4))
    with pytest.raises(DimensionMismatch):
        sol.system.energy_of(np.zeros(3))


def test_missing_dirichlet_tag_is_rejected():
    m = mesh.generate_structured("box", (2, 2))
    t = euclidean_triplet(2)
    with pytest.raises(UnknownTag):
        fem.BVPSpec(m, t, (("lid", 0.0),))
    with pytest.raises(ValueError):
        fem.BVPSpec(m, t, ())


def test_first_declared_tag_wins_on_shared_corner():
    m = mesh.generate_structured("box", (4, 4))
    t = euclidean_triplet(2)
    spec = fem.BVPSpec(m, t, (("bottom", 5.0), ("left", 0.0)))
    system = fem.assemble(spec)
    corner = int(np.flatnonzero(
        (np.abs(m.nodes[:, 0]) < 1e-12) & (np.abs(m.nodes[:, 1]) < 1e-12))[0])
    i = int(np.flatnonzero(system.dirichlet_dofs == corner)[0])
    assert system.dirichlet_values[i] == 5.0
    flipped = fem.BVPSpec(m, t, (("left", 0.0), ("bottom", 5.0)))
    system = fem.assemble(flipped)
    i = int(np.flatnonzero(system.dirichlet_dofs == corner)[0])
    assert system.dirichlet_values[i] == 0.0


def test_callable_boundary_values_evaluated_at_nodes():
    m = mesh.generate_structured("box", (6, 6))
    t = euclidean_triplet(2)
    exact = lambda x: x[0] + 2.0 * x[1]  # noqa: E731, harmonic and linear
    spec = fem.BVPSpec(m, t, (("left", exact), ("right", exact),
                              ("bottom", exact), ("top", exact)))
    sol = fem.solve_bvp(spec)
    assert np.abs(sol.u - (m.nodes[:, 0] + 2.0 * m.nodes[:, 1])).max() <= 1e-12


def test_three_d_solve_reproduces_linear_solution():
    m = mesh.generate_structured("box", (3, 3, 3))
    t = euclidean_triplet(3)
    spec = fem.BVPSpec(m, t, (("left", 0.0), ("right", 1.0)))
    sol = fem.solve_bvp(spec)
    assert np.abs(sol.u - m.nodes[:, 0]).max() <= 1e-12
    assert abs(sol.energy - 1.0) <= 1e-12


# ------------------------------------------------- triplet interchangeability


def test_affine_equivalent_triplets_assemble_equal_matrices():
    spec = unit_square_spec(8)
    base = fem.assemble(spec)
    g = geo.Composite([geo.Rotation(0.7), geo.AxisScaling((3.0, 0.5))])
    m2 = mesh.map_mesh(spec.domain, g)
    J = g.jacobian(np.zeros(2))
    eps_g = tp.transform_material_euclidean(np.eye(2), J)
    t2 = tp.Triplet(chart=g, metric=geo.MetricField.euclidean(2),
                    material=tp.MaterialField.uniform(eps_g, 2))
    other = fem.assemble(fem.BVPSpec(m2, t2, spec.dirichlet))
    report = fem.compare_matrices(base.full_matrix, other.full_matrix)
    assert report.rel_frobenius <= 1e-12
    assert report.max_entry_deviation <= 1e-12


def test_metric_route_equals_material_route():
    # Absorbing an affine map into the metric or into the material must
    # produce the same effective coefficient, hence the same matrix.
    spec = unit_square_spec(6)
    base = fem.assemble(spec)
    g = geo.AxisScaling((2.0, 0.5))
    m2 = mesh.map_mesh(spec.domain, g)
    J = g.jacobian(np.zeros(2))

    eps_g = tp.transform_material_euclidean(np.eye(2), J)
    by_material = fem.assemble(fem.BVPSpec(
        m2, tp.Triplet(g, geo.MetricField.euclidean(2),
                       tp.MaterialField.uniform(eps_g, 2)),
        spec.dirichlet))

    # J takes the standard square to the assembly chart, which is the
    # direction the motion metric formula expects
    S_g = tp.metric_for_motion(J)
    by_metric = fem.assemble(fem.BVPSpec(
        m2, tp.Triplet(g, geo.MetricField(2, constant=S_g),
                       tp.MaterialField.uniform(1.0, 2)),
        spec.dirichlet))

    r1 = fem.compare_matrices(base.full_matrix, by_material.full_matrix)
    r2 = fem.compare_matrices(by_material.full_matrix, by_metric.full_matrix)
    assert r1.rel_frobenius <= 1e-12
    assert r2.rel_frobenius <= 1e-12


def test_nonlinear_chart_energy_gap_shrinks_under_refinement():
    # Equivalent solves under a smooth nonlinear chart agree only in the
    # limit; the energy gap must fall by at least 1.8x per h halving.
    shell = geo.PolarStretch(scale=1.0, exponent=1.3)
    gaps = []
    for n in (8, 16, 32):
        m = mesh.generate_structured("box", (n, n),
                                     bounds=([1.0, 1.0], [2.0, 2.0]))
        t = euclidean_triplet(2)
        direct = fem.solve_bvp(fem.BVPSpec(m, t, (("left", 0.0),
                                                  ("right", 1.0))))
        mg = mesh.map_mesh(m, shell)

        def eps_g(x, _shell=shell):
            base = _shell.inverse(x)
            J = _shell.jacobian(base)
            return tp.transform_material_euclidean(
                np.broadcast_to(np.eye(2), J.shape), J)

        tg = tp.Triplet(chart=shell, metric=geo.MetricField.euclidean(2),
                        material=tp.MaterialField(2, default=eps_g))
        mapped = fem.solve_bvp(fem.BVPSpec(mg, tg, (("left", 0.0),
                                                    ("right", 1.0))))
        gaps.append(abs(direct.energy - mapped.energy))
    assert gaps[0] / gaps[1] >= 1.8
    assert gaps[1] / gaps[2] >= 1.8


def test_anisotropic_metric_material_pair_rejected_at_offending_element():
    S = geo.MetricField(2, constant=np.array([[2.0, 0.4], [0.4, 1.0]]))
    eps = tp.MaterialField.uniform(np.diag([3.0, 1.0]), 2)
    m = mesh.generate_structured("box", (2, 2))
    t = tp.Triplet(geo.Identity(2), S, eps)
    with pytest.raises(AsymmetricCoefficient, match="element 0"):
        fem.assemble(fem.BVPSpec(m, t, (("left", 0.0),)))


def test_nan_material_is_rejected_at_the_first_element_it_reaches():
    m = mesh.generate_structured("box", (4, 4))
    material = tp.MaterialField.uniform(
        lambda p: np.where(p[..., 0] > 0.6, np.nan, 1.0), 2)
    t = tp.Triplet(geo.Identity(2), geo.MetricField.euclidean(2), material)
    with pytest.raises(TripletFemError, match=r"^element \d+: .*nan"):
        fem.assemble(fem.BVPSpec(m, t, (("left", 0.0),)))


def test_assembled_symmetry_check_refuses_nan():
    data = np.array([1.0, np.nan])
    with pytest.raises(TripletFemError, match="asymmetry"):
        fem._require_symmetric(data, np.array([0.0, np.nan]))


# ------------------------------------------------------------ field recovery


def test_element_field_is_negative_gradient_for_euclidean_metric():
    sol = fem.solve_bvp(unit_square_spec(4))
    assert np.abs(sol.fields - np.array([-1.0, 0.0])).max() <= 1e-12


def test_element_field_applies_inverse_metric():
    m = mesh.generate_structured("box", (4, 4))
    t = tp.Triplet(geo.Identity(2),
                   geo.MetricField(2, constant=np.diag([2.0, 1.0])),
                   tp.MaterialField.uniform(np.diag([2.0, 1.0]), 2))
    sol = fem.solve_bvp(fem.BVPSpec(m, t, (("left", 0.0), ("right", 1.0))))
    # K = eps S^-1 = I, so u = x again, but E = -S^-1 grad u = (-1/2, 0)
    assert np.abs(sol.u - m.nodes[:, 0]).max() <= 1e-12
    assert np.abs(sol.fields - np.array([-0.5, 0.0])).max() <= 1e-12


def test_recovered_fields_transform_between_charts():
    spec = unit_square_spec(6)
    sol_f = fem.solve_bvp(spec)
    g = geo.Composite([geo.Rotation(0.4), geo.AxisScaling((2.0, 0.7))])
    J = g.jacobian(np.zeros(2))
    eps_g = tp.transform_material_euclidean(np.eye(2), J)
    mg = mesh.map_mesh(spec.domain, g)
    tg = tp.Triplet(g, geo.MetricField.euclidean(2),
                    tp.MaterialField.uniform(eps_g, 2))
    sol_g = fem.solve_bvp(fem.BVPSpec(mg, tg, spec.dirichlet))
    back = tp.transform_field(sol_g.fields, np.eye(2), np.eye(2), J)
    assert np.abs(back - sol_f.fields).max() <= 1e-10


# -------------------------------------------------------- partial reassembly


def test_partial_update_is_bitwise_identical_to_full_reassembly():
    spec = unit_square_spec(6)
    system = fem.assemble(spec)
    hot = euclidean_triplet(2, eps=4.5)
    changed = fem.update_elements(system, hot, np.arange(system.n_elements))
    fresh = fem.assemble(fem.BVPSpec(spec.domain, hot, spec.dirichlet))
    assert np.array_equal(system.full_matrix.data, fresh.full_matrix.data)
    assert np.array_equal(system.full_matrix.indices,
                          fresh.full_matrix.indices)
    assert np.array_equal(system.full_matrix.indptr, fresh.full_matrix.indptr)
    assert np.array_equal(system.rhs, fresh.rhs)
    assert changed > 0


def test_update_with_same_triplet_changes_nothing():
    spec = unit_square_spec(5)
    system = fem.assemble(spec)
    before = system.full_matrix.data.copy()
    changed = fem.update_elements(system, spec.triplet,
                                  np.arange(system.n_elements))
    assert changed == 0
    assert np.array_equal(system.full_matrix.data, before)


def test_update_of_one_region_leaves_other_blocks_untouched():
    m = mesh.generate_structured("box", (8, 8), region="air",
                                 region_bands=[("slab", 1, 0.25, 0.75)])
    eps = tp.MaterialField(2, regions={"air": 1.0, "slab": 2.0})
    t = tp.Triplet(geo.Identity(2), geo.MetricField.euclidean(2), eps)
    spec = fem.BVPSpec(m, t, (("bottom", 0.0), ("top", 1.0)))
    system = fem.assemble(spec)
    slab = m.elements_in_regions(["slab"])
    others = np.setdiff1d(np.arange(m.n_elements), slab)
    k2 = 9
    keep = (others[:, None] * k2 + np.arange(k2)).ravel()
    before = system.data[keep].copy()
    eps2 = tp.MaterialField(2, regions={"air": 1.0, "slab": 6.0})
    t2 = tp.Triplet(geo.Identity(2), geo.MetricField.euclidean(2), eps2)
    fem.update_elements(system, t2, slab)
    assert np.array_equal(system.data[keep], before)
    fresh = fem.assemble(fem.BVPSpec(m, t2, spec.dirichlet))
    assert np.array_equal(system.full_matrix.data, fresh.full_matrix.data)


def einsum_blocks(weights, grads, K, vols):
    """The symmetrized block formula as one np.einsum, the reference the
    element-first kernel must reproduce bit for bit."""
    blocks = np.einsum("q,eak,eqkl,ebl->eab", weights, grads, K, grads)
    blocks *= vols[:, None, None]
    return 0.5 * (blocks + np.swapaxes(blocks, 1, 2))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rule", ["one_point", "interior"])
def test_block_kernel_keeps_the_einsum_bits(dim, rule):
    rng = np.random.default_rng(7 * dim + len(rule))
    n = 2 * fem._BLOCK_CHUNK + 37  # a last, partial chunk
    _, weights = fem.quadrature_rule(rule, dim)
    grads = rng.standard_normal((n, dim + 1, dim))
    A = rng.standard_normal((n, weights.size, dim, dim))
    K = (A + np.swapaxes(A, -1, -2)) \
        * np.exp(rng.uniform(-5.0, 5.0, (n, weights.size, 1, 1)))
    vols = rng.uniform(0.01, 1.0, n)
    got = np.full((n, dim + 1, dim + 1), np.nan)
    for c, blocks in fem._element_blocks(weights, grads, K, vols):
        got[c] = blocks
    assert np.array_equal(got, einsum_blocks(weights, grads, K, vols))


def box_2d_spec():
    return unit_square_spec(7)


def box_3d_spec():
    m = mesh.generate_structured("box", (3, 4, 2))
    return fem.BVPSpec(m, euclidean_triplet(3), (("left", 0.0),
                                                 ("right", 1.0)))


def two_patch_atlas_spec():
    half = mesh.generate_structured("box", (5, 4))
    atlas = Atlas([AtlasRegion("a", geo.Identity(2), half),
                   AtlasRegion("b", geo.translation([-1.0, 0.0]), half)],
                  interfaces=[(("a", "b"), ("right", "left"))])
    return fem.BVPSpec(atlas, euclidean_triplet(2),
                       (("left", 0.0), ("right", 1.0)))


@pytest.mark.parametrize("make_spec",
                         [box_2d_spec, box_3d_spec, two_patch_atlas_spec])
def test_csr_replay_matches_coo_to_csr(make_spec):
    system = fem.assemble(make_spec())
    csr_sum = fem._CsrSum(system)
    csr_sum.check(system)
    rng = np.random.default_rng(3)
    size = system.data.size
    data = rng.standard_normal(size) * np.exp(rng.uniform(-20.0, 20.0, size))
    rows, cols = system._buffer_coords()
    A = sp.coo_matrix((data, (rows, cols)),
                      shape=(system.n_dofs, system.n_dofs)).tocsr()
    free, fixed = system.free, system.dirichlet_dofs
    values = rng.standard_normal(fixed.size)
    full, matrix, rhs = csr_sum.matrices(csr_sum.sum(data), values)
    want = A[free][:, free].tocsr()
    for got, ref in ((full, A), (matrix, want)):
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.data, ref.data)
    assert np.array_equal(rhs, -(A[free][:, fixed] @ values))


def test_changed_entries_match_the_pattern_count():
    m = mesh.generate_structured("box", (8, 8), region="air",
                                 region_bands=[("slab", 1, 0.25, 0.75)])
    t = tp.Triplet(geo.Identity(2), geo.MetricField.euclidean(2),
                   tp.MaterialField(2, regions={"air": 1.0, "slab": 2.0}))
    system = fem.assemble(fem.BVPSpec(m, t, (("bottom", 0.0), ("top", 1.0))))
    before = system.data.copy()
    t2 = tp.Triplet(geo.Identity(2), geo.MetricField.euclidean(2),
                    tp.MaterialField(2, regions={"air": 1.0, "slab": 6.0}))
    # every element is recomputed, only the slab's blocks move
    changed = fem.update_elements(system, t2, np.arange(m.n_elements))
    moved = np.flatnonzero(system.data != before)
    rows, cols = system._buffer_coords()
    pattern = sp.coo_matrix((np.ones(moved.size), (rows[moved], cols[moved])),
                            shape=(system.n_dofs, system.n_dofs)).tocsr()
    assert 0 < changed == pattern.nnz < system.full_matrix.nnz


def test_a_corrupted_csr_sum_is_refused(monkeypatch):
    class Corrupted(fem._CsrSum):
        def __init__(self, system):
            super().__init__(system)
            self.pos = self.pos[::-1].copy()

    spec = unit_square_spec(5)
    system = fem.assemble(spec)
    monkeypatch.setattr(fem, "_CsrSum", Corrupted)
    with pytest.raises(TripletFemError, match="CSR sum"):
        fem.update_elements(system, spec.triplet, [0, 1])


def test_element_set_belongs_to_its_system():
    spec = unit_square_spec(3)
    one, other = fem.assemble(spec), fem.assemble(spec)
    with pytest.raises(ValueError):
        fem.update_elements(one, spec.triplet, fem.ElementSet(other, [0]))
    with pytest.raises(IndexError):
        fem.ElementSet(one, [one.n_elements])


# ------------------------------------------------------------------- atlas


def test_two_region_atlas_matches_single_mesh_solve():
    n = 6
    ref_mesh = mesh.generate_structured("box", (2 * n, n),
                                        bounds=([0, 0], [2, 1]))
    t = euclidean_triplet(2)
    ref = fem.solve_bvp(fem.BVPSpec(ref_mesh, t,
                                    (("left", 0.0), ("right", 1.0))))
    half = mesh.generate_structured("box", (n, n))
    atlas = Atlas([AtlasRegion("a", geo.Identity(2), half),
                   AtlasRegion("b", geo.translation([-1.0, 0.0]), half)],
                  interfaces=[(("a", "b"), ("right", "left"))])
    sol = fem.solve_bvp(fem.BVPSpec(atlas, t,
                                    (("left", 0.0), ("right", 1.0))))
    assert sol.system.n_dofs == ref.system.n_dofs
    table = {}
    for patch in sol.system.patches:
        pts = patch.chart.inverse(patch.mesh.nodes)
        for i, p in enumerate(pts):
            table[tuple(np.round(p, 9))] = sol.u[patch.dofs[i]]
    worst = max(abs(table[tuple(np.round(p, 9))] - u)
                for p, u in zip(ref_mesh.nodes, ref.u))
    assert worst <= 1e-10
    assert abs(sol.energy - ref.energy) <= 1e-12


def test_atlas_region_chart_scaling_compensated_by_materials():
    # Region b is drawn doubled in x; its chart reports that, and the
    # pulled-back material keeps the assembled physics identical.
    n = 4
    t = euclidean_triplet(2)
    half = mesh.generate_structured("box", (n, n))
    wide = mesh.generate_structured("box", (n, n), bounds=([2, 0], [4, 1]))
    chart_b = geo.AxisScaling((2.0, 1.0))  # universal [1,2] -> drawn [2,4]
    atlas = Atlas([AtlasRegion("a", geo.Identity(2), half),
                   AtlasRegion("b", chart_b, wide)],
                  interfaces=[(("a", "b"), ("right", "left"))])
    sol = fem.solve_bvp(fem.BVPSpec(atlas, t,
                                    (("left", 0.0), ("right", 1.0))))
    ref_mesh = mesh.generate_structured("box", (2 * n, n),
                                        bounds=([0, 0], [2, 1]))
    ref = fem.solve_bvp(fem.BVPSpec(ref_mesh, t,
                                    (("left", 0.0), ("right", 1.0))))
    assert abs(sol.energy - ref.energy) <= 1e-10
    # the universal-chart solution is still u = x/2
    patch_b = sol.system.patches[1]
    xs = patch_b.chart.inverse(patch_b.mesh.nodes)[:, 0]
    assert np.abs(sol.u[patch_b.dofs] - xs / 2.0).max() <= 1e-10


def test_interface_side_tag_is_not_a_dirichlet_target():
    n = 3
    half = mesh.generate_structured("box", (n, n))
    atlas = Atlas([AtlasRegion("a", geo.Identity(2), half),
                   AtlasRegion("b", geo.translation([-1.0, 0.0]), half)],
                  interfaces=[(("a", "b"), ("right", "left"))])
    t = euclidean_triplet(2)
    system = fem.assemble(fem.BVPSpec(atlas, t,
                                      (("left", 0.0), ("right", 1.0))))
    # the glued line x=1 must stay free: grounding it would pin u there
    interface_dofs = set()
    patch_a = system.patches[0]
    for node in patch_a.mesh.boundary_nodes("right"):
        interface_dofs.add(int(patch_a.dofs[node]))
    assert interface_dofs.isdisjoint(system.dirichlet_dofs.tolist())


# -------------------------------------------------------------- comparison


def test_compare_identical_and_scaled_matrices():
    system = fem.assemble(unit_square_spec(5))
    A = system.full_matrix
    same = fem.compare_matrices(A, A)
    assert same.rel_frobenius == 0.0
    assert same.max_entry_deviation == 0.0
    doubled = fem.compare_matrices(A, 2.0 * A)
    assert abs(doubled.rel_frobenius - 0.5) <= 1e-15
    with pytest.raises(DimensionMismatch):
        fem.compare_matrices(A, np.eye(3))


def test_comparison_locates_worst_entry():
    A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    B = sp.csr_matrix(np.diag([1.0, 2.5, 3.0]))
    report = fem.compare_matrices(A, B)
    assert report.worst_index == (1, 1)
    assert abs(report.max_entry_deviation - 0.5 / 3.0) <= 1e-15


def test_matrix_market_export_format_and_roundtrip(tmp_path):
    import scipy.io
    system = fem.assemble(unit_square_spec(3))
    path = tmp_path / "a.mtx"
    fem.write_matrix_market(system.full_matrix, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    m, n, nnz = map(int, lines[1].split())
    assert (m, n) == system.full_matrix.shape
    assert nnz == len(lines) - 2
    back = scipy.io.mmread(path).tocsr()
    assert fem.compare_matrices(system.full_matrix, back).rel_frobenius == 0.0


def test_matrix_market_bytes_are_reproducible(tmp_path):
    spec = unit_square_spec(4)
    a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
    fem.write_matrix_market(fem.assemble(spec).full_matrix, a)
    fem.write_matrix_market(fem.assemble(spec).full_matrix, b)
    assert a.read_bytes() == b.read_bytes()
