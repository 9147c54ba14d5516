"""Assembly, boundary elimination, energy, and matrix comparison."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tripletfem import fem, geometry as geo, mesh, solver as slv, triplet as tp
from tripletfem.atlas import Atlas, AtlasRegion
from tripletfem.errors import (AsymmetricCoefficient, DegenerateElement,
                               DimensionMismatch, NonFiniteRightHandSide,
                               TripletFemError, UnknownTag)


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


def test_thin_simplex_rejected_by_the_mesh_rule():
    with pytest.raises(DegenerateElement, match="gradients overflow"):
        fem.local_stiffness([[0, 0], [1, 0], [0, 1e-200]], np.eye(2))


def edge_of_acceptance(rng, dim):
    """Nodes of a simplex with a random orientation and shape: longest
    edge scale 1e-160 to 1e160, singular values of the edge matrix spread
    over a ratio up to 1e12, placed up to 1e3 edge scales from 0."""
    scale = 10.0 ** rng.uniform(-160, 160)
    aspect = 10.0 ** rng.uniform(0, 12)
    U, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    V, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    s = aspect ** rng.uniform(0, 1, dim)
    s[0], s[-1] = 1.0, aspect
    offset = scale * 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(dim)
    return offset + np.vstack([np.zeros(dim), scale * (U * s / aspect) @ V.T])


@pytest.mark.parametrize("dim", [2, 3])
def test_every_accepted_simplex_gets_accurate_adjugate_gradients(dim):
    rng = np.random.default_rng(dim)
    eps = np.finfo(float).eps
    accepted = refused = 0
    for _ in range(1500):
        try:
            m = mesh.Mesh(edge_of_acceptance(rng, dim),
                          [list(range(dim + 1))], ["d"])
        except DegenerateElement:
            refused += 1
            continue
        accepted += 1
        coords = m.element_coords()
        grads = fem._p1_gradients(m.edge_matrices())[0]
        edges = coords[0, 1:] - coords[0, 0]
        assert np.all(np.isfinite(grads))
        size = np.abs(grads).max()
        assert np.abs(grads.sum(axis=0)).max() <= 4 * eps * size
        # grads[1 + a] . edges[b] = delta_ab within c eps s1^d / |det|,
        # s the falling singular values of the edges. The adjugate's
        # entries carry the rounding of products of d - 1 entries, about
        # eps s1^(d-1), against a determinant s1 ... sd. That is c eps
        # cond in 2-D and for a flat 3-D simplex (s1 ~ s2), and c eps
        # cond s1 / s2 for a 3-D needle, where LAPACK's residual stays
        # near eps cond. Mesh refuses longest edge^d / volume above 2^46,
        # so eps s1^d / |det| stays below 1/64 here and the first-order
        # bound holds. The draws here give c up to 0.97, and 24,000 more
        # per dimension at other seeds up to 1.02, so c = 2.
        s = np.linalg.svd(edges, compute_uv=False)
        scale = np.prod(s[0] / s[1:])
        assert np.abs(grads[1:] @ edges.T - np.eye(dim)).max() \
            <= 2 * scale * eps
    # the draws straddle the edge: most pass, some fail the mesh rule
    assert accepted > 500 and refused > 50


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


@pytest.mark.parametrize("value", [np.nan, 1e308], ids=["nan", "1e308"])
def test_a_dirichlet_value_of_no_finite_norm_is_a_typed_error(value):
    m = mesh.generate_structured("box", (8, 8))
    spec = fem.BVPSpec(m, euclidean_triplet(2),
                       (("left", 0.0), ("right", value)))
    with pytest.raises(NonFiniteRightHandSide):
        fem.solve_bvp(spec)


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


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rule", ["one_point", "interior"])
def test_quadrature_points_keep_the_einsum_bits(dim, rule):
    rng = np.random.default_rng(11 * dim + len(rule))
    n = 2 * fem._BLOCK_CHUNK + 37  # a last, partial chunk
    bary, _ = fem.quadrature_rule(rule, dim)
    nodes = rng.standard_normal((n, dim)) \
        * np.exp(rng.uniform(-20.0, 20.0, (n, 1))) \
        + rng.standard_normal((n, dim)) * 1e3
    elements = rng.integers(0, n, (n - 5, dim + 1))
    got = fem._quadrature_points(bary, nodes, elements)
    assert got.flags.c_contiguous
    assert np.array_equal(got, np.einsum("qa,ead->eqd", bary,
                                         nodes[elements]))


@pytest.mark.parametrize("dim", [2, 3])
def test_constant_material_given_as_value_or_callable_gives_the_same_bits(
        dim):
    rng = np.random.default_rng(dim)
    A = rng.standard_normal((dim, dim))
    K = A @ A.T + dim * np.eye(dim)
    m = mesh.generate_structured("box", (5,) * dim if dim == 2 else (3,) * 3)
    bc = (("left", 0.0), ("right", 1.0))

    def assembled(material, quadrature="auto"):
        triplet = tp.Triplet(geo.Identity(dim), geo.MetricField.euclidean(dim),
                             tp.MaterialField.uniform(material, dim))
        return fem.assemble(fem.BVPSpec(m, triplet, bc,
                                        quadrature=quadrature)).full_matrix

    want = assembled(K, "one_point")
    stack = lambda p: np.broadcast_to(K, p.shape[:-1] + K.shape).copy()
    for material in (K, lambda p: K, stack):
        got = assembled(material)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    # a coefficient that varies keeps the interior rule under "auto"
    varying = lambda p: (1.0 + p[..., 0] ** 2)[..., None, None] * K
    assert np.array_equal(assembled(varying).data,
                          assembled(varying, "interior").data)


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


def graded_annulus_spec():
    m = mesh.generate_structured("annulus", (12, 4), radii=(1.0, 2.0),
                                 grading=2.0)
    return fem.BVPSpec(m, euclidean_triplet(2),
                       (("inner", 1.0), ("outer", 0.0)))


def all_dirichlet_spec():
    m = mesh.generate_structured("box", (1, 1))
    return fem.BVPSpec(m, euclidean_triplet(2),
                       tuple((tag, float(i)) for i, tag in
                             enumerate(("left", "right", "bottom", "top"))))


def unused_node_spec():
    box = mesh.generate_structured("box", (3, 3))
    nodes = np.vstack([box.nodes, [[2.0, 2.0]]])  # in no element
    m = mesh.Mesh(nodes, box.elements, box.element_regions,
                  box.boundary_facets, box.facet_tags)
    return fem.BVPSpec(m, euclidean_triplet(2),
                       (("left", 0.0), ("right", 1.0)))


def buffer_coords(system):
    """Row and column dof of every entry of the system's block buffer."""
    shape = (system.n_elements, system._k, system._k)
    dofs = system.element_dofs
    return (np.broadcast_to(dofs[:, :, None], shape).ravel(),
            np.broadcast_to(dofs[:, None, :], shape).ravel())


def assert_scipy_sums_the_buffer(system):
    """The system's matrices and rhs, bit for bit, against scipy's COO to
    CSR conversion of its block buffer and a slice of the result."""
    rows, cols = buffer_coords(system)
    A = sp.coo_matrix((system.data, (rows, cols)),
                      shape=(system.n_dofs, system.n_dofs)).tocsr()
    free, fixed = system.free, system.dirichlet_dofs
    want = [(system.full_matrix, A)]
    if free.size:
        want.append((system.matrix, A[free][:, free].tocsr()))
        rhs = -(A[free][:, fixed] @ system.dirichlet_values)
    else:
        assert system.matrix.shape == (0, 0)
        rhs = np.zeros(0)
    for got, ref in want:
        for field in ("indices", "indptr", "data"):
            a, b = getattr(got, field), getattr(ref, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(system.rhs, rhs)


@pytest.mark.parametrize("make_spec",
                         [box_2d_spec, box_3d_spec, two_patch_atlas_spec,
                          graded_annulus_spec, all_dirichlet_spec,
                          unused_node_spec])
def test_csr_replay_matches_coo_to_csr(make_spec):
    """Assembly, a build of every row and a partial update all replay the
    recorded CSR sum; scipy's own conversion of the buffer is the oracle."""
    spec = make_spec()
    system = fem.assemble(spec)
    assert_scipy_sums_the_buffer(system)
    # symmetric blocks over a wide range of exponents, so any change in
    # the order of the additions moves the last bits
    rng = np.random.default_rng(3)
    k = system._k
    B = rng.standard_normal((system.n_elements, k, k)) \
        * np.exp(rng.uniform(-20.0, 20.0, (system.n_elements, 1, 1)))
    system.data[:] = (B + np.swapaxes(B, 1, 2)).ravel()
    system.dirichlet_values = rng.standard_normal(system.dirichlet_dofs.size)
    # an update re-sums the rows it touches alone, so the blocks written
    # behind its back go in through the build of every row first
    system._build(system._csr_sum.every_row)
    assert_scipy_sums_the_buffer(system)
    some = rng.choice(system.n_elements, max(1, system.n_elements // 3),
                      replace=False)
    t2 = euclidean_triplet(system.dim, eps=3.0)
    fem.update_elements(system, t2, some)
    assert_scipy_sums_the_buffer(system)


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
    rows, cols = buffer_coords(system)
    pattern = sp.coo_matrix((np.ones(moved.size), (rows[moved], cols[moved])),
                            shape=(system.n_dofs, system.n_dofs)).tocsr()
    assert 0 < changed == pattern.nnz < system.full_matrix.nnz


def test_element_set_belongs_to_its_system():
    spec = unit_square_spec(3)
    one, other = fem.assemble(spec), fem.assemble(spec)
    with pytest.raises(ValueError):
        fem.update_elements(one, spec.triplet, fem.ElementSet(other, [0]))
    with pytest.raises(IndexError):
        fem.ElementSet(one, [one.n_elements])


def retagged(m, labels):
    """m with element e in region f"r{labels[e]}"."""
    return mesh.Mesh(m.nodes, m.elements, [f"r{v}" for v in labels],
                     m.boundary_facets, m.facet_tags)


@st.composite
def material_entry(draw, dim):
    """A scalar or an SPD matrix A A^T + I."""
    if draw(st.booleans()):
        return draw(st.floats(0.25, 4.0))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim,
                               max_size=dim * dim))).reshape(dim, dim)
    return a @ a.T + np.eye(dim)


@st.composite
def moving_problem(draw):
    """(spec before, spec after, element ids): a problem whose elements
    carry drawn region labels 0..2, and the same problem with the
    materials of some labels redrawn; the ids are every element with a
    redrawn label: one run of ids, scattered ids, or several regions."""
    domain = draw(st.sampled_from(["box-2d", "box-3d", "atlas"]))
    if domain == "box-2d":
        patches = [mesh.generate_structured("box", (6, 5))]
    elif domain == "box-3d":
        patches = [mesh.generate_structured("box", (3, 3, 2))]
    else:
        patches = [mesh.generate_structured("box", (4, 3))] * 2
    dim = patches[0].dim
    n = sum(m.n_elements for m in patches)
    layout = draw(st.sampled_from(["run", "scattered", "regions"]))
    if layout == "run":
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
        labels, moved = np.zeros(n, dtype=int), {1}
        labels[lo:hi] = 1
    elif layout == "scattered":
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
        moved = {1}
    else:
        labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                        max_size=n)))
        moved = {0, 2}
    before = {f"r{v}": draw(material_entry(dim)) for v in range(3)}
    after = dict(before, **{f"r{v}": draw(material_entry(dim))
                            for v in sorted(moved)})
    if domain == "atlas":
        half = patches[0].n_elements
        a, b = retagged(patches[0], labels[:half]), \
            retagged(patches[1], labels[half:])
        domain = Atlas([AtlasRegion("a", geo.Identity(2), a),
                        AtlasRegion("b", geo.translation([-1.0, 0.0]), b)],
                       interfaces=[(("a", "b"), ("right", "left"))])
    else:
        domain = retagged(patches[0], labels)
    specs = [fem.BVPSpec(domain, tp.Triplet(
        geo.Identity(dim), geo.MetricField.euclidean(dim),
        tp.MaterialField(dim, regions=materials)),
        (("left", 0.0), ("right", 1.0))) for materials in (before, after)]
    return (*specs, np.flatnonzero(np.isin(labels, sorted(moved))))


def bits(a):
    return np.asarray(a).view(np.uint64)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=moving_problem())
def test_an_update_of_any_element_set_equals_a_fresh_assembly(problem):
    spec, moved, ids = problem
    system = fem.assemble(spec)
    assert system._skew is None  # a whole build keeps no skew part
    old = system.full_matrix.data.copy()
    changed = fem.update_elements(system, moved.triplet, ids)
    fresh = fem.assemble(moved)
    for got, want in ((system.full_matrix, fresh.full_matrix),
                      (system.matrix, fresh.matrix)):
        for field in ("indices", "indptr"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(bits(got.data), bits(want.data))
    assert np.array_equal(bits(system.rhs), bits(fresh.rhs))
    new = system.full_matrix.data
    assert changed == np.count_nonzero(new != old)
    # the rows no element of the set touches keep their bits
    full = system.full_matrix
    row = np.repeat(np.arange(system.n_dofs), np.diff(full.indptr))
    still = ~np.isin(row, system.element_dofs[ids])
    assert np.array_equal(bits(new[still]), bits(old[still]))
    # the skew part a partial update keeps, and the next one patches, is
    # the whole matrix's
    for triplet in (spec.triplet, moved.triplet):
        fem.update_elements(system, triplet, ids)
        vals = system.full_matrix.data
        if system._skew is not None:
            assert np.array_equal(system._skew,
                                  vals - vals[system._csr_sum.transposed])


def test_a_partial_update_patches_the_whole_matrix_skew_part():
    """An entry of a re-summed row whose transpose lies in a row the
    update leaves alone moves the skew part at both slots."""
    spec = unit_square_spec(6)
    system = fem.assemble(spec)
    dofs = system.element_dofs
    moving = [e for e in range(system.n_elements) if dofs[0, 0] in dofs[e]]
    touched = np.unique(dofs[moving])
    # an element outside the set with a node in a touched row (a) and
    # a node in an untouched one (b)
    e, a, b = next((e, a, b) for e in range(system.n_elements)
                   if e not in moving
                   for a in range(system._k) for b in range(system._k)
                   if dofs[e, a] in touched and dofs[e, b] not in touched)
    fem.update_elements(system, spec.triplet, moving)
    assert not system._skew.any()
    blocks = system.data.reshape(system.n_elements, system._k, system._k)
    blocks[e, a, b] += 1e-15  # below the symmetry tolerance
    fem.update_elements(system, spec.triplet, moving)
    vals = system.full_matrix.data
    want = vals - vals[system._csr_sum.transposed]
    assert np.count_nonzero(want) == 2
    assert np.array_equal(system._skew, want)


@pytest.mark.parametrize("corrupt", ["nan-block", "asymmetric-entry"])
def test_a_bad_buffer_entry_raises_on_the_update_that_sums_it(corrupt):
    """Blocks written behind the updates' back enter the matrices with
    the first update that re-sums a row they reach, which refuses them."""
    spec = unit_square_spec(6)
    system = fem.assemble(spec)
    blocks = system.data.reshape(system.n_elements, system._k, system._k)
    if corrupt == "nan-block":
        blocks[0] = np.nan
    else:
        blocks[0, 0, 1] += 1.0  # row of element 0's node 0 only
    dofs = system.element_dofs
    apart = [e for e in range(system.n_elements)
             if not np.isin(dofs[e], dofs[0]).any()]
    sharing = [e for e in range(1, system.n_elements)
               if dofs[0, 0] in dofs[e]]
    assert apart and sharing
    fem.update_elements(system, spec.triplet, apart)  # reaches no such row
    with pytest.raises(TripletFemError, match="asymmetry"):
        fem.update_elements(system, spec.triplet, sharing[:1])


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


# ------------------------------------ one geometry and one record per mesh


def mapped_pair_spec(dim):
    """A banded box and a spec on its image under an affine chart."""
    divisions = (6, 5) if dim == 2 else (3, 4, 2)
    m = mesh.generate_structured("box", divisions,
                                 region_bands=[("band", 1, 0.25, 0.75)])
    chart = geo.Composite([geo.Rotation(0.3) if dim == 2 else
                           geo.Rotation(0.3, [1.0, 2.0, 2.0]),
                           geo.AxisScaling([2.0, 0.5, 3.0][:dim])])
    bc = (("left", 0.0), ("right", 1.0))
    return (fem.BVPSpec(m, euclidean_triplet(dim), bc),
            fem.BVPSpec(mesh.map_mesh(m, chart), euclidean_triplet(dim, 2.0),
                        bc))


def fresh_mesh(m):
    """The same mesh from copies of its arrays: it shares nothing."""
    return mesh.Mesh(m.nodes.copy(), m.elements.copy(),
                     m.element_regions.copy(), m.boundary_facets.copy(),
                     m.facet_tags.copy())


def assert_same_matrices(a, b):
    for got, want in ((a.full_matrix, b.full_matrix), (a.matrix, b.matrix)):
        for field in ("indices", "indptr", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.array_equal(a.rhs, b.rhs)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_mesh_and_its_image_share_one_record(dim):
    base, image = mapped_pair_spec(dim)
    a, b = fem.assemble(base), fem.assemble(image)
    assert b._csr_sum is a._csr_sum
    assert (a.timings["record_reused"], b.timings["record_reused"]) == \
        (False, True)
    for arr in (a._csr_sum.pos, a._csr_sum.col, a._csr_sum.heads,
                a._csr_sum.transposed, a._csr_sum.is_free,
                *a._csr_sum.reduced[0][:3]):
        assert not arr.flags.writeable
    # freezing the record's arrays leaves each system's own alone
    assert a.free.flags.writeable and b.free.flags.writeable
    # the matrices handed out own their arrays
    for got, other in ((a.full_matrix, b.full_matrix), (a.matrix, b.matrix)):
        for field in ("indices", "indptr"):
            assert getattr(got, field).flags.writeable
            assert not np.shares_memory(getattr(got, field),
                                        getattr(other, field))
    # a mesh built again from the same arrays shares nothing, and its
    # systems carry the same bits
    for spec, system in ((base, a), (image, b)):
        alone = fem.assemble(replace(spec, domain=fresh_mesh(spec.domain)))
        assert alone._csr_sum is not a._csr_sum
        assert not alone.timings["record_reused"]
        assert_same_matrices(system, alone)


def test_the_slot_keeps_one_record_keyed_by_the_dirichlet_dofs():
    spec, _ = mapped_pair_spec(2)
    first = fem.assemble(spec)
    other = fem.assemble(replace(spec, dirichlet=(("bottom", 0.0),)))
    assert other._csr_sum is not first._csr_sum
    # the slot now holds the other record; the first set builds anew
    again = fem.assemble(replace(spec, dirichlet=(("left", 3.0),
                                                  ("right", -1.0))))
    assert again._csr_sum is not first._csr_sum
    assert not again.timings["record_reused"]
    assert_scipy_sums_the_buffer(again)
    # the same dofs under other values reuse it
    same = fem.assemble(spec)
    assert same._csr_sum is again._csr_sum
    assert_same_matrices(same, first)


def test_an_atlas_keeps_its_own_record():
    spec = two_patch_atlas_spec()
    a = fem.assemble(spec)
    b = fem.assemble(replace(spec, triplet=euclidean_triplet(2, 2.0)))
    assert b._csr_sum is a._csr_sum
    assert b.timings["record_reused"]
    assert_scipy_sums_the_buffer(b)


def kuhn_box():
    m = mesh.generate_structured("box", (3, 2, 2))
    # the generator hands Mesh the six Kuhn tets of a cell in both
    # orientations (here those of the first cell); Mesh flipped the
    # inverted ones, rows and edge matrices alike
    stride = np.array([1, 4, 12])
    raw = np.array([np.cumsum([0, *stride[list(p)]])
                    for p in mesh._KUHN_PERMS])
    assert (mesh.signed_volumes(m.nodes, raw) < 0).sum() == 3
    assert not np.array_equal(m.elements[:6], raw)
    return m


def test_gradients_from_the_stored_edges_keep_the_gathered_bits():
    boxes = [kuhn_box()]
    # and a mesh handed every other element inverted
    square = mesh.generate_structured("box", (5, 4))
    raw = square.elements.copy()
    raw[::2, -2:] = raw[::2, -1:-3:-1]
    flipped = mesh.Mesh(square.nodes, raw, square.element_regions,
                        square.boundary_facets, square.facet_tags)
    assert np.array_equal(flipped.elements, square.elements)
    boxes.append(flipped)
    for m in boxes:
        coords = m.nodes[m.elements]
        gathered = coords[:, 1:, :] - coords[:, :1, :]
        assert np.array_equal(m.edge_matrices(), gathered)
        assert not m.edge_matrices().flags.writeable
        assert np.array_equal(fem._p1_gradients(m.edge_matrices()),
                              fem._p1_gradients(gathered))


def flipped_square():
    """A 2-D box handed to Mesh with every other element inverted."""
    square = mesh.generate_structured("box", (5, 4))
    raw = square.elements.copy()
    raw[::2, -2:] = raw[::2, -1:-3:-1]
    return mesh.Mesh(square.nodes, raw, square.element_regions,
                     square.boundary_facets, square.facet_tags)


def banded_box(dim):
    return mesh.generate_structured("box", (7, 5, 4)[:dim],
                                    region_bands=[("b", 0, 0.3, 0.7)])


GEOMETRY_CASES = {
    "box2d": lambda: banded_box(2),
    "box3d": lambda: banded_box(3),
    "kuhn-flipped": kuhn_box,
    "square-flipped": flipped_square,
    "box2d-mapped": lambda: mesh.map_mesh(
        banded_box(2), geo.PolarStretch(1.2, 1.4, center=(-0.3, -0.2))),
    "box3d-mapped": lambda: mesh.map_mesh(banded_box(3), geo.Composite(
        [geo.Rotation(0.7, [0.3, -0.5, 0.8]),
         geo.AxisScaling([0.01, 3.0, 200.0])])),
}


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def entry_arrays_contiguous(stack):
    """Whether every entry array stack[:, i, j] is one contiguous row."""
    return all(stack[:, i, j].flags.c_contiguous
               for i in range(stack.shape[1]) for j in range(stack.shape[2]))


def c_ordered_gradients(edges):
    """The basis gradients as formed from C-ordered stacks: the transposed
    geometry.inv of the edge matrices, row 0 minus the sum of the rest."""
    n, d = edges.shape[:2]
    grads = np.empty((n, d + 1, d))
    grads[:, 1:, :] = np.swapaxes(geo.inv(edges), 1, 2)
    grads[:, 0, :] = -np.sum(grads[:, 1:, :], axis=1)
    return grads


@pytest.mark.parametrize("case", list(GEOMETRY_CASES))
def test_element_geometry_is_component_major_with_the_same_bits(case):
    m = GEOMETRY_CASES[case]()
    el = m.elements
    edges = m.edge_matrices()
    assert same_bits(edges, m.nodes[el[:, 1:]] - m.nodes[el[:, :1]])
    copy = np.ascontiguousarray(edges)
    assert same_bits(m.volumes(),
                     mesh._VOLUME_FACTOR[m.dim] * geo.det(copy))
    grads = fem._p1_gradients(edges)
    assert same_bits(grads, c_ordered_gradients(copy))
    assert entry_arrays_contiguous(edges)
    assert entry_arrays_contiguous(grads)
    # assembly keeps the layout, and so do an element set's gathers of
    # ids that are not one run
    tag = m.boundary_tags()[0]
    system = fem.assemble(fem.BVPSpec(m, euclidean_triplet(m.dim),
                                      ((tag, 0.0),)))
    assert same_bits(system.grads, grads)
    assert entry_arrays_contiguous(system.grads)
    ids = np.arange(0, m.n_elements, 3)
    for group in fem.ElementSet(system, ids).groups:
        assert same_bits(group.grads, grads[group.ids])
        assert entry_arrays_contiguous(group.grads)


def test_an_atlas_joins_its_patches_gradients_component_major():
    system = fem.assemble(two_patch_atlas_spec())
    parts = [fem._p1_gradients(p.mesh.edge_matrices())
             for p in system.patches]
    assert same_bits(system.grads, np.concatenate(parts))
    assert entry_arrays_contiguous(system.grads)
    assert system.element_dofs.flags.c_contiguous


def test_quadrature_points_only_for_pointwise_entries(monkeypatch):
    formed = []
    points = fem._quadrature_points

    def counted(bary, nodes, elements):
        formed.append(len(elements))
        return points(bary, nodes, elements)

    monkeypatch.setattr(fem, "_quadrature_points", counted)
    m = mesh.generate_structured("box", (6, 6),
                                 region_bands=[("band", 0, 0.5, 1.0)])
    bc = (("left", 0.0), ("right", 1.0))
    values = tp.Triplet(geo.Identity(2), geo.MetricField.euclidean(2),
                        tp.MaterialField(2, regions={"band": 2.0},
                                         default=np.diag([1.0, 3.0])))
    for quadrature in fem.QUADRATURE_NAMES:
        fem.assemble(fem.BVPSpec(m, values, bc, quadrature))
    assert formed == []
    # a pointwise entry on the band: that group alone forms its points
    pointwise = replace(values, material=values.material.with_entry(
        "band", lambda p: 1.0 + p[..., 0]))
    system = fem.assemble(fem.BVPSpec(m, pointwise, bc))
    assert formed == [m.elements_in_regions(["band"]).size]
    # and a value entry that fails is still reported at its first element
    asym = replace(values, metric=geo.MetricField(
        2, constant=np.array([[2.0, 0.4], [0.4, 1.0]])))
    with pytest.raises(AsymmetricCoefficient, match="element 0: "):
        fem.update_elements(system, asym, np.arange(system.n_elements))
    assert formed == [m.elements_in_regions(["band"]).size]


def reference_dirichlet(system):
    """The Dirichlet split by a per-node dict, earlier tag first."""
    sides = system.spec.domain.interface_sides() if system.spec.is_atlas \
        else set()
    assigned = {}
    for tag, value in system.spec.dirichlet:
        for patch in system.patches:
            if tag not in patch.mesh.boundary_tags() \
                    or (patch.region_id, tag) in sides:
                continue
            local = patch.mesh.boundary_nodes(tag)
            pts = patch.mesh.nodes[local]
            if patch.chart is not None:
                pts = patch.chart.inverse(pts)
            for node, x in zip(patch.dofs[local], pts):
                if int(node) not in assigned:
                    assigned[int(node)] = float(value(x)) \
                        if callable(value) else float(value)
    dofs = np.array(sorted(assigned), dtype=int)
    return (dofs, np.array([assigned[d] for d in dofs]),
            np.setdiff1d(np.arange(system.n_dofs), dofs))


def test_dirichlet_split_keeps_the_earlier_tag_and_calls_once_per_node():
    half = mesh.generate_structured("box", (4, 3))
    atlas = Atlas([AtlasRegion("a", geo.Identity(2), half),
                   AtlasRegion("b", geo.translation([-1.0, 0.0]), half)],
                  interfaces=[(("a", "b"), ("right", "left"))])
    calls = []

    def ramp(x):
        calls.append(tuple(x))
        return 2.0 * x[0] - x[1]

    # the corners of bottom and top belong to left or right first; bottom
    # spans both patches and meets the glued line in a shared dof
    bc = (("left", 0.5), ("bottom", ramp), ("top", -1.0), ("right", ramp))
    for domain in (atlas, half):
        calls.clear()
        system = fem.assemble(fem.BVPSpec(domain, euclidean_triplet(2), bc))
        made = list(calls)
        calls.clear()
        dofs, values, free = reference_dirichlet(system)
        # one call per node the callable assigns, in the same order
        assert made == calls
        assert system.dirichlet_dofs.dtype == dofs.dtype
        assert np.array_equal(system.dirichlet_dofs, dofs)
        assert np.array_equal(system.dirichlet_values, values)
        assert np.array_equal(system.free, free)
        assert system.free.dtype == free.dtype


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


@pytest.mark.parametrize("kind", ["none", "jacobi", "ic0"])
def test_a_system_with_no_free_dof_carries_a_solve_result(kind):
    """Once the one solution without a SolveResult (solve_info None): the
    0 x 0 system is solved like any other, with the energy unchanged."""
    spec = all_dirichlet_spec()
    sol = fem.solve_bvp(spec, slv.SolverConfig(preconditioner=kind))
    info = sol.solve_info
    assert isinstance(info, slv.SolveResult)
    assert info.iterations == 0 and info.residuals == [0.0]
    assert info.x.shape == (0,) and info.preconditioner.kind == kind
    system = fem.assemble(spec)
    assert sol.energy == system.energy_of(system.expand(np.zeros(0)))
