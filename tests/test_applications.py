"""Open-boundary shells, chart reparameterization, and motion sweeps."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import LinearNDInterpolator

from tripletfem import applications as app
from tripletfem import cli
from tripletfem import fem, geometry as geo, mesh, triplet as tp
from tripletfem.errors import (DimensionMismatch, RegionNotContained,
                               SingularJacobian, TopologyChange, UnknownTag)
from tripletfem.solver import SolverConfig, build_preconditioner, solve


def euclidean_base(dim=2, eps=1.0):
    return tp.Triplet(chart=geo.Identity(dim),
                      metric=geo.MetricField.euclidean(dim),
                      material=tp.MaterialField.uniform(eps, dim))


def dipole_bvp(divisions, grading=2.0):
    """Exterior dipole: u(1, theta) = cos(theta), u -> 0 at infinity."""
    interior = geo.Annulus((0.0, 0.0), 0.0, 1.0)
    ob = app.OpenBoundarySpec(interior=interior, a=1.0, b=2.0)

    def rim(x):
        return np.cos(np.arctan2(x[1], x[0]))

    return app.open_boundary_bvp(ob, euclidean_base(), rim,
                                 divisions=divisions, grading=grading)


def dipole_sampled_error(spec, sol, radii=(1.1, 1.5, 2.0, 3.0, 4.0)):
    # u = cos(theta)/r on circles pulled into the annulus via R = 2 - 1/r
    interp = LinearNDInterpolator(spec.domain.nodes, sol.u)
    thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    err2 = ref2 = 0.0
    for r in radii:
        R = 2.0 - 1.0 / r
        pts = np.column_stack([R * np.cos(thetas), R * np.sin(thetas)])
        exact = np.cos(thetas) / r
        err2 += float(np.sum((interp(pts) - exact) ** 2))
        ref2 += float(np.sum(exact ** 2))
    return float(np.sqrt(err2 / ref2))


# ------------------------------------------------------- open boundary


def test_shell_spec_validates_radii():
    box = geo.Box((-0.5, -0.5), (0.5, 0.5))
    with pytest.raises(ValueError):
        app.OpenBoundarySpec(interior=box, a=2.0, b=1.0)
    with pytest.raises(ValueError):
        app.OpenBoundarySpec(interior=box, a=0.0, b=1.0)
    with pytest.raises(ValueError, match="outer radius b must be finite, "
                       "got b=inf"):
        app.OpenBoundarySpec(interior=box, a=1.0, b=float("inf"))


def test_interior_region_must_fit_inside_radius_a():
    with pytest.raises(RegionNotContained):
        app.OpenBoundarySpec(interior=geo.Box((-2.0, -2.0), (2.0, 2.0)),
                             a=1.0, b=2.0)
    with pytest.raises(RegionNotContained):
        app.OpenBoundarySpec(interior=geo.Annulus((0.0, 0.0), 0.5),
                             a=1.0, b=2.0)  # unbounded annulus


def test_shell_center_must_have_the_interior_dimension():
    with pytest.raises(DimensionMismatch, match="has 3 coordinates, but "
                                                "the 2-d interior needs 2"):
        app.OpenBoundarySpec(interior=geo.Annulus((0.0, 0.0), 0.0, 1.0),
                             a=1.0, b=2.0, center=(0.0, 0.0, 0.0))
    with pytest.raises(DimensionMismatch, match="has 2 coordinates, but "
                                                "the 3-d interior needs 3"):
        app.OpenBoundarySpec(interior=geo.Box((0, 0, 0), (0.5, 0.5, 0.5)),
                             a=1.0, b=2.0, center=(0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shell_center_must_be_finite(bad):
    # it was taken, and the containment check failed "about [nan, 0.0]"
    with pytest.raises(ValueError, match=r"center must be finite, got \[") \
            as err:
        app.OpenBoundarySpec(interior=geo.Box((-0.5, -0.5), (0.5, 0.5)),
                             a=1.0, b=2.0, center=(bad, 0.0))
    assert not isinstance(err.value, RegionNotContained)


def test_shell_interior_is_a_box_or_an_annulus():
    with pytest.raises(TypeError, match="Box or an Annulus"):
        app.OpenBoundarySpec(interior=geo.Identity(2), a=1.0, b=2.0)


def test_shell_chart_sends_r4_to_1p75():
    ob = app.OpenBoundarySpec(interior=geo.Annulus((0.0, 0.0), 0.0, 1.0),
                              a=1.0, b=2.0)
    tri = app.open_boundary_triplet(euclidean_base(), ob)
    mapped = tri.chart.forward(np.array([[4.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(mapped, [[1.75, 0.0], [0.0, 1.75]], atol=1e-14)
    inside = tri.chart.forward(np.array([[0.5, -0.25]]))
    assert np.allclose(inside, [[0.5, -0.25]], atol=1e-14)


def test_interior_material_unchanged_exterior_pulled_through():
    ob = app.OpenBoundarySpec(interior=geo.Annulus((0.0, 0.0), 0.0, 1.0),
                              a=1.0, b=2.0)
    tri = app.open_boundary_triplet(euclidean_base(eps=3.0), ob)
    inside = tri.material.eval(np.array([[0.5, 0.0]]))
    assert np.allclose(inside[0], 3.0 * np.eye(2), atol=1e-14)
    # R = 1.5 is the image of r = 2, where J = diag(1/4, 3/4) and
    # |det J| = 3/16, so eps' = J (3 I) J^T / |det J| = diag(1, 9)
    outside = tri.material.eval(np.array([[1.5, 0.0]]))
    assert np.allclose(outside[0], np.diag([1.0, 9.0]), atol=1e-12)


def test_non_euclidean_exterior_metric_rejected():
    ob = app.OpenBoundarySpec(interior=geo.Annulus((0.0, 0.0), 0.0, 1.0),
                              a=1.0, b=2.0)
    base = tp.Triplet(chart=geo.Identity(2),
                      metric=geo.MetricField(2, constant=2.0 * np.eye(2)),
                      material=tp.MaterialField.uniform(1.0, 2))
    with pytest.raises(ValueError, match="Euclidean"):
        app.open_boundary_triplet(base, ob)


def test_the_grounded_circle_is_the_outer_one():
    """The circle held at 0, infinity's image, is the annulus' outer
    circle under the generator's own tag."""
    spec = dipole_bvp((12, 4))
    m = spec.domain
    assert set(m.facet_tags) == {"inner", "outer"}
    assert dict(spec.dirichlet)["outer"] == 0.0
    radius = np.linalg.norm(m.nodes[m.boundary_nodes("outer")], axis=1)
    assert np.allclose(radius, 2.0)


def test_open_boundary_mesh_is_built_once(monkeypatch):
    built = []
    init = mesh.Mesh.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mesh.Mesh, "__init__", counting)
    dipole_bvp((12, 4))
    assert len(built) == 1


def test_dipole_matches_analytic_solution():
    spec = dipole_bvp((80, 32))
    sol = fem.solve_bvp(spec)
    assert dipole_sampled_error(spec, sol) < 0.02


def test_dipole_error_drops_under_refinement():
    coarse = dipole_bvp((40, 16))
    fine = dipole_bvp((80, 32))
    e1 = dipole_sampled_error(coarse, fem.solve_bvp(coarse))
    e2 = dipole_sampled_error(fine, fem.solve_bvp(fine))
    assert e1 / e2 >= 2.0


# -------------------------------------------------------- reparameterize


def square_spec(n=8, eps=1.0):
    m = mesh.generate_structured("box", (n, n))
    return fem.BVPSpec(domain=m, triplet=euclidean_base(eps=eps),
                       dirichlet=(("left", 0.0), ("right", 1.0)))


def test_identity_reparameterization_is_a_noop():
    spec = square_spec()
    other = app.reparameterize_fixed_metric(spec, geo.Identity(2))
    assert np.array_equal(other.domain.nodes, spec.domain.nodes)
    a = fem.assemble(spec)
    b = fem.assemble(other)
    assert fem.compare_matrices(a.full_matrix, b.full_matrix).rel_frobenius \
        <= 1e-15


def test_rotation_spins_mesh_but_not_the_answer():
    spec = square_spec()
    g = geo.Rotation(0.5)
    other = app.reparameterize_fixed_metric(spec, g)
    assert np.allclose(other.domain.nodes, g.forward(spec.domain.nodes),
                       atol=1e-15)
    u0 = fem.solve_bvp(spec)
    u1 = fem.solve_bvp(other)
    assert np.abs(u0.u - u1.u).max() <= 1e-12
    assert abs(u0.energy - u1.energy) <= 1e-12 * abs(u0.energy)


def test_axis_scaling_dual_solve_fields_and_energy_match():
    # elongated strip squeezed into the unit square by g
    m = mesh.generate_structured("box", (16, 4),
                                 bounds=((0.0, 0.0), (1000.0, 1.0)))
    spec = fem.BVPSpec(domain=m, triplet=euclidean_base(),
                       dirichlet=(("left", 0.0), ("right", 1.0)))
    g = geo.AxisScaling((1e-3, 1.0))
    other = app.reparameterize_fixed_metric(spec, g)

    sol_f = fem.solve_bvp(spec)
    sol_g = fem.solve_bvp(other)
    assert abs(sol_f.energy - sol_g.energy) <= 1e-8 * abs(sol_f.energy)

    # fields transform back with E_f = S_f^-1 J^T S_g E_g; both Euclidean
    J = g.jacobian(np.zeros(2))
    eye = np.eye(2)
    back = tp.transform_field(sol_g.fields, eye, eye, J)
    scale = np.abs(sol_f.fields).max()
    assert np.abs(back - sol_f.fields).max() <= 1e-8 * scale

    # node identity preserved, so extrema live at the same node index
    assert np.argmax(sol_f.u) == np.argmax(sol_g.u)


def test_callable_boundary_values_keep_their_numbers():
    m = mesh.generate_structured("box", (6, 6))
    spec = fem.BVPSpec(domain=m, triplet=euclidean_base(),
                       dirichlet=(("left", lambda x: x[1] ** 2),
                                  ("right", 1.0)))
    other = app.reparameterize_fixed_metric(spec, geo.AxisScaling((2.0, 3.0)))
    a = fem.assemble(spec)
    b = fem.assemble(other)
    assert np.array_equal(a.dirichlet_dofs, b.dirichlet_dofs)
    assert np.allclose(a.dirichlet_values, b.dirichlet_values, atol=1e-14)


def test_a_material_default_meets_the_metric_of_the_region_it_covers():
    # the material's default covers "domain", where the metric has an
    # entry of its own: the pull-back must use that entry, not I
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    m = mesh.generate_structured("box", (6, 6),
                                 region_bands=[("gap", 1, 0.5, 1.0)])
    triplet = tp.Triplet(
        geo.Identity(2),
        geo.MetricField.by_region(2, {"domain": S}, default=np.eye(2)),
        tp.MaterialField(2, regions={"gap": 1.0}, default=2.0))
    spec = fem.BVPSpec(m, triplet, (("bottom", 0.0), ("top", 1.0)))
    g = geo.Composite([geo.Rotation(0.3), geo.AxisScaling((2.0, 0.5))])
    pushed = app.reparameterize_fixed_metric(spec, g)
    report = fem.compare_matrices(fem.assemble(spec).full_matrix,
                                  fem.assemble(pushed).full_matrix)
    assert report.rel_frobenius <= 1e-12


def test_reparameterize_rejects_atlas_problems():
    from tripletfem.atlas import Atlas, AtlasRegion

    half = mesh.generate_structured("box", (3, 3))
    atlas = Atlas([AtlasRegion("a", geo.Identity(2), half),
                   AtlasRegion("b", geo.translation([-1.0, 0.0]), half)],
                  interfaces=[(("a", "b"), ("right", "left"))])
    spec = fem.BVPSpec(atlas, euclidean_base(),
                       (("left", 0.0), ("right", 1.0)))
    with pytest.raises(TypeError):
        app.reparameterize_fixed_metric(spec, geo.Identity(2))


# ------------------------------------------------------------ motion sweep


def capacitor_spec(n=16, tol=1e-12):
    """Plate at y=0 grounded, plate at the top driven; gap above y = 0.5.

    Natural side walls keep the field parallel to x = const for every
    stretch of the gap, so W = 1/d holds exactly in P1.
    """
    m = mesh.generate_structured("box", (n, n),
                                 region_bands=[("gap", 1, 0.5, 1.0)])
    return fem.BVPSpec(domain=m, triplet=euclidean_base(),
                       dirichlet=(("bottom", 0.0), ("top", 1.0)))


def gap_stretch(s):
    """Identity below y = 0.5; the band above stretches by the factor s."""
    return geo.AxisPiecewiseLinear(axis=1, breaks=(0.0, 0.5, 1.0),
                                   images=(0.0, 0.5, 0.5 + 0.5 * s))


def test_all_identity_steps_change_nothing():
    spec = capacitor_spec(8)
    ms = app.MotionSweep(base=spec, moving_region="gap",
                         steps=[geo.Identity(2)] * 3)
    results = app.motion_sweep(ms)
    assert [r.changed_entries for r in results] == [0, 0, 0]
    energies = [r.energy for r in results]
    assert energies[1] == energies[0] and energies[2] == energies[0]
    fresh = fem.assemble(spec)
    final = results[-1].solution.system
    assert np.array_equal(final.full_matrix.data, fresh.full_matrix.data)
    assert np.array_equal(final.full_matrix.indices,
                          fresh.full_matrix.indices)


def test_a_step_that_changes_nothing_reuses_the_last_solution():
    ms = app.MotionSweep(base=capacitor_spec(8), moving_region="gap",
                         steps=[gap_stretch(1.5), gap_stretch(1.5),
                                gap_stretch(2.0)])
    first, again, moved = app.motion_sweep(ms)
    assert again.changed_entries == 0 and again.iterations == 0
    assert again.solution.u is first.solution.u
    assert again.energy == first.energy
    info = again.solution.solve_info
    assert info.iterations == 0
    assert info.residuals == [first.solution.solve_info.residual]
    assert info.timings == {"preconditioner": 0.0, "cg": 0.0}
    assert first.solution.solve_info.timings["cg"] > 0.0
    assert again.solution.triplet is not first.solution.triplet
    assert moved.changed_entries > 0 and moved.energy < again.energy


def test_sweeps_on_one_mesh_share_its_record(capsys):
    ms = app.MotionSweep(base=capacitor_spec(8), moving_region="gap",
                         steps=[gap_stretch(1.5), gap_stretch(2.0)])
    first, again = app.motion_sweep(ms), app.motion_sweep(ms)
    a, b = first[0].solution.system, again[0].solution.system
    assert a is not b and b._csr_sum is a._csr_sum
    assert (a.timings["record_reused"], b.timings["record_reused"]) == \
        (False, True)
    assert [r.energy for r in again] == [r.energy for r in first]
    assert [r.iterations for r in again] == [r.iterations for r in first]
    assert capsys.readouterr() == ("", "")  # the library prints nothing


def test_each_step_carries_its_phase_timings(capsys):
    ms = app.MotionSweep(base=capacitor_spec(8), moving_region="gap",
                         steps=[gap_stretch(1.5), gap_stretch(1.5),
                                gap_stretch(2.0)])
    results = app.motion_sweep(ms)
    for r in results:
        assert list(r.timings) == ["update", "guess", "solve", "topology",
                                   "coefficients", "blocks", "rebuild"]
        assert all(t >= 0.0 for t in r.timings.values())
        # update's parts are timed inside its own clock, and the phases
        # make up the wall time
        assert sum(r.timings[k] for k in ("topology", "coefficients",
                                          "blocks", "rebuild")) \
            <= r.timings["update"]
        assert r.timings["update"] + r.timings["guess"] \
            + r.timings["solve"] <= r.wall_time * (1 + 1e-12)
        assert r.timings["coefficients"] > 0.0 and r.timings["rebuild"] > 0.0
    # the step that changes nothing takes no guess
    assert results[1].timings["guess"] == 0.0
    assert capsys.readouterr() == ("", "")  # the library prints nothing


def test_metric_and_material_modes_build_the_same_matrix():
    spec = capacitor_spec(8)
    steps = [gap_stretch(2.0)]
    mats = {}
    for mode in ("metric-change", "material-change"):
        ms = app.MotionSweep(base=spec, moving_region="gap", steps=steps,
                             mode=mode)
        results = app.motion_sweep(ms)
        mats[mode] = results[-1].solution.system.full_matrix.copy()
    report = fem.compare_matrices(mats["metric-change"],
                                  mats["material-change"])
    assert report.rel_frobenius <= 1e-12


def gap_quadrature_points(spec):
    m = spec.domain
    coords = m.nodes[m.elements[m.elements_in_regions(["gap"])]]
    bary, _ = fem.quadrature_rule("interior", 2)
    return bary @ coords  # (E, Q, 2)


@pytest.mark.parametrize("mode", ["metric-change", "material-change"])
def test_step_with_one_jacobian_on_the_gap_gives_one_coefficient(mode):
    # the stretch is not affine, but its Jacobian is one matrix on the gap
    spec = capacitor_spec(8)
    step = gap_stretch(1.7)
    tri = app._step_triplet(spec.triplet, "gap", step, mode, 2)
    xq = gap_quadrature_points(spec)
    K = tri.effective_at(xq, "gap")
    assert K.shape == xq.shape[:2] + (2, 2)
    assert K.strides[:2] == (0, 0)
    assert np.allclose(K[0, 0], np.diag([1.7, 1.0 / 1.7]),
                       rtol=1e-14, atol=0.0)

    # a break inside the gap: two Jacobians there, so K stays pointwise
    kinked = geo.AxisPiecewiseLinear(axis=1, breaks=(0.0, 0.75, 1.0),
                                     images=(0.0, 0.75, 1.5))
    K = app._step_triplet(spec.triplet, "gap", kinked, mode,
                          2).effective_at(xq, "gap")
    assert K.strides[0] != 0


def test_capacitor_energy_tracks_one_over_d():
    spec = capacitor_spec(16)
    gaps = [1.0, 1.25, 1.5, 2.0]          # total plate separation
    steps = [gap_stretch(2.0 * d - 1.0) for d in gaps]
    ms = app.MotionSweep(base=spec, moving_region="gap", steps=steps)
    results = app.motion_sweep(ms)
    for d, r in zip(gaps, results):
        assert abs(r.energy * d - 1.0) <= 0.01


def test_partial_reassembly_equals_full_reassembly():
    from dataclasses import replace

    spec = capacitor_spec(8)
    step = gap_stretch(2.0)
    ms = app.MotionSweep(base=spec, moving_region="gap", steps=[step])
    results = app.motion_sweep(ms)
    swept = results[-1].solution.system

    stepped = replace(spec, triplet=app._step_triplet(
        spec.triplet, "gap", step, "metric-change", 2))
    fresh = fem.assemble(stepped)
    assert np.array_equal(swept.full_matrix.data, fresh.full_matrix.data)
    assert np.array_equal(swept.full_matrix.indices,
                          fresh.full_matrix.indices)
    assert np.array_equal(swept.full_matrix.indptr, fresh.full_matrix.indptr)


@pytest.mark.parametrize("mode", ["metric-change", "material-change"])
@pytest.mark.parametrize("step", [
    geo.Affine(np.array([[1.0, 0.3], [0.1, 1.2]])),
    gap_stretch(2.0),
    geo.PolarStretch(1.2, 1.4, center=(-0.3, -0.2)),  # center off the gap
], ids=["affine", "axis-piecewise-linear", "polar-stretch"])
def test_auto_assembly_under_a_step_triplet_is_the_sweep(step, mode):
    # the system is assembled under the base triplet, then updated to the
    # step's; assembly decides each group's rule from the K it measures,
    # so a fresh assembly under the step's triplet decides the same
    spec = capacitor_spec(8)
    result = app.motion_sweep(app.MotionSweep(
        base=spec, moving_region="gap", steps=[step], mode=mode))[-1]
    swept = result.solution.system.full_matrix
    fresh = fem.assemble(replace(spec, triplet=result.solution.triplet))
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(swept, name),
                              getattr(fresh.full_matrix, name))


def test_changed_entries_are_the_pairs_sharing_a_moving_element():
    spec = capacitor_spec(8)
    # generic affine step so no block entry change cancels by accident
    step = geo.Affine(np.array([[1.0, 0.3], [0.1, 1.2]]))
    ms = app.MotionSweep(base=spec, moving_region="gap", steps=[step])
    results = app.motion_sweep(ms)

    system = results[-1].solution.system
    moving = spec.domain.elements_in_regions(["gap"])
    pairs = set()
    for e in moving:
        dofs = system.element_dofs[e]
        for a in dofs:
            for b in dofs:
                pairs.add((int(a), int(b)))
    assert results[-1].changed_entries == len(pairs)


class _FoldTop:
    """Stub map: reflects everything above y = 0.75 back down."""

    def is_identity(self):
        return False

    def forward(self, points):
        p = np.asarray(points, dtype=float).copy()
        high = p[..., 1] > 0.75
        p[..., 1] = np.where(high, 1.5 - p[..., 1], p[..., 1])
        return p

    def jacobian(self, points):
        p = np.asarray(points, dtype=float)
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = np.where(p[..., 1] > 0.75, -1.0, 1.0)
        return out


def test_fold_raises_topology_change():
    # the built-in chart families refuse to construct folding maps, so a
    # hand-rolled deformation stands in for a user-supplied bad step
    spec = capacitor_spec(8)
    ms = app.MotionSweep(base=spec, moving_region="gap",
                         steps=[geo.Identity(2), _FoldTop()])
    with pytest.raises(TopologyChange, match="step 1"):
        app.motion_sweep(ms)


def test_a_fold_reports_the_count_of_folded_elements():
    spec = capacitor_spec(8)
    m = spec.domain
    # every moving element's corners mapped one by one, LAPACK's signs
    moving = m.elements[m.elements_in_regions(["gap"])]
    corners = _FoldTop().forward(m.nodes[moving].reshape(-1, 2))
    corners = corners.reshape(moving.shape + (2,))
    folded = int(np.sum(np.linalg.det(corners[:, 1:] - corners[:, :1]) <= 0))
    assert folded > 0
    ms = app.MotionSweep(base=spec, moving_region="gap",
                         steps=[geo.Identity(2), _FoldTop()])
    with pytest.raises(TopologyChange) as err:
        app.motion_sweep(ms)
    assert str(err.value) == (
        f"step 1: the deformation folds or collapses {folded} element(s) "
        "of the moving region")


class _FlattenY:
    """Stub map: moves nothing but reports a rank-deficient Jacobian."""

    def is_identity(self):
        return False

    def forward(self, points):
        return np.asarray(points, dtype=float).copy()

    def jacobian(self, points):
        p = np.asarray(points, dtype=float)
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        return out


def test_moving_region_needs_a_euclidean_metric():
    spec = capacitor_spec(8)
    bent = replace(spec, triplet=replace(spec.triplet, metric=(
        geo.MetricField.by_region(2, {"gap": np.diag([2.0, 1.0])},
                                  default=np.eye(2)))))
    with pytest.raises(ValueError, match="must carry a Euclidean metric"):
        app.MotionSweep(base=bent, moving_region="gap",
                        steps=[geo.Identity(2)])
    # only the moving region's entry is read
    other = replace(spec, triplet=replace(spec.triplet, metric=(
        geo.MetricField.by_region(2, {"gap": np.eye(2)},
                                  default=np.diag([2.0, 1.0])))))
    app.MotionSweep(base=other, moving_region="gap", steps=[geo.Identity(2)])


def test_singular_step_names_the_step():
    spec = capacitor_spec(8)
    ms = app.MotionSweep(base=spec, moving_region="gap",
                         steps=[geo.Identity(2), _FlattenY()])
    with pytest.raises(SingularJacobian, match="step 1"):
        app.motion_sweep(ms)


def test_sweep_fields_use_the_metric_of_their_own_step():
    spec = capacitor_spec(8)
    steps = [gap_stretch(s) for s in (1.5, 2.0, 3.0)]
    results = app.motion_sweep(app.MotionSweep(
        base=spec, moving_region="gap", steps=steps))
    first = app.motion_sweep(app.MotionSweep(
        base=spec, moving_region="gap", steps=steps[:1]))[0].solution
    at_step_0 = first.fields  # read before any later step runs
    sol = results[0].solution
    assert np.array_equal(sol.u, first.u)
    assert np.array_equal(sol.fields, at_step_0)
    # the shared system has moved on to the last step's metric
    stale = fem._all_element_fields(sol.u, sol.system, sol.system.triplet)
    assert not np.array_equal(stale, at_step_0)


def banded_metric_spec():
    """The capacitor with a by-region metric: S on the unmoved domain, I
    on the gap, and a scalar material so eps S^-1 stays symmetric."""
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    metric = geo.MetricField.by_region(2, {"domain": S}, default=np.eye(2))
    spec = capacitor_spec(8)
    return replace(spec, triplet=replace(spec.triplet, metric=metric))


@pytest.mark.parametrize("mode", ["metric-change", "material-change"])
def test_step_triplet_keeps_the_unmoved_regions_of_the_base(mode):
    spec = banded_metric_spec()
    steps = [geo.Identity(2), gap_stretch(1.5), geo.AxisScaling((1.0, 1.0))]
    for k in range(len(steps)):
        results = app.motion_sweep(app.MotionSweep(
            base=spec, moving_region="gap", steps=steps[:k + 1], mode=mode))
        swept = results[-1].solution.system.full_matrix
        fresh = fem.assemble(replace(
            spec, triplet=results[-1].solution.triplet)).full_matrix
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(swept, name), getattr(fresh, name))
    # the unit scaling moves nothing: the domain's fields are step 0's
    domain = spec.domain.elements_in_regions(["domain"])
    fields = [r.solution.fields[domain] for r in results]
    assert np.allclose(fields[2], fields[0], rtol=0.0, atol=1e-9)


def test_warm_start_saves_iterations():
    # incomplete Cholesky matters here: the step-to-step increment is a
    # smooth low-mode vector, the direction Jacobi-CG converges on worst
    spec = capacitor_spec(32)
    steps = [gap_stretch(s) for s in (1.0, 1.004, 1.008, 1.012)]
    ms = app.MotionSweep(base=spec, moving_region="gap", steps=steps)
    results = app.motion_sweep(
        ms, config=SolverConfig(tol=1e-7, preconditioner="ic0"),
        measure_cold=True)
    for r in results[1:]:
        assert r.iterations < r.cold_iterations


def test_projected_start_beats_the_previous_solution():
    # a dielectric slab under a non-uniform top plate: the potentials of
    # successive gaps do not share a two-dimensional span, so the guess
    # must earn its saving step by step
    m = mesh.generate_structured("box", (32, 32),
                                 region_bands=[("slab", 1, 0.0, 0.25),
                                               ("gap", 1, 0.5, 1.0)])
    triplet = tp.Triplet(chart=geo.Identity(2),
                         metric=geo.MetricField.euclidean(2),
                         material=tp.MaterialField(2, regions={"slab": 4.0},
                                                   default=1.0))
    spec = fem.BVPSpec(domain=m, triplet=triplet, dirichlet=(
        ("bottom", 0.0),
        ("top", lambda x: 1.0 + 0.5 * np.sin(np.pi * x[0]))))
    steps = [gap_stretch(s) for s in np.linspace(1.0, 2.0, 10)]
    results = app.motion_sweep(
        app.MotionSweep(base=spec, moving_region="gap", steps=steps))

    # the same sweep, each solve started from the previous solution
    system = fem.assemble(spec)
    moving = fem.ElementSet(system, m.elements_in_regions(["gap"]))
    cfg = SolverConfig()
    precond, prev, warm = None, None, []
    for step_map, r in zip(steps, results):
        fem.update_elements(system, app._step_triplet(
            spec.triplet, "gap", step_map, "metric-change", 2),
            moving)
        precond = precond or build_preconditioner(system.matrix, "jacobi")
        res = solve(system.matrix, system.rhs, cfg, x0=prev,
                    preconditioner=precond)
        prev = res.x
        warm.append(res.iterations)
        assert r.energy == pytest.approx(system.energy_of(
            system.expand(res.x)), rel=1e-8)
    assert all(r.iterations > 0 for r in results[2:])
    assert sum(r.iterations for r in results) < sum(warm)


def test_motion_sweep_validates_its_inputs():
    spec = capacitor_spec(8)
    with pytest.raises(ValueError, match="mode"):
        app.MotionSweep(base=spec, moving_region="gap",
                        steps=[geo.Identity(2)], mode="teleport")
    with pytest.raises(UnknownTag):
        app.MotionSweep(base=spec, moving_region="rotor",
                        steps=[geo.Identity(2)])
    with pytest.raises(TypeError):
        app.MotionSweep(base="not a spec", moving_region="gap", steps=[])
    warped = fem.BVPSpec(
        domain=spec.domain,
        triplet=tp.Triplet(chart=geo.Identity(2),
                           metric=geo.MetricField(2,
                                                  constant=2.0 * np.eye(2)),
                           material=tp.MaterialField.uniform(1.0, 2)),
        dirichlet=spec.dirichlet)
    with pytest.raises(ValueError, match="Euclidean"):
        app.MotionSweep(base=warped, moving_region="gap",
                        steps=[geo.Identity(2)])


def test_sweep_csv_format(tmp_path):
    spec = capacitor_spec(8)
    ms = app.MotionSweep(base=spec, moving_region="gap",
                         steps=[gap_stretch(s) for s in (1.0, 1.5)])
    results = app.motion_sweep(ms)
    path = tmp_path / "sweep.csv"
    app.write_sweep_csv(path, results)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,energy,iterations,changed_entries,wall_time"
    assert len(lines) == 3
    for r, line in zip(results, lines[1:]):
        step, energy, iters, changed, wall = line.split(",")
        assert int(step) == r.step
        assert float(energy) == r.energy  # 17 digits survive the round trip
        assert int(iters) == r.iterations
        assert int(changed) == r.changed_entries
        assert float(wall) == 0.0


def cli_capacitor_sweep(tmp_path, vtk_pattern):
    """A CLI motion scenario of capacitor_spec(8) swept by [Identity,
    gap_stretch(1.5)], writing per-step VTK files to vtk_pattern."""
    steps = [{"kind": "identity"},
             {"kind": "axis-piecewise-linear", "axis": 1,
              "breaks": [0.0, 0.5, 1.0], "images": [0.0, 0.5, 1.25]}]
    scn = {"name": "cap", "dimension": 2, "mode": "motion",
           "mesh": {"generator": {"shape": "box", "divisions": [8, 8],
                                  "region_bands": [["gap", 1, 0.5, 1.0]]}},
           "boundary": [{"tag": "bottom", "value": 0.0},
                        {"tag": "top", "value": 1.0}],
           "motion": {"moving_region": "gap", "steps": steps},
           "outputs": {"vtk": vtk_pattern}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn))
    return str(path)


def test_sweep_writes_per_step_vtk(tmp_path, capsys):
    # the sweep names the step files; the CLI's output table writes them
    ms = app.MotionSweep(base=capacitor_spec(8), moving_region="gap",
                         steps=[geo.Identity(2), gap_stretch(1.5)])
    assert ms.step_paths(str(tmp_path / "cap_{step}.vtk")) == [
        str(tmp_path / "cap_0.vtk"), str(tmp_path / "cap_1.vtk")]
    path = cli_capacitor_sweep(tmp_path, "cap_{step}.vtk")
    assert cli.main(["motion", path]) == 0
    assert (tmp_path / "cap_0.vtk").exists()
    assert (tmp_path / "cap_1.vtk").exists()


@pytest.mark.parametrize("pattern, why", [
    ("m{step}{oops}.vtk", "KeyError"),
    ("m{step}{0}.vtk", "IndexError"),
    ("m{step}{.vtk", "ValueError"),
    ("m.vtk", "gives two steps one name"),
])
def test_a_bad_vtk_pattern_fails_before_step_0(tmp_path, monkeypatch, capsys,
                                               pattern, why):
    # the first three once failed after step 0's solve, the last wrote
    # every step over one file
    ms = app.MotionSweep(base=capacitor_spec(4), moving_region="gap",
                         steps=[geo.Identity(2), gap_stretch(1.5)])
    full = str(tmp_path / pattern)
    with pytest.raises(ValueError) as err:
        ms.step_paths(full)
    assert repr(full) in str(err.value) and why in str(err.value)

    def no_assembly(spec):
        raise AssertionError("the sweep assembled before the check")

    monkeypatch.setattr(fem, "assemble", no_assembly)
    path = cli_capacitor_sweep(tmp_path, pattern)
    assert cli.main(["motion", path]) == 2
    error = json.loads(Path(path + ".report.json").read_text())["error"]
    assert error["field"] == "outputs.vtk"
    assert repr(pattern) in error["message"] and why in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "scenario.json", "scenario.json.report.json"]
