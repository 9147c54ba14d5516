"""The material pull-back: one function for every change of chart.

The references below are the four pointwise transforms that triplet.pull_back
replaced (the open-boundary shell, the scenario's `pullback` entry, the
reparameterization evaluator and the atlas branch of assembly). They are kept
here as test oracles only, and the new function must reproduce their bits.
The property test checks the algebra itself: pulling back through g and then
h equals one pull-back through their composite.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripletfem import applications as app, cli, fem
from tripletfem import geometry as geo, mesh, triplet as tp
from tripletfem.atlas import Atlas, AtlasRegion

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def interior_points(m):
    """The interior quadrature points of every element, shape (E, Q, d)."""
    bary, _ = fem.quadrature_rule("interior", m.dim)
    return np.einsum("qa,ead->eqd", bary, m.nodes[m.elements])


def euclidean(dim):
    return geo.MetricField.euclidean(dim)


# ---------------------------------------------------------------- oracles


def shellify_reference(entry, shell, center, a, dim):
    """Material on the folded shell: the entry itself inside radius a,
    its Euclidean transform through the shell map outside."""
    inner_cut = a * (1.0 + 1e-12)

    def fn(points):
        p = np.asarray(points, dtype=float)
        lead = p.shape[:-1]
        flat = p.reshape(-1, dim)
        R = np.linalg.norm(flat - center, axis=-1)
        out = np.empty((flat.shape[0], dim, dim))
        inside = R <= inner_cut
        if inside.any():
            out[inside] = tp.eval_entry(entry, flat[inside], dim)
        if (~inside).any():
            physical = shell.inverse(flat[~inside])
            J = shell.jacobian(physical)
            eps_f = tp.eval_entry(entry, physical, dim)
            out[~inside] = tp.transform_material_euclidean(eps_f, J)
        return out.reshape(lead + (dim, dim))
    return fn


def pullback_entry_reference(base_value, chart, dim):
    """A scenario's {"pullback": value} entry re-expressed in the chart."""
    base = tp.material_matrix(np.asarray(base_value, dtype=float), dim)

    def fn(points):
        p = np.asarray(points, dtype=float)
        lead = p.shape[:-1]
        flat = p.reshape(-1, dim)
        x = chart.inverse(flat)
        J = chart.jacobian(x)
        eps = np.broadcast_to(base, (flat.shape[0], dim, dim))
        out = tp.transform_material_euclidean(eps, J)
        return out.reshape(lead + (dim, dim))
    return fn


def reparameterized_reference(entry, tag, g, metric, dim):
    """A material pushed through g with the target metric Euclidean."""
    eye = np.eye(dim)

    def fn(points):
        p = np.asarray(points, dtype=float)
        x = g.inverse(p)
        J = g.jacobian(x)
        eps = tp.eval_entry(entry, x, dim)
        S = metric.eval(x, tag)
        return tp.transform_material(eps, S, eye, J)
    return fn


def atlas_reference(triplet, chart, patch_metric, tag, points):
    """(material, coefficient) of the triplet in an atlas patch."""
    universal = chart.inverse(points)
    J = chart.jacobian(universal)
    eps_u = triplet.material.eval(universal, tag)
    S_u = triplet.metric.eval(universal, tag)
    S_p = patch_metric.eval(points, tag)
    eps_p = tp.transform_material(eps_u, S_u, S_p, J)
    return eps_p, tp.effective_coefficient(eps_p, S_p)


# ------------------------------------------------------- bits vs. oracles


def graded_x(p):
    """A callable, anisotropic, symmetric material entry."""
    x = p[..., 0, None, None]
    return np.array([[2.0, 0.3], [0.3, 1.0]]) * (1.0 + 0.1 * x)


@pytest.mark.parametrize("entry", [1.0, np.array([[2.0, 0.3], [0.3, 1.0]]),
                                   graded_x],
                         ids=["scalar", "matrix", "callable"])
def test_fold_matches_shellify_on_the_open_boundary_annulus(entry):
    ob = app.OpenBoundarySpec(interior=geo.Annulus((0.0, 0.0), 0.0, 1.0),
                              a=1.0, b=2.0)
    spec = app.open_boundary_bvp(ob, tp.Triplet(
        geo.Identity(2), euclidean(2), tp.MaterialField.uniform(entry, 2)),
        0.0, divisions=(256, 96), grading=2.0)
    folded = geo.KelvinShell(1.0, 2.0, center=ob.center, dim=2)
    points = interior_points(spec.domain)
    assert points.shape == (49152, 3, 2)
    ref = shellify_reference(entry, folded, ob.center, 1.0, 2)(points)
    new = tp.pull_back(entry, folded, euclidean(2), euclidean(2))(points)
    assert np.array_equal(ref, new)
    assert np.array_equal(spec.triplet.material.eval(points, "exterior"), ref)
    # inside radius a the fold is the identity and the entry comes back as is
    inside = np.array([[0.3, -0.2], [0.0, 0.99]])
    assert np.array_equal(
        tp.pull_back(entry, folded, euclidean(2), euclidean(2))(inside),
        tp.eval_entry(entry, inside, 2))


def test_pullback_entry_matches_on_the_distorted_equivalence_chart():
    scn = json.loads((DEMOS / "distorted_equivalence.json").read_text())
    chart = cli.build_chart(scn["triplets"][1]["chart"], 2)
    m = mesh.map_mesh(cli.build_mesh(scn["mesh"], cli.RunContext("")), chart)
    points = interior_points(m)
    ref = pullback_entry_reference(1.0, chart, 2)(points)
    material = cli.build_material(scn["triplets"][1]["material"], 2, chart,
                                  euclidean(2))
    assert callable(material.entry())  # affine chart, still pointwise
    assert np.array_equal(material.eval(points), ref)
    assert np.array_equal(
        tp.pull_back(np.eye(2), chart, euclidean(2), euclidean(2))(points),
        ref)


def test_reparameterization_by_a_curved_chart_matches():
    m = mesh.generate_structured("box", (14, 12),
                                 bounds=([0.2, 0.1], [1.3, 1.0]),
                                 region_bands=[("band", 0, 0.5, 0.9)])
    S = np.array([[1.3, 0.2], [0.2, 0.7]])
    metric = geo.MetricField.by_region(
        2, {"band": S},
        default=lambda p: (1.0 + 0.2 * p[..., :1, None]) * np.eye(2))
    material = tp.MaterialField(2, regions={"band": 2.0 * S},
                                default=graded_x)
    spec = fem.BVPSpec(m, tp.Triplet(geo.Identity(2), metric, material),
                       (("left", 0.0), ("right", 1.0)))
    g = geo.PolarStretch(1.2, 1.4, center=(-0.3, -0.2))
    pushed = app.reparameterize_fixed_metric(spec, g)
    points = interior_points(pushed.domain)
    for tag, entry in (("band", 2.0 * S), (None, graded_x)):
        ref = reparameterized_reference(entry, tag, g, metric, 2)(points)
        assert np.array_equal(
            tp.pull_back(entry, g, metric, euclidean(2), tag)(points), ref)
        assert np.array_equal(pushed.triplet.material.eval(points, tag), ref)


def test_reparameterizing_by_an_affine_composite_forms_the_material_once(
        monkeypatch):
    # Rotation and AxisScaling each have one Jacobian, so with a constant
    # material and Euclidean metrics every operand of the pull-back repeats
    # one matrix: it is formed once and returned broadcast
    m = mesh.generate_structured("box", (4, 4, 4))
    base = tp.Triplet(geo.Identity(3), euclidean(3),
                      tp.MaterialField.uniform(2.0, 3))
    spec = fem.BVPSpec(m, base, (("left", 0.0), ("right", 1.0)))
    g = geo.Composite([geo.Rotation(0.7, (1.0, 2.0, 2.0)),
                       geo.AxisScaling((0.3, 2.0, 5.0))])
    pushed = app.reparameterize_fixed_metric(spec, g)
    points = interior_points(pushed.domain)
    eps = pushed.triplet.material.eval(points)
    assert eps.shape == points.shape[:2] + (3, 3)
    assert eps.strides[:2] == (0, 0)
    fast = fem.assemble(pushed).full_matrix

    # the per-point path: every pull-back formed at every point, and K
    # still measured once, as effective_coefficient alone used to
    once = tp._once_if_repeated
    monkeypatch.setattr(
        tp, "_once_if_repeated",
        lambda fn, *stacks: (once(fn, *stacks) if fn is tp._coefficient
                             else fn(*stacks)))
    per_point = pushed.triplet.material.eval(points)
    assert per_point.strides[0] != 0
    assert np.array_equal(eps, per_point)
    slow = fem.assemble(pushed).full_matrix
    for a in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(fast, a), getattr(slow, a))


def test_atlas_patch_with_a_curved_metric_matches():
    S = np.array([[1.5, 0.2], [0.2, 0.8]])
    triplet = tp.Triplet(
        geo.Identity(2), geo.MetricField(2, constant=S),
        tp.MaterialField(2, regions={
            "domain": lambda p: (1.0 + p[..., :1, None] ** 2) * S}))
    patch_metric = geo.MetricField(
        2, fn=lambda p: np.array([[1.2, 0.1], [0.1, 0.9]])
        * (1.0 + 0.1 * p[..., :1, None]))
    chart = geo.Composite([geo.translation([-1.0, 0.0]),
                           geo.AxisScaling((2.0, 1.0))])
    wide = mesh.generate_structured("box", (12, 12), bounds=([0, 0], [2, 1]))
    square = mesh.generate_structured("box", (12, 12))
    atlas = Atlas([AtlasRegion("a", geo.Identity(2), square),
                   AtlasRegion("b", chart, wide, patch_metric)],
                  interfaces=[(("a", "b"), ("right", "left"))])
    system = fem.assemble(fem.BVPSpec(atlas, triplet,
                                      (("left", 0.0), ("top", 1.0))))
    patch = system.patches[1]
    points = interior_points(wide)
    eps_ref, K_ref = atlas_reference(triplet, chart, patch_metric, "domain",
                                     points)
    new = tp.pull_back(triplet.material.entry("domain"), chart,
                       triplet.metric, patch_metric, "domain")(points)
    assert np.array_equal(new, eps_ref)
    assert np.array_equal(
        fem._coefficient_at(triplet, patch, "domain", points), K_ref)


def test_euclidean_form_is_taken_from_the_metrics():
    """Identity metrics give the same bits with or without the metric
    factors; a non-identity metric is applied."""
    rng = np.random.default_rng(5)
    chart = geo.PolarStretch(1.1, 1.3)
    points = rng.uniform(0.5, 2.0, (40, 2))
    eps = np.array([[2.0, 0.3], [0.3, 1.0]])
    x = chart.inverse(points)
    J = chart.jacobian(x)
    fn = tp.pull_back(eps, chart, euclidean(2), euclidean(2))
    assert np.array_equal(fn(points), tp.transform_material_euclidean(eps, J))
    assert np.array_equal(
        fn(points), tp.transform_material(eps, np.eye(2), np.eye(2), J))
    S = np.array([[1.3, 0.2], [0.2, 0.7]])
    curved = tp.pull_back(eps, chart, euclidean(2),
                          geo.MetricField(2, constant=S))
    assert np.array_equal(curved(points),
                          tp.transform_material(eps, np.eye(2), S, J))


def test_map_entries_keeps_regions_and_default():
    field = tp.MaterialField(2, regions={"a": 1.0, "b": 2.0}, default=3.0)
    seen = []

    def record(entry, tag):
        seen.append((tag, entry))
        return 10.0 * entry

    mapped = field.map_entries(record)
    assert seen == [("a", 1.0), ("b", 2.0), (None, 3.0)]
    assert mapped.regions == {"a": 10.0, "b": 20.0}
    assert mapped.default == 30.0
    only = tp.MaterialField.uniform(4.0, 2).map_entries(lambda e, t: e + 1)
    assert only.regions == {} and only.default == 5.0


# --------------------------------------------------------------- property


def random_spd(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * np.exp(rng.uniform(-1.0, 1.0, n))) @ Q.T


def random_affine(rng, n):
    """Affine(Q1 diag Q2, b) with singular values in [e^-1, e]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q1 * np.exp(rng.uniform(-1.0, 1.0, n))) @ Q2
    return geo.Affine(A, rng.standard_normal(n))


def random_chart(rng, n, kind):
    if kind == "affine":
        return random_affine(rng, n)
    return geo.Composite([
        geo.translation(rng.standard_normal(n)),
        geo.AxisScaling(np.exp(rng.uniform(-1.0, 1.0, n))),
        random_affine(rng, n)])


def metric_field(rng, n, curved):
    if not curved:
        return geo.MetricField(n, constant=random_spd(rng, n))
    S = random_spd(rng, n)
    return geo.MetricField(
        n, fn=lambda p: S * (1.5 + np.tanh(p[..., :1, None])))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
       kinds=st.tuples(st.sampled_from(["affine", "composite"]),
                       st.sampled_from(["affine", "composite"])),
       curved=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       pointwise=st.booleans())
def test_pulling_back_twice_is_pulling_back_through_the_composite(
        seed, n, kinds, curved, pointwise):
    rng = np.random.default_rng(seed)
    g = random_chart(rng, n, kinds[0])
    h = random_chart(rng, n, kinds[1])
    S0, S1, S2 = (metric_field(rng, n, c) for c in curved)
    eps0 = random_spd(rng, n)
    entry = (lambda p: eps0 * (2.0 + np.sin(p[..., :1, None]))) \
        if pointwise else eps0
    points = rng.uniform(-2.0, 2.0, (16, n))
    twice = tp.pull_back(tp.pull_back(entry, g, S0, S1), h, S1, S2)(points)
    once = tp.pull_back(entry, geo.Composite([g, h]), S0, S2)(points)
    dev = np.linalg.norm(twice - once, axis=(-2, -1))
    assert np.all(dev <= 1e-12 * np.linalg.norm(once, axis=(-2, -1)))
