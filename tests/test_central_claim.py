"""The central claim over generated triplets: exchanged triplets give the
same operator.

Metrics and materials are drawn region by region on a banded box (a
lower "domain" and an upper "gap"): constant or pointwise SPD entries,
as one field or by region, with or without a default. Motion sweeps run
on a 2-D box; affine reparameterizations on a 2-D or a 3-D box. Each
region's material is eps = K S for a drawn SPD coefficient K and the
region's metric S, so eps S^-1 = K is symmetric as the Galerkin form needs.
"""

import numpy as np
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from tripletfem import applications as app
from tripletfem import fem, geometry as geo, mesh, triplet as tp

REGIONS = ("domain", "gap")

floats = st.floats


@st.composite
def rotation(draw, dim):
    """A 2-D rotation, or a 3-D one about a drawn unit axis."""
    if dim == 2:
        return geo.Rotation(draw(floats(0.0, 2.0 * np.pi)))
    polar, azimuth = draw(floats(0.0, np.pi)), draw(floats(0.0, 2.0 * np.pi))
    axis = [np.sin(polar) * np.cos(azimuth),
            np.sin(polar) * np.sin(azimuth), np.cos(polar)]
    return geo.Rotation(draw(floats(0.0, 2.0 * np.pi)), axis=axis)


@st.composite
def spd(draw, dim=2):
    """A dim x dim SPD matrix with eigenvalues in [0.5, 2], exactly
    symmetric."""
    R = draw(rotation(dim)).jacobian(np.zeros(dim))
    M = (R * [draw(floats(0.5, 2.0)) for _ in range(dim)]) @ R.T
    return 0.5 * (M + M.T)


@st.composite
def spd_entry(draw, dim=2):
    """A constant SPD matrix, or a pointwise one: a positive profile
    times a constant SPD matrix."""
    M = draw(spd(dim))
    if draw(st.booleans()):
        return M
    a, b = draw(floats(0.0, 1.0)), draw(floats(0.0, 1.0))
    return lambda p: ((1.0 + a * p[..., :1, None] ** 2
                       + b * p[..., 1:2, None]) * M)


def value_at(entry, p):
    return entry(p) if callable(entry) else entry


def times(K, S):
    """The material entry K S: a matrix when both are, else pointwise."""
    if not (callable(K) or callable(S)):
        return K @ S

    def KS(p):
        square = p.shape[:-1] + (p.shape[-1],) * 2
        return geo.matmul(np.broadcast_to(value_at(K, p), square),
                          np.broadcast_to(value_at(S, p), square))
    return KS


def region_field(cls, entries, with_default, dim=2):
    """A by-region field over REGIONS; with a default, the domain's entry
    is the default instead of an entry of its own."""
    if with_default:
        return cls(dim, regions={"gap": entries["gap"]},
                   default=entries["domain"])
    return cls(dim, regions=dict(entries))


@st.composite
def triplet_entries(draw, euclidean_gap, dim=2):
    """Metric and material entries per region, and how to hold them."""
    metric = {tag: draw(spd_entry(dim)) for tag in REGIONS}
    if euclidean_gap:
        metric["gap"] = np.eye(dim)
    coeff = {tag: draw(spd_entry(dim)) for tag in REGIONS}
    return metric, coeff


# a 3-D box is banded like the 2-D one, along y, with fewer cells
BOXES = {2: (6, 6), 3: (4, 4, 4)}


def banded_spec(metric_field, material_field, quadrature="auto"):
    dim = metric_field.dim
    m = mesh.generate_structured("box", BOXES[dim],
                                 region_bands=[("gap", 1, 0.5, 1.0)])
    return fem.BVPSpec(domain=m, triplet=tp.Triplet(geo.Identity(dim),
                                                    metric_field,
                                                    material_field),
                       dirichlet=(("bottom", 0.0), ("top", 1.0)),
                       quadrature=quadrature)


@st.composite
def step_map(draw):
    """A gap motion that folds nothing: an orientation-keeping affine map
    or a stretch of the gap along y (not declared affine)."""
    if draw(st.booleans()):
        A = np.array([[draw(floats(0.5, 2.0)), draw(floats(-0.3, 0.3))],
                      [draw(floats(-0.3, 0.3)), draw(floats(0.5, 2.0))]])
        return geo.Affine(A)
    s = draw(floats(0.5, 2.5))
    return geo.AxisPiecewiseLinear(axis=1, breaks=(0.0, 0.5, 1.0),
                                   images=(0.0, 0.5, 0.5 + 0.5 * s))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(entries=triplet_entries(euclidean_gap=True),
       defaults=st.tuples(st.booleans(), st.booleans()),
       mode=st.sampled_from(["metric-change", "material-change"]),
       quadrature=st.sampled_from(["auto", "interior", "one_point"]),
       steps=st.lists(step_map(), min_size=2, max_size=2),
       gap_eps=st.one_of(floats(0.5, 4.0), floats(0.5, 4.0).map(
           lambda c: lambda p: c * (1.0 + p[..., 0] ** 2))))
def test_a_sweep_step_is_a_fresh_assembly_under_its_triplet(
        entries, defaults, mode, quadrature, steps, gap_eps):
    metric, coeff = entries
    material = {tag: times(coeff[tag], metric[tag]) for tag in REGIONS}
    if mode == "metric-change":
        # a metric-change step meets the gap's material with a general SPD
        # metric, so only an isotropic gap material keeps K symmetric
        material["gap"] = gap_eps
    spec = banded_spec(region_field(geo.MetricField, metric, defaults[0]),
                       region_field(tp.MaterialField, material, defaults[1]),
                       quadrature)
    for k in range(len(steps)):
        results = app.motion_sweep(app.MotionSweep(
            base=spec, moving_region="gap", steps=steps[:k + 1], mode=mode))
        swept = results[-1].solution.system.full_matrix
        fresh = fem.assemble(replace(
            spec, triplet=results[-1].solution.triplet)).full_matrix
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(swept, name), getattr(fresh, name))


@st.composite
def affine_chart(draw, dim):
    """Rotation times axis scaling, condition number at most 1e3."""
    big = draw(floats(1.0, 30.0))
    factors = [big] + [big / draw(floats(1.0, 1e3)) for _ in range(dim - 1)]
    factors = draw(st.permutations(factors))
    return geo.Composite([draw(rotation(dim)), geo.AxisScaling(factors)])


@st.composite
def affine_draw(draw):
    """A 2-D or 3-D draw: entries and an affine chart of one dimension."""
    dim = draw(st.sampled_from([2, 3]))
    return (dim, draw(triplet_entries(euclidean_gap=False, dim=dim)),
            draw(affine_chart(dim)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn=affine_draw(),
       one_metric=st.booleans(),
       defaults=st.tuples(st.booleans(), st.booleans()))
def test_an_affine_reparameterization_keeps_the_operator(
        drawn, one_metric, defaults):
    dim, (metric, coeff), g = drawn
    if one_metric:
        # one metric entry, constant or pointwise as drawn, for the box
        S = metric["domain"]
        metric = {tag: S for tag in REGIONS}
        metric_field = (geo.MetricField(dim, fn=S) if callable(S)
                        else geo.MetricField(dim, constant=S))
    else:
        metric_field = region_field(geo.MetricField, metric, defaults[0],
                                    dim)
    material = {tag: times(coeff[tag], metric[tag]) for tag in REGIONS}
    material_field = region_field(tp.MaterialField, material, defaults[1],
                                  dim)
    spec = banded_spec(metric_field, material_field)
    pushed = app.reparameterize_fixed_metric(spec, g)
    report = fem.compare_matrices(fem.assemble(spec).full_matrix,
                                  fem.assemble(pushed).full_matrix)
    assert report.rel_frobenius <= 1e-12
