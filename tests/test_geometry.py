"""Chart families checked against a central-difference Jacobian oracle,
plus inversion roundtrips, domain policing, and metric-field behavior.

The differencing step is 1e-6 times the coordinate scale; central
differences on these maps are accurate to well below the 1e-6 gate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripletfem import fem, mesh
from tripletfem import geometry as geo
from tripletfem.errors import (
    DimensionMismatch,
    NotInvertible,
    PointOutsideDomain,
    PointOutsideImage,
)


def fd_jacobian(chart, pts):
    """Central-difference Jacobian, one column per coordinate."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[-1]
    h = 1e-6 * max(np.abs(pts).max(), 1.0)
    cols = []
    for k in range(n):
        step = np.zeros(n)
        step[k] = h
        cols.append((chart.forward(pts + step) - chart.forward(pts - step)) / (2 * h))
    return np.stack(cols, axis=-1)


def box_points(rng, lo, hi, count=100):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return lo + (hi - lo) * rng.random((count, lo.size))


def ring_points(rng, rmin, rmax, dim=2, count=100, center=None):
    d = rng.standard_normal((count, dim))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    r = rmin + (rmax - rmin) * rng.random((count, 1))
    pts = r * d
    if center is not None:
        pts = pts + np.asarray(center, dtype=float)
    return pts


def chart_cases():
    """(chart, interior sample points) for every family.

    Samples keep clear of domain edges, map centers, and slope breaks so
    the differencing stencil never straddles a kink or leaves the domain.
    """
    rng = np.random.default_rng(20240611)
    A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    return [
        (geo.Identity(2), box_points(rng, [-2, -2], [2, 2])),
        (geo.Affine(A, rng.standard_normal(3)), box_points(rng, [-1] * 3, [1] * 3)),
        (geo.translation([0.5, -1.5]), box_points(rng, [-2, -2], [2, 2])),
        (geo.AxisScaling([1e3, 1e-2]), box_points(rng, [-1, -1], [1, 1])),
        (geo.Rotation(0.7), box_points(rng, [-2, -2], [2, 2])),
        (geo.Rotation(0.3, axis=[1.0, 2.0, -1.0]), box_points(rng, [-1] * 3, [1] * 3)),
        (geo.PolarStretch(scale=2.0, exponent=1.5), ring_points(rng, 0.2, 3.0)),
        (geo.PolarStretch(scale=0.5, exponent=0.8, center=[1.0, -2.0], dim=2),
         ring_points(rng, 0.3, 2.0, center=[1.0, -2.0])),
        (geo.KelvinShell(1.0, 2.0), ring_points(rng, 1.05, 6.0)),
        (geo.KelvinShell(0.5, 3.0, center=[2.0, 1.0], dim=2),
         ring_points(rng, 0.55, 8.0, center=[2.0, 1.0])),
        (geo.KelvinShell(1.0, 2.0),
         np.concatenate([ring_points(rng, 0.1, 0.9, count=50),
                         ring_points(rng, 1.1, 5.0, count=50)])),
        (geo.AxisPiecewiseLinear(0, [0.0, 0.3, 1.0], [0.0, 0.6, 1.0]),
         np.column_stack([
             np.concatenate([rng.uniform(0.02, 0.28, 40),
                             rng.uniform(0.32, 0.98, 40),
                             rng.uniform(-1.0, -0.05, 10),
                             rng.uniform(1.05, 2.0, 10)]),
             rng.uniform(-1.0, 1.0, 100)])),
        (geo.Composite([geo.AxisScaling([1e3, 1e-2]), geo.Rotation(0.7)]),
         box_points(rng, [-1, -1], [1, 1])),
        (geo.Composite([geo.KelvinShell(1.0, 2.0), geo.Rotation(0.4),
                        geo.translation([0.2, 0.1])]),
         ring_points(rng, 1.1, 4.0)),
    ]


CASES = chart_cases()
CASE_IDS = [f"{i:02d}-{type(c).__name__}" for i, (c, _) in enumerate(CASES)]


@pytest.mark.parametrize("chart,pts", CASES, ids=CASE_IDS)
def test_jacobian_matches_finite_differences(chart, pts):
    J = chart.jacobian(pts)
    J_fd = fd_jacobian(chart, pts)
    scale = max(np.abs(J).max(), 1.0)
    assert np.abs(J - J_fd).max() <= 1e-6 * scale


@pytest.mark.parametrize("chart,pts", CASES, ids=CASE_IDS)
def test_inverse_roundtrip(chart, pts):
    back = chart.inverse(chart.forward(pts))
    scale = max(np.abs(pts).max(), 1.0)
    assert np.abs(back - pts).max() <= 1e-9 * scale


@pytest.mark.parametrize("chart,pts", CASES, ids=CASE_IDS)
def test_forward_of_inverse_roundtrip(chart, pts):
    img = chart.forward(pts)
    there = chart.forward(chart.inverse(img))
    scale = max(np.abs(img).max(), 1.0)
    assert np.abs(there - img).max() <= 1e-9 * scale


def test_jacobian_shapes_follow_leading_axes():
    chart = geo.PolarStretch(scale=2.0, exponent=1.5)
    pts = np.ones((4, 3, 2)) + 0.1 * np.arange(24).reshape(4, 3, 2)
    assert chart.jacobian(pts).shape == (4, 3, 2, 2)
    assert chart.forward(pts).shape == (4, 3, 2)


# ------------------------------------------------------------- shell chart


def test_shell_map_pinned_values():
    shell = geo.KelvinShell(1.0, 2.0)
    assert np.allclose(shell.forward([2.0, 0.0]), [1.5, 0.0], atol=1e-15)
    assert np.allclose(shell.inverse([1.5, 0.0]), [2.0, 0.0], atol=1e-14)
    assert np.allclose(shell.forward([0.0, 4.0]), [0.0, 1.75], atol=1e-15)
    # the inner radius is fixed pointwise
    assert np.allclose(shell.forward([0.0, -1.0]), [0.0, -1.0], atol=1e-15)


def test_shell_map_compresses_infinity_to_outer_radius():
    shell = geo.KelvinShell(1.0, 2.0)
    radii = np.array([1.0, 1.5, 3.0, 10.0, 1e6, 1e12])
    mapped = shell.forward(np.column_stack([radii, np.zeros_like(radii)]))[:, 0]
    assert np.all(np.diff(mapped) > 0)
    assert np.all(mapped < 2.0)
    assert abs(mapped[-1] - (2.0 - 1e-12)) < 1e-15


def test_shell_map_polices_domain_and_image():
    shell = geo.KelvinShell(1.0, 2.0)
    # inside radius a the shell is the identity; its domain is everywhere
    assert np.array_equal(shell.forward([0.5, 0.0]), [0.5, 0.0])
    with pytest.raises(PointOutsideImage):
        shell.inverse([2.5, 0.0])
    # the outer radius is infinity's image; no finite preimage exists
    with pytest.raises(PointOutsideImage):
        shell.inverse([2.0, 0.0])


def test_shell_rejects_bad_radii():
    with pytest.raises(ValueError):
        geo.KelvinShell(2.0, 1.0)
    with pytest.raises(ValueError):
        geo.KelvinShell(0.0, 1.0)
    # 0 < a < b holds for b = inf, and R(r) = b - a (b - a) / r is then
    # inf - inf: an ordinary point past radius a had no image
    with pytest.raises(ValueError, match="outer radius b must be finite, "
                       "got b=inf"):
        geo.KelvinShell(1.0, float("inf"))
    # a finite b, however large, keeps the fold finite
    assert np.allclose(geo.KelvinShell(1.0, 1e300).forward([3.0, 0.0]),
                       [2e300 / 3.0, 0.0], rtol=1e-15, atol=0.0)


# ------------------------------------------------------------ other charts


def test_affine_rejects_singular_matrix():
    with pytest.raises(NotInvertible):
        geo.Affine([[1.0, 2.0], [2.0, 4.0]])


def test_axis_scaling_rejects_zero_factor():
    with pytest.raises(NotInvertible):
        geo.AxisScaling([1.0, 0.0])


def test_rotation_3d_matrix_properties():
    axis = np.array([1.0, 2.0, -1.0])
    rot = geo.Rotation(0.3, axis=axis)
    R = rot.jacobian(np.zeros(3))
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-14)
    assert abs(np.linalg.det(R) - 1.0) < 1e-14
    unit = axis / np.linalg.norm(axis)
    assert np.allclose(rot.forward(unit), unit, atol=1e-15)


def test_rotation_2d_quarter_turn():
    rot = geo.Rotation(np.pi / 2.0)
    assert np.allclose(rot.forward([1.0, 0.0]), [0.0, 1.0], atol=1e-15)


def test_piecewise_radial_is_continuous_at_split():
    # the shell is piecewise radial: the identity inside a, the fold past it
    chart = geo.KelvinShell(1.0, 2.0)
    ang = np.linspace(0.0, 2 * np.pi, 7)
    just_in = 0.999999 * np.column_stack([np.cos(ang), np.sin(ang)])
    just_out = 1.000001 * np.column_stack([np.cos(ang), np.sin(ang)])
    gap = np.abs(chart.forward(just_out) - chart.forward(just_in)).max()
    assert gap < 1e-5
    assert np.allclose(chart.forward(0.3 * np.array([1.0, 1.0])),
                       0.3 * np.array([1.0, 1.0]))


def test_axis_piecewise_linear_segments_and_extension():
    chart = geo.AxisPiecewiseLinear(0, [0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
    # slope 2 below 0.3 (and extended left), 4/7 above (and extended right)
    assert np.allclose(chart.forward([0.15, 0.5]), [0.30, 0.5])
    assert np.allclose(chart.forward([-1.0, 0.0]), [-2.0, 0.0])
    assert np.allclose(chart.forward([2.0, 0.0]), [1.0 + (4.0 / 7.0), 0.0])
    J = chart.jacobian([0.5, 0.0])
    assert np.allclose(J, np.diag([4.0 / 7.0, 1.0]))


def test_axis_piecewise_linear_rejects_non_monotone_tables():
    with pytest.raises(NotInvertible):
        geo.AxisPiecewiseLinear(0, [0.0, 0.5, 1.0], [0.0, 0.7, 0.6])
    with pytest.raises(NotInvertible):
        geo.AxisPiecewiseLinear(0, [0.0, 0.5, 0.5], [0.0, 0.5, 1.0])


def test_composite_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        geo.Composite([geo.Rotation(0.1), geo.AxisScaling([1.0, 2.0, 3.0])])


def per_point_jacobian(chart, p):
    """Composite's Jacobian product formed at every point."""
    J = np.array(chart.members[0].jacobian(p))
    x = chart.members[0].forward(p)
    for m in chart.members[1:]:
        J = geo.matmul(np.array(m.jacobian(x)), J)
        x = m.forward(x)
    return J


@pytest.mark.parametrize("members, repeated", [
    ([geo.Rotation(0.3), geo.AxisScaling((2.0, 0.5))], True),
    ([geo.Rotation(0.7, (1.0, 2.0, 2.0)), geo.AxisScaling((0.3, 2.0, 5.0)),
      geo.Affine([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]])], True),
    ([geo.AxisScaling((2.0, 0.5)), geo.PolarStretch(1.2, 1.4),
      geo.Rotation(0.3)], False),
], ids=["affine-2d", "affine-3d", "curved-2d"])
def test_composite_jacobian_forms_a_repeated_product_once(members, repeated):
    chart = geo.Composite(members)
    dim = members[0].dim
    p = 0.5 + np.random.default_rng(dim).random((7, 5, dim))
    J = chart.jacobian(p)
    assert J.shape == (7, 5, dim, dim)
    assert (not any(J.strides[:-2])) == repeated
    assert np.array_equal(J, per_point_jacobian(chart, p))


def test_axis_scaling_jacobian_is_its_diagonal_broadcast():
    J = geo.AxisScaling((2.0, -0.5, 3.0)).jacobian(np.ones((4, 3)))
    assert J.strides[0] == 0 and not J.flags.writeable
    assert np.array_equal(J, np.broadcast_to(np.diag([2.0, -0.5, 3.0]),
                                             (4, 3, 3)))


@pytest.mark.parametrize("lo, hi, one_segment", [
    (0.35, 0.9, True),     # inside the middle segment
    (0.3, 0.4, True),      # from a breakpoint, which starts its segment
    (-3.0, -1.0, True),    # on the extension of the first segment
    (0.5, 1.5, True),      # the last segment and its extension
    (0.1, 0.8, False),     # across a breakpoint
], ids=["middle", "at-break", "extension", "last", "straddle"])
def test_axis_piecewise_linear_jacobian_is_one_matrix_in_one_segment(
        lo, hi, one_segment):
    chart = geo.AxisPiecewiseLinear(1, [0.0, 0.3, 1.0], [0.0, 0.6, 1.3],
                                    dim=3)
    rng = np.random.default_rng(4)
    p = rng.random((6, 4, 3))
    p[..., 1] = rng.uniform(lo, hi, (6, 4))
    p[0, 0, 1], p[-1, -1, 1] = lo, hi
    # the per-point formula: the identity with the slope of each segment
    want = np.zeros((6, 4, 3, 3))
    want[...] = np.eye(3)
    k = np.clip(np.searchsorted(chart.breaks, p[..., 1], side="right") - 1,
                0, chart.slopes.size - 1)
    want[..., 1, 1] = chart.slopes[k]
    J = chart.jacobian(p)
    assert J.shape == want.shape and np.array_equal(J, want)
    assert (not any(J.strides[:-2])) == one_segment
    assert J.flags.writeable != one_segment
    # NaN lies in no segment; the chart refuses it
    p[2, 1, 1] = np.nan
    with pytest.raises(PointOutsideDomain):
        chart.jacobian(p)


def test_identity_detection_through_composites():
    assert geo.Identity().is_identity()
    assert geo.Composite([geo.Identity(2), geo.Identity(2)]).is_identity()
    assert not geo.Composite([geo.Identity(2), geo.Rotation(0.1)]).is_identity()


def test_domain_error_names_the_offending_point():
    stretch = geo.PolarStretch(scale=2.0)
    pts = np.array([[3.0, 0.0], [np.nan, 0.25]])
    with pytest.raises(PointOutsideDomain) as err:
        stretch.forward(pts)
    assert "0.25" in str(err.value)
    shell = geo.KelvinShell(1.0, 2.0)
    with pytest.raises(PointOutsideImage) as err:
        shell.inverse([[1.5, 0.0], [0.0, 2.25]])
    assert "2.25" in str(err.value)


NON_FINITE_CASES = CASES + [
    (geo.Composite([geo.PolarStretch(2.0, 1.5), geo.AxisScaling([2.0, 3.0])]),
     ring_points(np.random.default_rng(5), 0.5, 2.0, count=4))]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("chart,pts", NON_FINITE_CASES,
                         ids=CASE_IDS + [f"{len(CASES):02d}-Composite"])
def test_every_chart_refuses_a_non_finite_point(chart, pts, bad):
    for method, exc, points in [
            ("forward", PointOutsideDomain, pts),
            ("jacobian", PointOutsideDomain, pts),
            ("inverse", PointOutsideImage, chart.forward(pts))]:
        points = np.array(points[:3])
        points[1, -1] = bad
        where = "image" if method == "inverse" else "domain"
        with pytest.raises(exc, match=f"outside the {where} of ") as err:
            getattr(chart, method)(points)
        assert str(points[1].tolist()) in str(err.value)


def test_radial_maps_reject_their_center():
    with pytest.raises(PointOutsideDomain):
        geo.PolarStretch(scale=2.0).forward([0.0, 0.0])


def test_radial_inverse_refuses_the_center_as_an_image_point():
    with pytest.raises(PointOutsideImage, match="undefined at its center"):
        geo.PolarStretch(2.0, 1.5).inverse([0.0, 0.0])


@pytest.mark.filterwarnings("error")
def test_radial_maps_take_radii_past_the_range_of_their_squares():
    # |x - c|^2 overflows past about 1.3e154 and vanishes below about
    # 1e-162, where |x - c| is still a double: the map is evaluated there
    shell = geo.KelvinShell(1.0, 2.0)
    assert np.allclose(shell.forward([1e200, 0.0]), [2.0, 0.0], rtol=1e-15)
    assert np.allclose(shell.jacobian([1e200, 0.0]),
                       np.diag([0.0, 2e-200]), rtol=1e-15, atol=0.0)
    stretch = geo.PolarStretch(2.0, 1.5)
    assert np.allclose(stretch.forward([1e200, 0.0]), [2e300, 0.0],
                       rtol=1e-14, atol=0.0)
    assert np.array_equal(geo.PolarStretch(1.0, 1.0).forward([1e-200, 0.0]),
                          [1e-200, 0.0])
    # a point whose image is past the largest double is refused by name
    for method in ("forward", "jacobian"):
        with pytest.raises(PointOutsideDomain, match=r"\[1e\+250, 0.0\]"):
            getattr(stretch, method)([1e250, 0.0])
    # where the squares stay in range, the norm keeps its bits
    pts = ring_points(np.random.default_rng(9), 0.2, 3.0)
    r = np.linalg.norm(pts, axis=-1)
    assert np.array_equal(stretch.forward(np.vstack([pts, [1e200, 0.0]]))[:-1],
                          (2.0 * r ** 1.5 / r)[:, None] * pts)

@pytest.mark.parametrize("past", [1e-13, 1e-12])
def test_shell_refuses_a_preimage_on_the_far_side(past):
    # just past the rim, the shell's inverse radius a (b - a) / (b - R)
    # is finite and negative
    shell = geo.KelvinShell(1.0, 2.0)
    with pytest.raises(PointOutsideImage, match="image boundary"):
        shell.inverse([2.0 + past, 0.0])


@pytest.mark.parametrize("chart", [geo.PolarStretch, geo.KelvinShell])
def test_radial_center_must_have_the_chart_dimension(chart):
    args = (2.0,) if chart is geo.PolarStretch else (1.0, 2.0)
    with pytest.raises(DimensionMismatch, match="3 coordinates, got 2"):
        chart(*args, center=[0.0, 0.0], dim=3)
    with pytest.raises(DimensionMismatch, match="2 coordinates, got 3"):
        chart(*args, center=[0.0, 0.0, 0.0])
    assert chart(*args, dim=3).center.tolist() == [0.0, 0.0, 0.0]


# --------------------------------------------------------------- operations


def test_push_forward_applies_jacobian():
    J = np.diag([2.0, 1.0])
    assert np.allclose(geo.push_forward(J, [1.0, 1.0]), [2.0, 1.0])
    stacked = np.broadcast_to(J, (5, 2, 2))
    vs = np.tile([1.0, 1.0], (5, 1))
    assert geo.push_forward(stacked, vs).shape == (5, 2)


def test_inner_product_pinned_value():
    S = np.diag([2.0, 3.0])
    assert geo.inner_product(S, [1.0, 2.0], [1.0, 1.0]) == pytest.approx(8.0)


def test_inner_product_rejects_asymmetric_metric():
    with pytest.raises(ValueError):
        geo.inner_product([[1.0, 0.5], [0.0, 1.0]], [1.0, 0.0], [0.0, 1.0])


# ---------------------------------------------------------- interior shapes


@pytest.mark.parametrize("build", [
    lambda: geo.Box([np.nan, 0.0], [1.0, 1.0]),
    lambda: geo.Box([0.0, 0.0], [1.0, np.inf]),
    lambda: geo.Annulus([0.0, np.inf], 0.0, 1.0),
    lambda: geo.Annulus([0.0, 0.0], np.nan, 1.0),
    lambda: geo.Annulus([0.0, 0.0], 0.0, np.nan),
], ids=["box-nan-corner", "box-inf-corner", "annulus-inf-center",
        "annulus-nan-rmin", "annulus-nan-rmax"])
def test_interior_shapes_refuse_non_finite_parameters(build):
    with pytest.raises(ValueError, match="finite"):
        build()


# ------------------------------------------------------------ metric fields


def test_metric_field_constant_and_euclidean():
    S = geo.MetricField(2, constant=np.diag([2.0, 3.0]))
    pts = np.zeros((4, 2))
    assert S.eval(pts).shape == (4, 2, 2)
    assert np.allclose(S.constant_matrix(), np.diag([2.0, 3.0]))
    assert geo.MetricField.euclidean(3).is_euclidean()
    assert not S.is_euclidean()


def test_metric_field_rejects_bad_constants():
    with pytest.raises(ValueError):
        geo.MetricField(2, constant=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        geo.MetricField(2, constant=[[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(ValueError):
        geo.MetricField(2)
    with pytest.raises(ValueError):
        geo.MetricField(2, constant=np.eye(2), fn=lambda p: np.eye(2))


def test_metric_field_region_dispatch():
    S = geo.MetricField.by_region(
        2,
        {"air": np.eye(2), "slab": np.diag([4.0, 0.25])},
        default=np.eye(2),
    )
    pts = np.zeros((3, 2))
    assert np.allclose(S.eval(pts, region="slab")[0], np.diag([4.0, 0.25]))
    assert np.allclose(S.eval(pts, region="elsewhere")[0], np.eye(2))
    assert S.constant_matrix(region="slab") is not None
    assert S.constant_matrix() is None or S.constant_matrix().shape == (2, 2)
    with pytest.raises(TypeError, match="not MetricField"):
        geo.MetricField.by_region(2, {"slab": np.eye(2)},
                                  default=geo.MetricField.euclidean(2))


def test_metric_field_region_default_given_as_matrix():
    S = geo.MetricField.by_region(2, {"slab": np.diag([4.0, 0.25])},
                                  default=2.0 * np.eye(2))
    pts = np.zeros((3, 2))
    assert np.allclose(S.eval(pts, region="air"), 2.0 * np.eye(2))
    assert np.allclose(S.constant_matrix(region="air"), 2.0 * np.eye(2))


def test_metric_field_pointwise_function():
    def fn(p):
        r2 = np.sum(p * p, axis=-1)
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 + r2
        out[..., 1, 1] = 1.0
        return out

    S = geo.MetricField(2, fn=fn)
    assert S.constant_matrix() is None
    got = S.eval(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(got[:, 0, 0], [2.0, 5.0])


def test_is_euclidean_reads_the_region_entry():
    S = geo.MetricField.by_region(2, {"slab": np.diag([4.0, 0.25]),
                                      "air": np.eye(2)})
    assert S.is_euclidean("air")
    assert not S.is_euclidean("slab")
    assert not S.is_euclidean()  # two entries, no default: no constant
    near = geo.MetricField(2, constant=np.eye(2) + 1e-13)
    assert near.is_euclidean("anything")
    assert not geo.MetricField(2, constant=np.eye(2) + 1e-11).is_euclidean()


# ----------------------------------------------------- small-matrix kernel


def well_conditioned(rng, shape, n):
    return rng.standard_normal(shape + (n, n)) + 3.0 * np.eye(n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shape", [(), (40,), (7, 6)])
def test_closed_forms_match_lapack(n, shape):
    rng = np.random.default_rng(10 * n + len(shape))
    M = well_conditioned(rng, shape, n)
    ref_inv = np.linalg.inv(M)
    ref_det = np.linalg.det(M)
    got_inv = geo.inv(M)
    got_det = geo.det(M)
    assert got_inv.shape == ref_inv.shape
    assert np.shape(got_det) == np.shape(ref_det)
    scale = np.abs(ref_inv).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got_inv - ref_inv) <= 1e-13 * scale)
    assert np.all(np.abs(got_det - ref_det) <= 1e-13 * np.abs(ref_det))


def test_larger_matrices_go_through_lapack():
    M = well_conditioned(np.random.default_rng(4), (5, 3), 4)
    assert np.array_equal(geo.inv(M), np.linalg.inv(M))
    assert np.array_equal(geo.det(M), np.linalg.det(M))


def test_closed_forms_are_exact_on_diagonal_and_permutation_matrices():
    # np.linalg.det exponentiates a sum of logs: 0.0010000000000000002
    assert geo.det(np.diag([1e-3, 1.0])) == 1e-3
    assert geo.det(np.diag([1e-3, 1.0, 1.0])) == 1e-3
    for d in ([1e-3, 1.0], [2.0, -0.25], [1e-3, 1.0, 1.0], [4.0, -0.5, 8.0]):
        d = np.array(d)
        assert np.array_equal(geo.inv(np.diag(d)), np.diag(1.0 / d))
    for perm in ([1, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2]):
        P = np.eye(len(perm))[perm]
        assert np.array_equal(geo.inv(P), P.T)
        assert geo.det(P) == np.linalg.det(P)


@pytest.mark.parametrize("n", [2, 3])
def test_a_singular_matrix_in_the_stack_raises(n):
    M = well_conditioned(np.random.default_rng(n), (5,), n)
    M[3, -1] = M[3, 0]  # two equal rows
    assert geo.det(M)[3] == 0.0
    with pytest.raises(np.linalg.LinAlgError):
        geo.inv(M)


def cross_sum_reference(M):
    """3x3 inverse and determinant from np.cross on the rows and np.sum
    over the trailing axis, the form geometry.inv and det once took."""
    r0, r1, r2 = M[..., 0, :], M[..., 1, :], M[..., 2, :]
    cols = (np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1))
    dets = np.sum(r0 * cols[0], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack(cols, axis=-1) / dets[..., None, None], dets


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_by_three_kernels_keep_the_cross_product_bits(seed):
    rng = np.random.default_rng(seed)
    stack = 1e-3 * rng.standard_normal((5000, 4, 3))
    # contiguous, a row slice (strided rows), a transposed view (strided
    # entries) and a nested stack
    for M in (np.ascontiguousarray(stack[:, 1:]), stack[:, 1:],
              np.swapaxes(stack[:, :3], 1, 2),
              stack[:4900, 1:].reshape(70, 70, 3, 3)):
        ref_inv, ref_det = cross_sum_reference(M)
        assert same_bits(geo.det(M), ref_det)
        assert same_bits(geo.inv(M), ref_inv)


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_zero_determinants_stay_zero_and_raise(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((300, 3, 3))
    M[0::3, 2] = M[0::3, 1]     # the last two rows equal
    M[1::3, :, 0] = -0.0        # a zero column
    M[2::3, 1] = 0.0            # a zero row
    _, ref_det = cross_sum_reference(M)
    # np.sum starts from +0.0, so only the sign of a zero may differ
    assert np.array_equal(geo.det(M), ref_det)
    assert np.all(ref_det == 0.0)
    for i in range(3):
        with pytest.raises(np.linalg.LinAlgError):
            geo.inv(M[i::3])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shape", [(), (40,), (7, 6), (3, 3000)])
def test_matmul_matches_numpy(n, shape):
    # (3, 3000) spans more than one of matmul's chunks
    rng = np.random.default_rng(100 * n + len(shape))
    A = rng.standard_normal(shape + (n, n))
    B = rng.standard_normal(shape + (n, n))
    C = rng.standard_normal((n, n))
    # one matrix against a stack, on either side, and a broadcast stack
    pairs = [(A, B), (C, B), (A, C)]
    if len(shape) == 2:
        pairs.append((A[:, :1], B[:1]))
    for X, Y in pairs:
        got = geo.matmul(X, Y)
        ref = np.matmul(X, Y)
        assert got.shape == ref.shape
        bound = 4 * n * np.finfo(float).eps * (np.abs(X) @ np.abs(Y))
        assert np.all(np.abs(got - ref) <= bound)


def test_matmul_rounds_each_product():
    # x * x rounds to x2; a fused x * x - x2 would give 2^-60
    x = 1.0 + 2.0 ** -30
    x2 = x * x
    A = np.array([[x, 1.0], [0.0, 0.0]])
    B = np.array([[x, 0.0], [-x2, 0.0]])
    assert geo.matmul(A, B)[0, 0] == 0.0


@pytest.mark.parametrize("n", [3, 4])
def test_matmul_of_larger_matrices_is_numpys(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((5, 3, n, n))
    B = rng.standard_normal((n, n))
    assert np.array_equal(geo.matmul(A, B), A @ B)
    assert np.array_equal(geo.matmul(B, A), B @ A)
    At = np.swapaxes(A, -1, -2)
    assert np.array_equal(geo.matmul(At, A), At @ A)


@pytest.mark.parametrize("n", [2, 3])
def test_matmul_is_numpys_where_every_entry_has_one_term(n):
    rng = np.random.default_rng(n)
    full = rng.standard_normal((50, n, n))
    diag = np.zeros((50, n, n))
    diag[:, range(n), range(n)] = rng.standard_normal((50, n))
    perm = np.eye(n)[rng.permutation(n)] * rng.standard_normal(n)
    for X, Y in ((diag, full), (full, diag), (perm, full), (full, perm),
                 (diag, diag)):
        assert np.array_equal(geo.matmul(X, Y), X @ Y)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
       log_cond=st.floats(0.0, np.log(1e3)),
       inner=st.floats(0.0, 1.0), scale=st.integers(-20, 20),
       flip=st.booleans())
def test_inverse_times_matrix_is_the_identity(seed, n, log_cond, inner,
                                              scale, flip):
    # M = U diag(s) V^T with singular values spanning [1, cond], cond <= 1e3
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.exp(log_cond * np.array([0.0, 1.0, inner][:n]))
    if flip:
        s[0] = -s[0]
    M = 2.0 ** scale * (U * s) @ V.T
    cond = np.linalg.cond(M)
    dev = np.abs(geo.inv(M) @ M - np.eye(n)).max()
    # each adjugate entry is a product of n - 1 entries, so the residual
    # grows like cond**(n - 1); for n = 2 this bound is below 1e-12
    assert dev <= 4.0 * cond ** (n - 1) * np.finfo(float).eps


@pytest.mark.parametrize("n", [2, 3])
def test_inv_is_c_ordered_and_layout_blind(n):
    rng = np.random.default_rng(n)
    stacks = {"C": rng.standard_normal((40, n, n))}
    # component-major: entry arrays contiguous, as a mesh's edge matrices
    stacks["component-major"] = np.ascontiguousarray(
        stacks["C"].transpose(1, 2, 0)).transpose(2, 0, 1)
    # one matrix broadcast over (5, 8), stride zero on the leading axes
    stacks["broadcast"] = np.broadcast_to(stacks["C"][0], (5, 8, n, n))
    expected = geo.inv(stacks["C"])
    for name, M in stacks.items():
        out = geo.inv(M)
        assert out.flags.c_contiguous, name
        want = expected if name != "broadcast" \
            else np.broadcast_to(expected[0], M.shape)
        assert np.array_equal(out, want), name
        dets, adj = geo.adjugate(M)
        assert np.array_equal(dets, geo.det(M)), name
        for (i, j), entry in adj.items():
            assert np.array_equal(entry / dets, out[..., i, j]), name


# ------------------------------------------------- the shell's two branches


def masked_reference(chart, p, method):
    """The fold evaluated with a mask whatever the sides: inner values are
    the points themselves (identity Jacobians), outer values the radial
    shell map's own evaluators."""
    mask = np.linalg.norm(p - chart.center, axis=-1) >= chart.a
    n = p.shape[-1]
    if method == "jacobian":
        out = np.broadcast_to(np.eye(n), p.shape + (n,)).copy()
    else:
        out = p.copy()
    if np.any(mask):
        shell = getattr(geo._RadialMap, "_" + method)
        out[mask] = shell(chart, p[mask])
    return out


@pytest.mark.parametrize("split, sides", [(1.0, "outer"), (1.5, "both"),
                                          (2.5, "inner")])
def test_piecewise_radial_one_side_fast_path_keeps_the_bits(split, sides):
    # the open-boundary annulus: 147,456 interior quadrature points
    m = mesh.generate_structured("annulus", (256, 96), radii=(1.0, 2.0),
                                 grading=2.0)
    bary, _ = fem.quadrature_rule("interior", 2)
    points = np.einsum("qa,ead->eqd", bary, m.nodes[m.elements])
    chart = geo.KelvinShell(split, 2.0 * split)
    outside = np.linalg.norm(points, axis=-1) >= split
    assert {"outer": outside.all(), "inner": not outside.any(),
            "both": 0 < outside.sum() < outside.size}[sides]
    for method in ("forward", "inverse", "jacobian"):
        got = getattr(chart, method)(points)
        assert got.shape == points.shape[:-1] + (
            (2, 2) if method == "jacobian" else (2,))
        assert np.array_equal(got, masked_reference(chart, points, method))


@pytest.mark.parametrize("points", [[[2.5, 0.0]], [[1.5, 0.0], [0.0, -2.5]],
                                    [[0.5, 0.0], [2.5, 0.0]]],
                         ids=["outside", "outside-both", "mixed"])
def test_piecewise_radial_keeps_its_image_check(points):
    chart = geo.KelvinShell(1.0, 2.0)
    with pytest.raises(PointOutsideImage, match="outside the image of "
                                                "KelvinShell"):
        chart.inverse(points)


def test_piecewise_radial_outer_evaluator_refuses_infinity():
    chart = geo.KelvinShell(1.0, 2.0)
    # the outer radius passes the image check; no finite preimage exists
    with pytest.raises(PointOutsideImage, match="KelvinShell inverse"):
        chart.inverse([[0.5, 0.0], [2.0, 0.0]])
