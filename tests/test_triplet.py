"""Material/metric/field transformation algebra.

The load-bearing oracle is voltage invariance: for any transition map the
work E.S.dr along corresponding displacements must not change. Everything
else (transitivity, the motion-metric identity, the Euclidean shortcut)
is cross-checked against that or against pinned hand-computed values.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripletfem import geometry as geo
from tripletfem import triplet as tp
from tripletfem.errors import (
    AsymmetricCoefficient,
    DimensionMismatch,
    NonFiniteCoefficient,
    SingularJacobian,
    UnknownTag,
)


def random_spd(rng, n, spread=2.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(-np.log(spread), np.log(spread), n))
    return (Q * lam) @ Q.T


def random_invertible(rng, n):
    while True:
        J = rng.standard_normal((n, n))
        if abs(np.linalg.det(J)) > 0.3:
            return J


# ----------------------------------------------------------- field algebra


@pytest.mark.parametrize("n", [2, 3])
def test_voltage_is_invariant_under_chart_changes(n):
    """E.S.dr must agree between charts when dr pushes forward and E pulls
    back; this pins the whole transformation convention."""
    rng = np.random.default_rng(17 + n)
    for _ in range(50):
        J = random_invertible(rng, n)
        S_i = random_spd(rng, n)
        S_j = random_spd(rng, n)
        E_j = rng.standard_normal(n)
        dr_i = rng.standard_normal(n)
        dr_j = geo.push_forward(J, dr_i)
        E_i = tp.transform_field(E_j, S_i, S_j, J)
        u_i = tp.virtual_emf(E_i, S_i, dr_i)
        u_j = tp.virtual_emf(E_j, S_j, dr_j)
        assert abs(u_i - u_j) <= 1e-10 * max(abs(u_j), 1.0)


def test_field_transform_reduces_to_rotation_for_euclidean_metrics():
    R = geo.Rotation(0.7).jacobian(np.zeros(2))
    E_j = np.array([1.0, 2.0])
    E_i = tp.transform_field(E_j, np.eye(2), np.eye(2), R)
    assert np.allclose(E_i, R.T @ E_j, atol=1e-14)


def test_field_transform_roundtrip():
    rng = np.random.default_rng(5)
    J = random_invertible(rng, 3)
    S_i, S_j = random_spd(rng, 3), random_spd(rng, 3)
    E_j = rng.standard_normal(3)
    E_i = tp.transform_field(E_j, S_i, S_j, J)
    back = tp.transform_field(E_i, S_j, S_i, np.linalg.inv(J))
    assert np.allclose(back, E_j, atol=1e-12)


def test_field_and_flux_transforms_differ_for_shear():
    # D transforms with J^-1/|det J| (flux), E with J^T (gradient); for a
    # non-orthogonal map the two rules give different components.
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    v = np.array([1.0, 0.0])
    as_field = tp.transform_field(v, np.eye(2), np.eye(2), J)
    as_flux = np.linalg.inv(J) @ v * abs(np.linalg.det(J))
    assert not np.allclose(as_field, as_flux)


# -------------------------------------------------------- material algebra


def test_transform_material_metric_only_change():
    # identical chart, new metric: material picks up the S_j factor
    S = np.diag([2.0, 3.0])
    out = tp.transform_material(2.0, np.eye(2), S, np.eye(2))
    assert np.allclose(out, 2.0 * S, atol=1e-15)


def test_transform_material_euclidean_pinned_value():
    out = tp.transform_material_euclidean(1.0, np.diag([2.0, 1.0]))
    assert np.allclose(out, np.diag([2.0, 0.5]), atol=1e-15)


def test_euclidean_shortcut_agrees_with_general_rule():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        J = random_invertible(rng, n)
        eps = random_spd(rng, n)
        full = tp.transform_material(eps, np.eye(n), np.eye(n), J)
        short = tp.transform_material_euclidean(eps, J)
        assert np.allclose(full, short, atol=1e-13)


def test_transform_material_transitivity():
    """i->j then j->k equals i->k with the composed Jacobian."""
    rng = np.random.default_rng(23)
    for n in (2, 3):
        eps = random_spd(rng, n)
        S_i, S_j, S_k = (random_spd(rng, n) for _ in range(3))
        J_ij = random_invertible(rng, n)
        J_jk = random_invertible(rng, n)
        eps_j = tp.transform_material(eps, S_i, S_j, J_ij)
        eps_k_via_j = tp.transform_material(eps_j, S_j, S_k, J_jk)
        eps_k_direct = tp.transform_material(eps, S_i, S_k, J_jk @ J_ij)
        scale = np.abs(eps_k_direct).max()
        assert np.abs(eps_k_via_j - eps_k_direct).max() <= 1e-12 * scale


def test_transform_material_orientation_insensitive():
    # a reflection must act like its orientation-preserving sibling:
    # the volume factor is a measure, not a signed determinant
    eps = np.diag([3.0, 1.0])
    flip = np.diag([-1.0, 1.0])
    out = tp.transform_material_euclidean(eps, flip)
    assert np.allclose(out, eps, atol=1e-15)


def test_motion_metric_pinned_value():
    S = tp.metric_for_motion(np.diag([2.0, 1.0]))
    assert np.allclose(S, np.diag([0.5, 2.0]), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_motion_metric_keeps_scalar_materials_scalar(n):
    """Compensating a deformation in the metric must leave a scalar
    material exactly scalar; this couples the two motion-modeling modes."""
    rng = np.random.default_rng(31 + n)
    for _ in range(25):
        J = random_invertible(rng, n)
        S = tp.metric_for_motion(J)
        out = tp.transform_material(4.0, np.eye(n), S, J)
        assert np.abs(out - 4.0 * np.eye(n)).max() <= 1e-12 * 4.0


def test_motion_metric_of_conformal_map_is_identity():
    # scaled rotations don't change angles, so no metric compensation needed
    J = 3.7 * geo.Rotation(1.2).jacobian(np.zeros(2))
    assert np.allclose(tp.metric_for_motion(J), np.eye(2), atol=1e-14)


def test_singular_jacobian_rejected():
    with pytest.raises(SingularJacobian):
        tp.transform_material_euclidean(1.0, [[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularJacobian):
        tp.metric_for_motion(np.zeros((2, 2)))


def test_material_matrix_normalization():
    assert np.allclose(tp.material_matrix(3.0, 2), 3.0 * np.eye(2))
    M = np.diag([1.0, 2.0])
    assert tp.material_matrix(M, 2) is M
    with pytest.raises(DimensionMismatch):
        tp.material_matrix(np.eye(3), 2)


# ----------------------------------------------------- effective coefficient


def test_effective_coefficient_pinned_value():
    K = tp.effective_coefficient(1.0, np.diag([2.0, 4.0]))
    assert np.allclose(K, np.diag([0.5, 0.25]), atol=1e-15)


def test_effective_coefficient_symmetrizes_roundoff():
    rng = np.random.default_rng(7)
    eps = random_spd(rng, 2)
    K = tp.effective_coefficient(eps, eps)  # eps * eps^-1 = I up to roundoff
    assert np.allclose(K, np.eye(2), atol=1e-12)
    assert np.abs(K - K.T).max() == 0.0


def test_effective_coefficient_rejects_incompatible_pairs():
    # anisotropic material with a metric not sharing its eigenbasis
    c, s = np.cos(0.4), np.sin(0.4)
    R = np.array([[c, -s], [s, c]])
    S = R @ np.diag([1.0, 4.0]) @ R.T
    with pytest.raises(AsymmetricCoefficient):
        tp.effective_coefficient(np.diag([2.0, 1.0]), S)


# ------------------------------------------------------------------- fields


def test_material_field_region_dispatch():
    field = tp.MaterialField(2, regions={"air": 1.0, "slab": np.diag([5.0, 2.0])},
                             default=8.0)
    pts = np.zeros((3, 2))
    assert np.allclose(field.eval(pts, "air")[0], np.eye(2))
    assert np.allclose(field.eval(pts, "slab")[1], np.diag([5.0, 2.0]))
    assert np.allclose(field.eval(pts, "other")[2], 8.0 * np.eye(2))
    assert np.allclose(field.constant_matrix("slab"), np.diag([5.0, 2.0]))


def test_material_field_requires_an_entry():
    with pytest.raises(ValueError):
        tp.MaterialField(2)
    field = tp.MaterialField(2, regions={"air": 1.0})
    with pytest.raises(ValueError):
        field.entry("vacuum")


def test_region_miss_is_an_unknown_tag_and_a_value_error():
    material = tp.MaterialField(2, regions={"air": 1.0})
    metric = geo.MetricField.by_region(2, {"air": np.eye(2)})
    for lookup in (lambda: material.entry("vacuum"),
                   lambda: metric.eval(np.zeros((1, 2)), region="vacuum")):
        with pytest.raises(UnknownTag, match="no entry for region 'vacuum'"):
            lookup()
        with pytest.raises(ValueError):
            lookup()


def test_material_field_pointwise_entry():
    def eps_fn(p):
        return 1.0 + np.sum(p * p, axis=-1)

    field = tp.MaterialField(2, default=eps_fn)
    assert field.constant_matrix() is None
    got = field.eval(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(got[:, 0, 0], [2.0, 5.0])
    assert np.allclose(got[:, 0, 1], 0.0)
    # a batch of quadrature points, (E, Q, 2), as assembly evaluates them
    batch = np.arange(24.0).reshape(4, 3, 2)
    got = field.eval(batch)
    assert np.array_equal(got, eps_fn(batch)[..., None, None] * np.eye(2))


def test_uniform_material_field():
    field = tp.MaterialField.uniform(3.5, 3)
    assert np.allclose(field.eval(np.zeros((1, 3)))[0], 3.5 * np.eye(3))


def test_motion_metric_field_for_axis_stretch():
    # stretching one axis by s is compensated by S = diag(1/s, s)
    defo = geo.AxisScaling([1.0, 2.0])
    S = tp.motion_metric_field(defo, 2)
    got = S.eval(np.array([[0.3, 0.4]]))[0]
    assert np.allclose(got, np.diag([0.5, 2.0]), atol=1e-14)


class _FlattenY(geo.ChartMap):
    """Collapses the y axis; only its Jacobian is ever evaluated."""

    dim = 2

    def _jacobian(self, p):
        out = np.zeros(p.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        return out


def test_motion_metric_field_rejects_a_singular_deformation():
    with pytest.raises(SingularJacobian, match="singular"):
        tp.motion_metric_field(_FlattenY(), 2).eval(np.array([[0.3, 0.4]]))


# ------------------------------------------------------------ verification


def euclidean_triplet(chart, eps=1.0, dim=2):
    return tp.Triplet(chart, geo.MetricField.euclidean(dim),
                      tp.MaterialField.uniform(eps, dim))


def test_equivalence_report_zero_for_identical_triplets():
    t = euclidean_triplet(geo.Identity(2))
    samples = np.random.default_rng(0).uniform(0.1, 0.9, (20, 2))
    rep = tp.verify_material_equivalence(t, t, samples)
    assert rep.max_deviation <= 1e-15


def test_equivalence_report_accepts_constructed_pair():
    rng = np.random.default_rng(41)
    A = random_invertible(rng, 2)
    chart = geo.Affine(A)
    eps_g = tp.transform_material_euclidean(2.5, A)
    t_f = euclidean_triplet(geo.Identity(2), eps=2.5)
    t_g = tp.Triplet(chart, geo.MetricField.euclidean(2),
                     tp.MaterialField.uniform(eps_g, 2))
    samples = rng.uniform(-1.0, 1.0, (30, 2))
    rep = tp.verify_material_equivalence(t_f, t_g, samples)
    assert rep.max_deviation <= 1e-13


def test_equivalence_report_flags_wrong_material():
    rng = np.random.default_rng(43)
    A = random_invertible(rng, 2)
    eps_g = tp.transform_material_euclidean(2.5, A) * 1.05  # 5% off
    t_f = euclidean_triplet(geo.Identity(2), eps=2.5)
    t_g = tp.Triplet(geo.Affine(A), geo.MetricField.euclidean(2),
                     tp.MaterialField.uniform(eps_g, 2))
    samples = rng.uniform(-1.0, 1.0, (30, 2))
    rep = tp.verify_material_equivalence(t_f, t_g, samples)
    assert rep.max_deviation > 0.01
    assert rep.worst_point.shape == (2,)
    assert rep.deviations.shape == (30,)


def test_equivalence_report_between_curved_charts():
    """Shell chart vs identity chart with the matching pushed material."""
    shell = geo.KelvinShell(1.0, 2.0)

    def eps_g(points):
        r_pts = shell.inverse(points)
        J = shell.jacobian(r_pts)
        return tp.transform_material_euclidean(np.broadcast_to(3.0, points.shape[:-1]), J)

    t_f = euclidean_triplet(geo.Identity(2), eps=3.0)
    t_g = tp.Triplet(shell, geo.MetricField.euclidean(2),
                     tp.MaterialField(2, default=eps_g))
    samples = np.random.default_rng(2).uniform(1.1, 3.0, (25, 2))
    rep = tp.verify_material_equivalence(t_f, t_g, samples)
    assert rep.max_deviation <= 1e-12


def test_triplet_effective_at():
    t = tp.Triplet(geo.Identity(2),
                   geo.MetricField(2, constant=np.diag([2.0, 4.0])),
                   tp.MaterialField.uniform(1.0, 2))
    K = t.effective_at(np.zeros((1, 2)))[0]
    assert np.allclose(K, np.diag([0.5, 0.25]))


def test_motion_coefficients_of_a_band_stretch_keep_their_bits():
    # AxisPiecewiseLinear Jacobians are diagonal and the material is
    # isotropic, so every product entry has one nonzero term and the
    # closed-form products give the bits of numpy's @
    chart = geo.AxisPiecewiseLinear(1, (0.0, 0.5, 1.0), (0.0, 0.5, 1.7))
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 1.0, (300, 3, 2))
    J = tp.inverse_jacobian(chart, pts)
    Jinv = geo.inv(J)
    S_ref = (np.swapaxes(Jinv, -1, -2) @ Jinv) \
        * np.abs(geo.det(J))[..., None, None]
    S = tp.metric_for_motion(J)
    assert np.array_equal(S, S_ref)
    eps = tp.MaterialField.uniform(2.5, 2).eval(pts)
    K_ref = eps @ geo.inv(S_ref)
    K_ref = 0.5 * (K_ref + np.swapaxes(K_ref, -1, -2))
    assert np.array_equal(tp.effective_coefficient(eps, S), K_ref)


@pytest.mark.parametrize("n", [2, 3])
def test_constant_effective_at_is_the_pointwise_coefficient(n):
    # full matrices sharing their eigenvectors, so eps S^-1 is symmetric
    # while every product entry sums n nonzero terms
    rng = np.random.default_rng(30 + n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eps = (Q * rng.uniform(1.0, 3.0, n)) @ Q.T
    S = (Q * rng.uniform(1.0, 3.0, n)) @ Q.T
    t = tp.Triplet(geo.Identity(n), geo.MetricField(n, constant=S),
                   tp.MaterialField.uniform(eps, n))
    pts = rng.uniform(-1.0, 1.0, (6, 4, n))
    K = t.effective_at(pts)
    assert K.shape == (6, 4, n, n)
    for idx in np.ndindex(6, 4):
        p = pts[idx]
        want = tp.effective_coefficient(t.material.eval(p), t.metric.eval(p))
        assert np.array_equal(K[idx], want)
    with pytest.raises(DimensionMismatch):
        t.effective_at(np.zeros((5, n + 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
       stack=st.tuples(st.integers(1, 6), st.integers(1, 4)),
       layout=st.sampled_from(["copies", "broadcast", "one-eps"]))
def test_repeated_stack_gives_the_pointwise_bits(seed, n, stack, layout):
    # full matrices sharing their eigenvectors, so eps S^-1 is symmetric
    # while every product entry sums n nonzero terms
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eps = (Q * rng.uniform(0.5, 4.0, n)) @ Q.T
    S = (Q * rng.uniform(0.5, 4.0, n)) @ Q.T
    shape = stack + (n, n)
    S_stack = np.broadcast_to(S, shape)
    eps_stack = {"copies": np.tile(eps, stack + (1, 1)),
                 "broadcast": np.broadcast_to(eps, shape),
                 "one-eps": eps}[layout]
    if layout == "copies":
        S_stack = S_stack.copy()
    K = tp.effective_coefficient(eps_stack, S_stack)
    assert K.shape == shape
    assert K.strides[:-2] == (0, 0)

    # oracle: one differing matrix appended makes the stack pointwise
    flat_S = np.concatenate([S_stack.reshape(-1, n, n), S[None]])
    flat_eps = np.concatenate([np.broadcast_to(eps_stack, shape)
                               .reshape(-1, n, n), 2.0 * eps[None]])
    if layout == "one-eps":
        flat_eps, flat_S = eps, np.concatenate([flat_S[:-1], 2.0 * S[None]])
    want = tp.effective_coefficient(flat_eps, flat_S)
    assert want.strides[0] != 0
    assert np.array_equal(K, want[:-1].reshape(shape))


def test_repeated_asymmetric_pair_fails_as_the_pointwise_path_does():
    eps = np.diag([2.0, 1.0])
    S = np.array([[2.0, 0.4], [0.4, 1.0]])
    shape = (5, 3, 2, 2)
    with pytest.raises(AsymmetricCoefficient) as repeated:
        tp.effective_coefficient(np.broadcast_to(eps, shape),
                                 np.broadcast_to(S, shape))
    # an appended symmetric pair leaves the worst asymmetry where it was
    eye = np.eye(2)[None]
    with pytest.raises(AsymmetricCoefficient) as pointwise:
        tp.effective_coefficient(
            np.concatenate([np.broadcast_to(eps, (15, 2, 2)), eye]),
            np.concatenate([np.broadcast_to(S, (15, 2, 2)), eye]))
    assert str(repeated.value) == str(pointwise.value)


def test_nan_never_counts_as_repeated():
    eps = np.full((4, 2, 2), np.nan)
    with pytest.raises(NonFiniteCoefficient, match="material .* nan"):
        tp.effective_coefficient(eps, np.eye(2))


def test_a_broadcast_stack_is_one_matrix_and_its_nan_is_refused():
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    K = tp.effective_coefficient(2.0, np.broadcast_to(S, (4, 3, 2, 2)))
    assert K.shape == (4, 3, 2, 2) and K.strides[:2] == (0, 0)
    # no scan decides that such a stack repeats; the finiteness check
    # still reads its one matrix
    with pytest.raises(NonFiniteCoefficient, match="material .* nan"):
        tp.effective_coefficient(np.broadcast_to(np.nan, (4, 3, 2, 2)), S)
    with pytest.raises(NonFiniteCoefficient, match="metric .* inf"):
        tp.effective_coefficient(1.0, np.broadcast_to(np.inf, (4, 3, 2, 2)))


def test_non_finite_material_or_metric_is_refused_by_name():
    # RuntimeWarnings are errors in this suite, so no product may run
    with pytest.raises(NonFiniteCoefficient,
                       match="material holds the non-finite value inf"):
        tp.effective_coefficient(np.full((6, 2, 2), np.inf), np.eye(2))
    eps = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    eps[3, 1, 0] = np.nan
    with pytest.raises(NonFiniteCoefficient,
                       match="material holds the non-finite value nan"):
        tp.effective_coefficient(eps, np.eye(2))
    S = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    S[2, 0, 0] = -np.inf
    with pytest.raises(NonFiniteCoefficient,
                       match="metric holds the non-finite value -inf"):
        tp.effective_coefficient(np.eye(2), S)
