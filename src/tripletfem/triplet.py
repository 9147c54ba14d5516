"""Material-equivalence algebra.

A problem is posed by a triplet {chart, metric, material}. Changing one
member and compensating in the others leaves every observable invariant:
fields transform with the transition Jacobian and the two metrics, materials
transform with the same data plus the Jacobian determinant. All operations
are pure, accept stacked operands with shape (..., n, n) / (..., n), and
never special-case the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (AsymmetricCoefficient, DimensionMismatch,
                     NonFiniteCoefficient, SingularJacobian)
from .geometry import _once_if_repeated, eval_entry, material_matrix

# |det J| at or below this floor counts as singular.
DET_FLOOR = 1e-300

# Relative asymmetry tolerated in effective coefficients.
SYMMETRY_RTOL = 1e-10


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"{name} must be a square matrix (stack)")
    return M


def _abs_det(J):
    det = np.abs(geometry.det(J))
    if np.any(det <= DET_FLOOR):
        raise SingularJacobian(
            f"|det J| = {float(np.min(det)):.3e} is at or below {DET_FLOOR:.0e}"
        )
    return det


def transform_material(eps_i, S_i, S_j, J):
    """Material in chart j equivalent to (eps_i, S_i) in chart i.

    J is the Jacobian of the transition map from chart i to chart j. The
    result is eps_j = J eps_i S_i^-1 J^T S_j / |det J|; the determinant
    enters with its magnitude because it stands for the volume element.
    Where the four operands each repeat one matrix, the result is formed
    once and returned broadcast (_once_if_repeated).
    """
    J = _as_square(J, "J")
    n = J.shape[-1]
    eps_i = material_matrix(eps_i, n)
    S_i = _as_square(S_i, "S_i")
    S_j = _as_square(S_j, "S_j")
    return _once_if_repeated(_transformed_material, eps_i, S_i, S_j, J)


def _transformed_material(eps_i, S_i, S_j, J):
    det = _abs_det(J)
    mm = geometry.matmul
    Jt = np.swapaxes(J, -1, -2)
    out = mm(mm(mm(mm(J, eps_i), geometry.inv(S_i)), Jt), S_j)
    return out / det[..., None, None]


def transform_material_euclidean(eps_f, J):
    """transform_material with both metrics Euclidean:
    eps_g = J eps_f J^T / |det J|, with no identity product to turn an
    overflowed entry's inf into NaN. Where eps_f and J each repeat one
    matrix, it is formed once and returned broadcast."""
    J = _as_square(J, "J")
    eps_f = material_matrix(eps_f, J.shape[-1])
    return _once_if_repeated(_euclidean_material, eps_f, J)


def _euclidean_material(eps_f, J):
    det = _abs_det(J)
    out = geometry.matmul(geometry.matmul(J, eps_f), np.swapaxes(J, -1, -2))
    return out / det[..., None, None]


def metric_for_motion(J):
    """Metric that keeps a scalar material unchanged under a deformation.

    J is the Jacobian of the transition map from the deformed (physical)
    configuration to the fixed computational chart. Requiring the
    transformed material to equal the original scalar one gives
    S = |det J| J^-T J^-1, which this returns; where J repeats one
    matrix, S is formed once and returned broadcast.
    """
    return _once_if_repeated(_motion_metric, _as_square(J, "J"))


def _motion_metric(J):
    det = _abs_det(J)
    Jinv = geometry.inv(J)
    S = geometry.matmul(np.swapaxes(Jinv, -1, -2), Jinv)
    return S * det[..., None, None]


def pull_back(entry, chart, source, target, region=None):
    """A material entry re-expressed on the chart's image.

    The entry lives on the chart's domain with the metric field source;
    the result is a pointwise evaluator for the image, whose metric field
    is target. At points p it takes x = chart.inverse(p) and
    J = chart.jacobian(x), evaluates the entry and source at x and target
    at p, and returns transform_material of them: one matrix broadcast
    over the points wherever all four repeat one matrix there, as they do
    for a constant entry and metrics under an affine chart.
    """
    dim = target.dim

    def fn(points):
        p = np.asarray(points, dtype=float)
        x = chart.inverse(p)
        J = chart.jacobian(x)
        eps = eval_entry(entry, x, dim)
        return transform_material(eps, source.eval(x, region),
                                  target.eval(p, region), J)

    return fn


def transform_field(E_j, S_i, S_j, J):
    """Field components in chart i recovered from chart j:
    E_i = S_i^-1 J^T S_j E_j, with J the transition Jacobian i -> j."""
    J = _as_square(J, "J")
    _abs_det(J)
    S_i = _as_square(S_i, "S_i")
    S_j = _as_square(S_j, "S_j")
    E_j = np.asarray(E_j, dtype=float)
    if E_j.shape[-1] != J.shape[-1]:
        raise DimensionMismatch("field and Jacobian dimensions disagree")
    Jt = np.swapaxes(J, -1, -2)
    rhs = np.einsum("...ij,...j->...i", S_j, E_j)
    rhs = np.einsum("...ij,...j->...i", Jt, rhs)
    return np.linalg.solve(S_i, rhs[..., None])[..., 0]


def virtual_emf(E, S, dr):
    """Voltage increment E^T S dr along a coordinate increment dr."""
    return geometry.inner_product(S, E, dr)


def _require_finite(M, name):
    finite = np.isfinite(M)
    if not finite.all():
        raise NonFiniteCoefficient(
            f"{name} holds the non-finite value {float(M[~finite][0])}")


def effective_coefficient(eps, S):
    """Galerkin coefficient K = eps S^-1, symmetrized, shape (..., n, n).

    When eps and S each repeat one matrix exactly, K is formed once and
    returned broadcast, with stride zero on every leading axis
    (_once_if_repeated; assembly reads the strides): the same bits,
    whatever made the inputs constant.

    Raises NonFiniteCoefficient, before any product, when the material or
    the metric holds inf or NaN, and AsymmetricCoefficient when the
    asymmetry exceeds SYMMETRY_RTOL relative to the coefficient's own
    magnitude.
    """
    S = _as_square(S, "S")
    eps = material_matrix(eps, S.shape[-1])
    return _once_if_repeated(_coefficient, eps, S)


def _coefficient(eps, S):
    _require_finite(eps, "material")
    _require_finite(S, "metric")
    n = S.shape[-1]
    K = geometry.matmul(eps, geometry.inv(S))
    Kt = np.swapaxes(K, -1, -2)
    # Frobenius norms as dot products over one flattened axis, not np.sum
    # over two axes, whose reduction loop runs once per point
    skew = (K - Kt).reshape(K.shape[:-2] + (n * n,))
    flat = K.reshape(skew.shape)
    asym = np.sqrt(np.einsum("...i,...i->...", skew, skew))
    norm = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    rel = asym / np.maximum(norm, 1e-300)
    if not np.all(rel <= SYMMETRY_RTOL):
        raise AsymmetricCoefficient(
            f"effective coefficient asymmetry {float(np.max(rel)):.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e}; the material/metric pair is inconsistent"
        )
    return 0.5 * (K + Kt)


# ---------------------------------------------------------- material fields


class MaterialField(geometry.TensorField):
    """Region-tagged permittivity field: a TensorField whose entries are
    scalars (isotropic), (n, n) matrices, or pointwise evaluators
    returning either, stored as given."""

    @classmethod
    def uniform(cls, eps, dim):
        """One entry covering every region."""
        return cls(dim, default=eps)


@dataclass(frozen=True)
class Triplet:
    """A chart, the metric expressed in it, and the material expressed in it.

    The chart member is the transition map from the problem's implicit
    standard parameterization to this triplet's coordinates.
    """

    chart: geometry.ChartMap
    metric: geometry.MetricField
    material: MaterialField

    def effective_at(self, points, region=None):
        """effective_coefficient of the material and metric at the points."""
        return effective_coefficient(self.material.eval(points, region),
                                     self.metric.eval(points, region))


def inverse_jacobian(deformation, points):
    """The inverse of a deformation's Jacobian at the points, formed once
    where the Jacobian repeats one matrix, raising SingularJacobian where
    it is singular."""
    J = np.asarray(deformation.jacobian(points), dtype=float)
    try:
        return _once_if_repeated(geometry.inv, J)
    except np.linalg.LinAlgError:
        raise SingularJacobian(
            "deformation Jacobian is singular on the moving region"
        ) from None


def motion_metric_field(deformation, dim):
    """Metric field modeling a region deformed by `deformation` (fixed chart
    to physical configuration) without moving any node."""

    def fn(points):
        return metric_for_motion(inverse_jacobian(deformation, points))

    return geometry.MetricField(dim, fn=fn)


# ------------------------------------------------------------- verification


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case relative deviation between a declared and a derived material."""

    max_deviation: float
    worst_point: np.ndarray
    deviations: np.ndarray


def verify_material_equivalence(t_i, t_j, samples, region=None):
    """Check that t_j's material is the transform of t_i's.

    Samples are points in the shared standard parameterization. At each one
    the transition Jacobian i -> j is assembled from the two charts, t_i's
    material is pushed through transform_material, and the result is compared
    with what t_j declares, as a relative Frobenius deviation.
    """
    samples = np.asarray(samples, dtype=float)
    x_i = t_i.chart.forward(samples)
    x_j = t_j.chart.forward(samples)
    J = geometry.matmul(t_j.chart.jacobian(samples),
                        geometry.inv(t_i.chart.jacobian(samples)))
    expected = transform_material(
        t_i.material.eval(x_i, region),
        t_i.metric.eval(x_i, region),
        t_j.metric.eval(x_j, region),
        J,
    )
    actual = t_j.material.eval(x_j, region)
    diff = np.sqrt(np.sum((expected - actual) ** 2, axis=(-2, -1)))
    scale = np.maximum(
        np.sqrt(np.sum(expected ** 2, axis=(-2, -1))),
        np.sqrt(np.sum(actual ** 2, axis=(-2, -1))),
    )
    dev = diff / np.maximum(scale, 1e-300)
    worst = int(np.argmax(dev))
    flat = samples.reshape(-1, samples.shape[-1])
    return EquivalenceReport(
        max_deviation=float(dev.reshape(-1)[worst]),
        worst_point=flat[worst].copy(),
        deviations=dev,
    )
