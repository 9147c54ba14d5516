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
                     SingularJacobian, UnknownTag)

# |det J| at or below this floor counts as singular.
DET_FLOOR = 1e-300

# Relative asymmetry tolerated in effective coefficients.
SYMMETRY_RTOL = 1e-10


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"{name} must be a square matrix (stack)")
    return M


def material_matrix(eps, dim):
    """Normalize a material value: scalars mean isotropic eps * I."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim >= 2 and eps.shape[-2:] == (dim, dim):
        return eps
    if eps.ndim >= 2:
        raise DimensionMismatch(
            f"material matrix shape {eps.shape[-2:]} disagrees with dimension {dim}")
    return eps[..., None, None] * np.eye(dim)


def eval_entry(entry, points, dim):
    """A material entry (scalar, matrix, or pointwise evaluator returning
    either) as full matrices at the points, shape (..., n, n)."""
    if callable(entry):
        out = np.asarray(entry(points), dtype=float)
    else:
        out = np.asarray(entry, dtype=float)
    out = material_matrix(out, dim)
    want = points.shape[:-1] + (dim, dim)
    if out.shape != want:
        out = np.broadcast_to(out, want)
    return out


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
    """
    J = _as_square(J, "J")
    n = J.shape[-1]
    det = _abs_det(J)
    eps_i = material_matrix(eps_i, n)
    S_i = _as_square(S_i, "S_i")
    S_j = _as_square(S_j, "S_j")
    mm = geometry.matmul
    Jt = np.swapaxes(J, -1, -2)
    out = mm(mm(mm(mm(J, eps_i), geometry.inv(S_i)), Jt), S_j)
    return out / det[..., None, None]


def transform_material_euclidean(eps_f, J):
    """Special case of transform_material when both metrics are Euclidean:
    eps_g = J eps_f J^T / |det J|."""
    J = _as_square(J, "J")
    n = J.shape[-1]
    det = _abs_det(J)
    eps_f = material_matrix(eps_f, n)
    Jt = np.swapaxes(J, -1, -2)
    out = geometry.matmul(geometry.matmul(J, eps_f), Jt)
    return out / det[..., None, None]


def metric_for_motion(J):
    """Metric that keeps a scalar material unchanged under a deformation.

    J is the Jacobian of the transition map from the deformed (physical)
    configuration to the fixed computational chart. Requiring the
    transformed material to equal the original scalar one gives
    S = |det J| J^-T J^-1, which this returns.
    """
    J = _as_square(J, "J")
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
    at p, and returns transform_material of them. When both metrics are
    the identity for the region the Euclidean form is used; the two give
    the same bits.
    """
    dim = target.dim
    eye = np.eye(dim)
    euclidean = all(np.array_equal(m.constant_matrix(region), eye)
                    for m in (source, target))

    def fn(points):
        p = np.asarray(points, dtype=float)
        x = chart.inverse(p)
        J = chart.jacobian(x)
        eps = eval_entry(entry, x, dim)
        if euclidean:
            return transform_material_euclidean(eps, J)
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


def _first_if_repeated(M):
    """M's first matrix as a (1, n, n) stack when every matrix of the
    stack equals it exactly, else None. NaN never counts as repeated."""
    if M.size == 0:
        return None
    first = M[(0,) * (M.ndim - 2)]
    return first[None] if np.all(M == first) else None


def effective_coefficient(eps, S):
    """Galerkin coefficient K = eps S^-1, symmetrized, shape (..., n, n).

    When eps and S each repeat one matrix exactly, K is formed once from
    their first (1, n, n) slices, through the pointwise kernels, and
    returned broadcast: the same bits, whatever made the inputs constant.

    Raises AsymmetricCoefficient when the asymmetry exceeds SYMMETRY_RTOL
    relative to the coefficient's own magnitude, or is not a number.
    """
    S = _as_square(S, "S")
    n = S.shape[-1]
    eps = material_matrix(eps, n)
    shape = None
    eps_1, S_1 = _first_if_repeated(eps), _first_if_repeated(S)
    if eps_1 is not None and S_1 is not None:
        shape = np.broadcast_shapes(eps.shape, S.shape)
        eps, S = eps_1, S_1
    K = geometry.matmul(eps, geometry.inv(S))
    Kt = np.swapaxes(K, -1, -2)
    asym = np.sqrt(np.sum((K - Kt) ** 2, axis=(-2, -1)))
    norm = np.sqrt(np.sum(K * K, axis=(-2, -1)))
    rel = asym / np.maximum(norm, 1e-300)
    if not np.all(rel <= SYMMETRY_RTOL):
        raise AsymmetricCoefficient(
            f"effective coefficient asymmetry {float(np.max(rel)):.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e}; the material/metric pair is inconsistent"
        )
    K = 0.5 * (K + Kt)
    return K if shape is None else np.broadcast_to(K[0], shape)


# ---------------------------------------------------------- material fields


class MaterialField:
    """Region-tagged permittivity field.

    Entries are scalars (isotropic), (n, n) matrices, or pointwise
    evaluators returning either. eval() always hands back full matrices.
    A default entry covers region tags without one of their own.
    """

    def __init__(self, dim, regions=None, default=None):
        self.dim = int(dim)
        self.regions = dict(regions) if regions else {}
        self.default = default
        if not self.regions and self.default is None:
            raise ValueError("material field needs at least one entry")

    @classmethod
    def uniform(cls, eps, dim):
        """One entry covering every region."""
        return cls(dim, default=eps)

    def entry(self, region=None):
        entry = geometry.region_entry(self.regions, self.default, region)
        if entry is None:
            raise UnknownTag(
                f"material field has no entry for region {region!r}")
        return entry

    def constant_matrix(self, region=None):
        """The region's constant matrix, or None when it varies pointwise."""
        entry = self.entry(region)
        if callable(entry):
            return None
        return material_matrix(entry, self.dim)

    def map_entries(self, fn):
        """A field holding fn(entry, tag) in place of every entry; the
        default's tag is None."""
        regions = {tag: fn(e, tag) for tag, e in self.regions.items()}
        default = None if self.default is None else fn(self.default, None)
        return MaterialField(self.dim, regions=regions, default=default)

    def eval(self, points, region=None):
        """Material matrices at the given points, shape (..., n, n)."""
        p = np.asarray(points, dtype=float)
        if p.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"points have {p.shape[-1]} coordinates, field has {self.dim}")
        return eval_entry(self.entry(region), p, self.dim)

    def __repr__(self):
        tags = sorted(map(repr, self.regions))
        return (f"MaterialField(dim={self.dim}, regions=[{', '.join(tags)}], "
                f"default={'set' if self.default is not None else 'none'})")


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
    """The inverse of a deformation's Jacobian at the points, raising
    SingularJacobian where the Jacobian is singular."""
    try:
        return geometry.inv(deformation.jacobian(points))
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
