"""Coordinate charts, their Jacobians, domain descriptors, and metric fields.

Charts are invertible differentiable maps from a region of R^n onto their
image. Every family carries an analytic Jacobian; nothing here is ever
differenced numerically. All evaluators are vectorized over leading axes:
points have shape (..., n), Jacobians (..., n, n). Charts are immutable
after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NotInvertible,
    PointOutsideDomain,
    PointOutsideImage,
    UnknownTag,
)

# Membership tests use a tolerance band relative to the descriptor's scale,
# so points sitting exactly on a boundary count as inside.
MEMBERSHIP_RTOL = 1e-12


def _as_points(x, dim=None):
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        raise DimensionMismatch("a point needs at least one coordinate")
    if dim is not None and pts.shape[-1] != dim:
        raise DimensionMismatch(
            f"expected points with {dim} coordinates, got {pts.shape[-1]}"
        )
    return pts


def _eye_like(points):
    n = points.shape[-1]
    out = np.zeros(points.shape[:-1] + (n, n))
    out[...] = np.eye(n)
    return out


# ----------------------------------------------------------- small matrices


# Matrices per pass of matmul's entry loops.
_MATMUL_CHUNK = 4096


def matmul(A, B):
    """Products of stacks of square matrices, broadcast like A @ B.

    For 2x2 stacks each entry is the sum of its two elementwise products;
    other sizes go through @.

    The closed form rounds differently from @. numpy's @ goes through
    BLAS, which may fuse a multiply and an add into one rounding; here
    both products are rounded before they are added. Neither is the more
    accurate. The two agree bit for bit wherever an entry has at most one
    nonzero product (diagonal or permutation factors, isotropic materials)
    and may differ in the last bits where it has two.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[-2:] != (2, 2) or B.shape[-2:] != (2, 2):
        return A @ B
    shape = np.broadcast_shapes(A.shape, B.shape)
    out = np.empty(shape, dtype=np.result_type(A, B))
    # one flat stack, taken in chunks whose operands stay in cache
    A = np.broadcast_to(A, shape).reshape(-1, 2, 2)
    B = np.broadcast_to(B, shape).reshape(-1, 2, 2)
    flat = out.reshape(-1, 2, 2)
    for lo in range(0, flat.shape[0], _MATMUL_CHUNK):
        c = slice(lo, lo + _MATMUL_CHUNK)
        a, b = A[c], B[c]
        for i in range(2):
            for j in range(2):
                entry = flat[c, i, j]
                np.multiply(a[:, i, 0], b[:, 0, j], out=entry)
                entry += a[:, i, 1] * b[:, 1, j]
    return out


def det(M):
    """Determinants of a stack of square matrices, shape (..., n, n).

    2x2 and 3x3 stacks use the cofactor expansion, so each matrix costs a
    few flops instead of one LAPACK call; other sizes go through LAPACK.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if n == 3:
        c0 = np.cross(M[..., 1, :], M[..., 2, :])
        return np.sum(M[..., 0, :] * c0, axis=-1)
    return np.linalg.det(M)


def inv(M):
    """Inverses of a stack of square matrices, shape (..., n, n).

    2x2 and 3x3 stacks divide the adjugate by the determinant, entry by
    entry into one output; other sizes go through LAPACK. Raises
    np.linalg.LinAlgError when a determinant is exactly zero, as LAPACK
    does on a zero pivot.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 2:
        a, b = M[..., 0, 0], M[..., 0, 1]
        c, d = M[..., 1, 0], M[..., 1, 1]
        dets = a * d - b * c
        adj = {(0, 0): d, (0, 1): -b, (1, 0): -c, (1, 1): a}
    elif n == 3:
        r0, r1, r2 = M[..., 0, :], M[..., 1, :], M[..., 2, :]
        # the adjugate's columns are the cross products of row pairs
        cols = (np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1))
        dets = np.sum(r0 * cols[0], axis=-1)
        adj = {(i, j): cols[j][..., i] for i in range(3) for j in range(3)}
    else:
        return np.linalg.inv(M)
    if np.any(dets == 0.0):
        raise np.linalg.LinAlgError("Singular matrix")
    out = np.empty(M.shape)
    for (i, j), entry in adj.items():
        np.divide(entry, dets, out=out[..., i, j])
    return out


# ------------------------------------------------------------------ domains


class Domain:
    """Region of chart validity. Membership uses a relative tolerance band."""

    scale = 1.0

    def contains(self, points):
        raise NotImplementedError

    @property
    def tol(self):
        return MEMBERSHIP_RTOL * max(self.scale, 1.0)


class FullSpace(Domain):
    """All of R^n."""

    def contains(self, points):
        points = np.asarray(points, dtype=float)
        return np.ones(points.shape[:-1], dtype=bool)

    def __repr__(self):
        return "FullSpace()"


class Box(Domain):
    """Axis-aligned box {lo <= x <= hi}."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box corners disagree in dimension")
        if np.any(self.hi <= self.lo):
            raise ValueError("box needs positive extent along every axis")
        self.dim = self.lo.size
        self.scale = float(np.max(np.abs(np.concatenate([self.lo, self.hi]))))

    def contains(self, points):
        p = _as_points(points, self.dim)
        t = self.tol
        return np.all((p >= self.lo - t) & (p <= self.hi + t), axis=-1)

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


class Annulus(Domain):
    """Spherical shell {rmin <= |x - center| <= rmax}; rmax may be inf."""

    def __init__(self, center, rmin, rmax=np.inf):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.rmin = float(rmin)
        self.rmax = float(rmax)
        if self.rmin < 0 or self.rmax <= self.rmin:
            raise ValueError("annulus radii must satisfy 0 <= rmin < rmax")
        self.dim = self.center.size
        finite = self.rmax if np.isfinite(self.rmax) else self.rmin
        self.scale = float(max(np.max(np.abs(self.center), initial=0.0), finite))

    def contains(self, points):
        p = _as_points(points, self.dim)
        return self.contains_radius(np.linalg.norm(p - self.center, axis=-1))

    def contains_radius(self, r):
        """Membership of points at distances r from the center."""
        t = self.tol
        ok = r >= self.rmin - t
        if np.isfinite(self.rmax):
            ok = ok & (r <= self.rmax + t)
        return ok

    def __repr__(self):
        return f"Annulus({self.center.tolist()}, {self.rmin}, {self.rmax})"


# ------------------------------------------------------------------- charts


class ChartMap:
    """Invertible map with an analytic Jacobian.

    Subclasses implement the raw math in _forward/_inverse/_jacobian; the
    public methods validate dimensions and domain membership first.
    """

    dim = None            # None means any dimension
    domain = FullSpace()  # where forward/jacobian may be evaluated
    image = FullSpace()   # where inverse may be evaluated
    is_affine = False     # True when the Jacobian is constant everywhere

    def forward(self, points):
        p = _as_points(points, self.dim)
        self._require(self.domain.contains(p), p, PointOutsideDomain,
                      f"outside the domain of {self!r}")
        return self._forward(p)

    def inverse(self, points):
        q = _as_points(points, self.dim)
        self._require(self.image.contains(q), q, PointOutsideImage,
                      f"outside the image of {self!r}")
        return self._inverse(q)

    def jacobian(self, points):
        p = _as_points(points, self.dim)
        self._require(self.domain.contains(p), p, PointOutsideDomain,
                      f"outside the domain of {self!r}")
        return self._jacobian(p)

    def is_identity(self):
        return False

    @staticmethod
    def _require(ok, pts, exc, what):
        ok = np.asarray(ok)
        if not ok.all():
            if ok.shape:
                bad = np.asarray(pts)[~ok].reshape(-1, np.asarray(pts).shape[-1])[0]
            else:
                bad = np.asarray(pts)
            raise exc(f"point {bad.tolist()} is {what}")

    def _forward(self, p):
        raise NotImplementedError

    def _inverse(self, q):
        raise NotImplementedError

    def _jacobian(self, p):
        raise NotImplementedError


class Identity(ChartMap):
    """The do-nothing chart."""

    is_affine = True

    def __init__(self, dim=None):
        self.dim = dim

    def is_identity(self):
        return True

    def _forward(self, p):
        return p.copy()

    def _inverse(self, q):
        return q.copy()

    def _jacobian(self, p):
        return _eye_like(p)

    def __repr__(self):
        return f"Identity(dim={self.dim})"


class Affine(ChartMap):
    """x -> A x + b with invertible A."""

    is_affine = True

    def __init__(self, A, b=None):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("A must be a square matrix")
        sign, _ = np.linalg.slogdet(A)
        if sign == 0:
            raise NotInvertible("affine map built from a singular matrix")
        self.A = A
        self.b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (A.shape[0],):
            raise DimensionMismatch("translation length does not match A")
        self._Ainv = np.linalg.inv(A)
        self.dim = A.shape[0]
        for arr in (self.A, self.b, self._Ainv):
            arr.flags.writeable = False

    def _forward(self, p):
        return p @ self.A.T + self.b

    def _inverse(self, q):
        return (q - self.b) @ self._Ainv.T

    def _jacobian(self, p):
        return np.broadcast_to(self.A, p.shape[:-1] + self.A.shape)

    def __repr__(self):
        return f"Affine(A={self.A.tolist()}, b={self.b.tolist()})"


def translation(b):
    """Affine map with identity linear part."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return Affine(np.eye(b.size), b)


class AxisScaling(ChartMap):
    """Independent nonzero scale factor per axis."""

    is_affine = True

    def __init__(self, factors):
        f = np.atleast_1d(np.asarray(factors, dtype=float))
        if np.any(f == 0.0):
            raise NotInvertible("axis scaling factors must be nonzero")
        self.factors = f
        self.factors.flags.writeable = False
        self.dim = f.size

    def _forward(self, p):
        return p * self.factors

    def _inverse(self, q):
        return q / self.factors

    def _jacobian(self, p):
        out = np.zeros(p.shape[:-1] + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = self.factors
        return out

    def __repr__(self):
        return f"AxisScaling({self.factors.tolist()})"


class Rotation(ChartMap):
    """Rigid rotation about the origin (2-d) or about an axis (3-d)."""

    is_affine = True

    def __init__(self, angle, axis=None):
        angle = float(angle)
        c, s = np.cos(angle), np.sin(angle)
        if axis is None:
            R = np.array([[c, -s], [s, c]])
        else:
            k = np.asarray(axis, dtype=float)
            if k.shape != (3,):
                raise DimensionMismatch("rotation axis must have 3 components")
            norm = np.linalg.norm(k)
            if norm == 0.0:
                raise NotInvertible("rotation axis must be nonzero")
            k = k / norm
            K = np.array([[0.0, -k[2], k[1]],
                          [k[2], 0.0, -k[0]],
                          [-k[1], k[0], 0.0]])
            R = c * np.eye(3) + s * K + (1.0 - c) * np.outer(k, k)
        self.angle = angle
        self.axis = None if axis is None else k
        self._R = R
        self._R.flags.writeable = False
        self.dim = R.shape[0]

    def _forward(self, p):
        return p @ self._R.T

    def _inverse(self, q):
        return q @ self._R

    def _jacobian(self, p):
        return np.broadcast_to(self._R, p.shape[:-1] + self._R.shape)

    def __repr__(self):
        if self.axis is None:
            return f"Rotation({self.angle})"
        return f"Rotation({self.angle}, axis={self.axis.tolist()})"


class _RadialMap(ChartMap):
    """Radius-only reparameterization about a center.

    x -> center + (rho(r)/r) (x - center) with r = |x - center|. The Jacobian
    is (rho/r) I + (rho' - rho/r) e e^T with e the unit radial direction.
    Subclasses provide the profile rho, its derivative, and its inverse.
    """

    def __init__(self, center, dim):
        if center is None:
            center = np.zeros(2 if dim is None else dim)
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.center.flags.writeable = False
        self.dim = self.center.size

    def _rho(self, r):
        raise NotImplementedError

    def _drho(self, r):
        raise NotImplementedError

    def _rho_inverse(self, R):
        raise NotImplementedError

    def _offsets(self, p):
        d = p - self.center
        r = np.linalg.norm(d, axis=-1)
        if np.any(r == 0.0):
            raise PointOutsideDomain(
                f"{type(self).__name__} is undefined at its center"
            )
        return d, r

    def _forward(self, p):
        d, r = self._offsets(p)
        return self.center + (self._rho(r) / r)[..., None] * d

    def _inverse(self, q):
        d, R = self._offsets(q)
        r = self._rho_inverse(R)
        if not np.all(np.isfinite(r)):
            raise PointOutsideImage(
                f"{type(self).__name__} inverse evaluated at or beyond its image boundary"
            )
        return self.center + (r / R)[..., None] * d

    def _jacobian(self, p):
        d, r = self._offsets(p)
        e = d / r[..., None]
        f = self._rho(r) / r
        g = self._drho(r) - f
        J = f[..., None, None] * np.eye(self.dim)
        J = J + g[..., None, None] * (e[..., :, None] * e[..., None, :])
        return J


class PolarStretch(_RadialMap):
    """Power-law radial stretch r -> scale * r**exponent about a center."""

    def __init__(self, scale=1.0, exponent=1.0, center=None, dim=2):
        super().__init__(center, dim)
        self.scale = float(scale)
        self.exponent = float(exponent)
        if self.scale <= 0.0 or self.exponent <= 0.0:
            raise NotInvertible("polar stretch needs positive scale and exponent")
        self.domain = Annulus(self.center, 0.0, np.inf)
        self.image = Annulus(self.center, 0.0, np.inf)

    def _rho(self, r):
        return self.scale * r ** self.exponent

    def _drho(self, r):
        return self.scale * self.exponent * r ** (self.exponent - 1.0)

    def _rho_inverse(self, R):
        return (R / self.scale) ** (1.0 / self.exponent)

    def __repr__(self):
        return (f"PolarStretch(scale={self.scale}, exponent={self.exponent}, "
                f"center={self.center.tolist()})")


class KelvinShell(_RadialMap):
    """Compresses the unbounded exterior of a sphere into a finite shell.

    Radii map by R(r) = b - a (b - a) / r, so R(a) = a and R -> b as
    r -> infinity: everything outside radius a lands in the shell a <= R < b,
    with the outer boundary standing in for infinity.
    """

    def __init__(self, a, b, center=None, dim=2):
        super().__init__(center, dim)
        self.a = float(a)
        self.b = float(b)
        if not 0.0 < self.a < self.b:
            raise ValueError("shell radii must satisfy 0 < a < b")
        self.domain = Annulus(self.center, self.a, np.inf)
        self.image = Annulus(self.center, self.a, self.b)

    def _rho(self, r):
        return self.b - self.a * (self.b - self.a) / r

    def _drho(self, r):
        return self.a * (self.b - self.a) / r ** 2

    def _rho_inverse(self, R):
        with np.errstate(divide="ignore"):
            return self.a * (self.b - self.a) / (self.b - R)

    def __repr__(self):
        return f"KelvinShell({self.a}, {self.b}, center={self.center.tolist()})"


class PiecewiseRadial(ChartMap):
    """Identity inside a sphere, a radial map outside, continuous at the split.

    The outer map must fix the split sphere pointwise (checked on a sample of
    directions at construction). On the split sphere itself the outer branch
    is used for Jacobians; the two branches agree in value there.
    """

    def __init__(self, split_radius, outer, center=None):
        self.split_radius = float(split_radius)
        if self.split_radius <= 0.0:
            raise ValueError("split radius must be positive")
        self.outer = outer
        self.dim = outer.dim
        if self.dim is None:
            raise DimensionMismatch("the outer map must have a fixed dimension")
        if center is None:
            center = np.zeros(self.dim)
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.center.flags.writeable = False
        self._check_continuity()
        outer_image = outer.image
        if isinstance(outer_image, Annulus) and np.isfinite(outer_image.rmax):
            self.image = Annulus(self.center, 0.0, outer_image.rmax)

    def _check_continuity(self):
        a = self.split_radius
        if self.dim == 2:
            ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            ring = self.center + a * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            rng = np.random.default_rng(0)
            dirs = rng.standard_normal((32, self.dim))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            ring = self.center + a * dirs
        gap = np.linalg.norm(self.outer.forward(ring) - ring, axis=-1).max()
        if gap > 1e-9 * a:
            raise ValueError(
                "outer map does not fix the split sphere: largest gap "
                f"{gap:.3e} at radius {a}"
            )

    # The public methods take the radius about the center once: it gives
    # this map's own domain or image check, the split, and the outer map's
    # check when that map's set is an annulus about the same center. The
    # outer map is then called through its private evaluators.

    def forward(self, points):
        return self._checked(points, "domain", np.copy, "_forward")

    def inverse(self, points):
        return self._checked(points, "image", np.copy, "_inverse")

    def jacobian(self, points):
        return self._checked(points, "domain", _eye_like, "_jacobian")

    def _forward(self, p):
        return self._branches(p, self._radius(p), "domain", np.copy,
                              "_forward")

    def _inverse(self, q):
        return self._branches(q, self._radius(q), "image", np.copy,
                              "_inverse")

    def _jacobian(self, p):
        return self._branches(p, self._radius(p), "domain", _eye_like,
                              "_jacobian")

    def _radius(self, p):
        return np.linalg.norm(p - self.center, axis=-1)

    def _checked(self, points, where, inner, evaluator):
        p = _as_points(points, self.dim)
        r = self._radius(p)
        self._check(self, where, p, r)
        return self._branches(p, r, where, inner, evaluator)

    def _check(self, chart, where, p, r):
        """chart's domain or image check (where) on points p at radii r."""
        region = getattr(chart, where)
        if isinstance(region, Annulus) \
                and np.array_equal(region.center, self.center):
            ok = region.contains_radius(r)
        else:
            ok = region.contains(p)
        exc = PointOutsideImage if where == "image" else PointOutsideDomain
        self._require(ok, p, exc, f"outside the {where} of {chart!r}")

    def _branches(self, p, r, where, inner, evaluator):
        """inner(p) with the outer map's values at the points on or past
        the split, checked first; when every point lies on one side, only
        that side is evaluated."""
        mask = r >= self.split_radius
        if not mask.any():
            return inner(p)
        outer = getattr(self.outer, evaluator)
        if mask.all():
            self._check(self.outer, where, p, r)
            return outer(p)
        out = inner(p)
        p_out = p[mask]
        self._check(self.outer, where, p_out, r[mask])
        out[mask] = outer(p_out)
        return out

    def __repr__(self):
        return (f"PiecewiseRadial({self.split_radius}, {self.outer!r}, "
                f"center={self.center.tolist()})")


class AxisPiecewiseLinear(ChartMap):
    """Monotone piecewise-linear rescaling of a single axis.

    Breakpoints and their images must both be strictly increasing. Outside
    the breakpoint range the end segments extend with their slopes, so the
    map is defined and invertible on all of R^n. At a breakpoint the
    right-hand segment supplies the Jacobian.
    """

    def __init__(self, axis, breaks, images, dim=2):
        self.axis = int(axis)
        self.breaks = np.asarray(breaks, dtype=float)
        self.images = np.asarray(images, dtype=float)
        if self.breaks.ndim != 1 or self.breaks.shape != self.images.shape:
            raise DimensionMismatch("breakpoints and images must match in length")
        if self.breaks.size < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(self.breaks) <= 0) or np.any(np.diff(self.images) <= 0):
            raise NotInvertible("breakpoints and images must be strictly increasing")
        self.dim = int(dim)
        if not 0 <= self.axis < self.dim:
            raise DimensionMismatch("axis index outside the chart dimension")
        self.slopes = np.diff(self.images) / np.diff(self.breaks)
        for arr in (self.breaks, self.images, self.slopes):
            arr.flags.writeable = False

    @staticmethod
    def _segment(t, breaks, nseg):
        k = np.searchsorted(breaks, t, side="right") - 1
        return np.clip(k, 0, nseg - 1)

    def _map1d(self, t, breaks, images, slopes):
        k = self._segment(t, breaks, slopes.size)
        return images[k] + slopes[k] * (t - breaks[k])

    def _forward(self, p):
        out = p.copy()
        out[..., self.axis] = self._map1d(
            p[..., self.axis], self.breaks, self.images, self.slopes)
        return out

    def _inverse(self, q):
        out = q.copy()
        out[..., self.axis] = self._map1d(
            q[..., self.axis], self.images, self.breaks, 1.0 / self.slopes)
        return out

    def _jacobian(self, p):
        J = _eye_like(p)
        k = self._segment(p[..., self.axis], self.breaks, self.slopes.size)
        J[..., self.axis, self.axis] = self.slopes[k]
        return J

    def __repr__(self):
        return (f"AxisPiecewiseLinear(axis={self.axis}, "
                f"breaks={self.breaks.tolist()}, images={self.images.tolist()})")


class Composite(ChartMap):
    """Composition of charts, applied first to last."""

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("a composite needs at least one member")
        dims = {m.dim for m in members if m.dim is not None}
        if len(dims) > 1:
            raise DimensionMismatch(f"member dimensions disagree: {sorted(dims)}")
        self.members = members
        self.dim = dims.pop() if dims else None
        self.domain = members[0].domain
        self.image = members[-1].image
        self.is_affine = all(m.is_affine for m in members)

    def is_identity(self):
        return all(m.is_identity() for m in self.members)

    def _forward(self, p):
        for m in self.members:
            p = m.forward(p)
        return p

    def _inverse(self, q):
        for m in reversed(self.members):
            q = m.inverse(q)
        return q

    def _jacobian(self, p):
        J = self.members[0].jacobian(p)
        x = self.members[0].forward(p)
        for m in self.members[1:]:
            J = matmul(m.jacobian(x), J)
            x = m.forward(x)
        return J

    def __repr__(self):
        return f"Composite({list(self.members)!r})"


# --------------------------------------------------------------- operations


def push_forward(J, v):
    """Transport a coordinate increment: dr_out = J dr_in."""
    J = np.asarray(J, dtype=float)
    v = np.asarray(v, dtype=float)
    if J.shape[-1] != v.shape[-1]:
        raise DimensionMismatch("Jacobian and vector dimensions disagree")
    return np.einsum("...ij,...j->...i", J, v)


def inner_product(S, v, w):
    """Metric inner product v^T S w; S must be symmetric."""
    S = np.asarray(S, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if S.shape[-1] != S.shape[-2]:
        raise DimensionMismatch("metric must be square")
    if v.shape[-1] != S.shape[-1] or w.shape[-1] != S.shape[-1]:
        raise DimensionMismatch("vector and metric dimensions disagree")
    asym = np.abs(S - np.swapaxes(S, -1, -2)).max()
    if asym > 1e-10 * max(np.abs(S).max(), 1e-300):
        raise ValueError("metric must be symmetric")
    return np.einsum("...i,...ij,...j->...", v, S, w)


# ------------------------------------------------------------ metric fields


def region_entry(table, default, region):
    """A field's entry for a region tag: the region's own, else the
    default, else the only entry when no region is named; None otherwise."""
    if region in table:
        return table[region]
    if default is not None:
        return default
    if region is None and len(table) == 1:
        return next(iter(table.values()))
    return None


class MetricField:
    """Symmetric positive definite tensor field S(x) on a chart codomain.

    Evaluators are vectorized over points. Fields built from a constant
    matrix advertise it through constant_matrix(), which quadrature
    selection exploits. A field may also be assembled per region tag.
    """

    def __init__(self, dim, *, constant=None, fn=None, regions=None,
                 default=None):
        given = sum(x is not None for x in (constant, fn, regions))
        if given != 1:
            raise ValueError("give exactly one of constant, fn, regions")
        self.dim = int(dim)
        self._fn = fn
        self._constant = None
        self._regions = None
        self._default = None
        if constant is not None:
            S = np.asarray(constant, dtype=float)
            if S.shape != (self.dim, self.dim):
                raise DimensionMismatch("metric matrix shape disagrees with dim")
            if np.abs(S - S.T).max() > 1e-10 * max(np.abs(S).max(), 1e-300):
                raise ValueError("metric matrix must be symmetric")
            if np.any(np.linalg.eigvalsh(S) <= 0.0):
                raise ValueError("metric matrix must be positive definite")
            S = S.copy()
            S.flags.writeable = False
            self._constant = S
        if regions is not None:
            table = {}
            for tag, entry in regions.items():
                if not isinstance(entry, MetricField):
                    entry = MetricField(self.dim, constant=entry)
                table[tag] = entry
            self._regions = table
            if default is not None and not isinstance(default, MetricField):
                default = MetricField(self.dim, constant=default)
            self._default = default

    @classmethod
    def euclidean(cls, dim):
        return cls(dim, constant=np.eye(dim))

    @classmethod
    def by_region(cls, dim, mapping, default=None):
        return cls(dim, regions=mapping, default=default)

    def is_euclidean(self, region=None):
        """True when the field is constant and within 1e-12 of I for the
        region."""
        S = self.constant_matrix(region)
        return S is not None and np.abs(S - np.eye(self.dim)).max() <= 1e-12

    def region_tags(self):
        """Tags with an entry of their own; empty unless built by region."""
        return tuple(self._regions or ())

    def constant_matrix(self, region=None):
        """The field's constant value, or None when it varies."""
        if self._constant is not None:
            return self._constant
        if self._regions is not None:
            entry = region_entry(self._regions, self._default, region)
            if entry is not None:
                return entry.constant_matrix()
        return None

    def eval(self, points, region=None):
        """Metric matrices at the given points, shape (..., n, n)."""
        p = _as_points(points, self.dim)
        if self._constant is not None:
            return np.broadcast_to(self._constant, p.shape[:-1] + (self.dim, self.dim))
        if self._regions is not None:
            entry = region_entry(self._regions, self._default, region)
            if entry is None:
                raise UnknownTag(
                    f"metric field has no entry for region {region!r}")
            return entry.eval(p)
        out = np.asarray(self._fn(p), dtype=float)
        want = p.shape[:-1] + (self.dim, self.dim)
        if out.shape != want:
            out = np.broadcast_to(out, want)
        return out

    def __repr__(self):
        kind = ("constant" if self._constant is not None
                else "regions" if self._regions is not None else "fn")
        return f"MetricField(dim={self.dim}, kind={kind})"
