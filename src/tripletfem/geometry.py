"""Coordinate charts, their Jacobians, interior shapes, and tensor fields.

Charts are invertible differentiable maps of R^n onto their image. Every
family carries an analytic Jacobian; nothing here is ever differenced
numerically. All evaluators are vectorized over leading axes: points
have shape (..., n), Jacobians (..., n, n). Charts are immutable after
construction. Box and Annulus are the shapes an open-boundary problem's
interior may take.
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


def _cross(a, b):
    """a x b from lists of three component arrays, each component formed
    as np.cross forms it."""
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _dot(a, b):
    """a . b from lists of three component arrays, added left to right as
    np.sum adds a trailing axis of length 3."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _rows(M):
    """The rows of a stack of 3x3 matrices as lists of entry arrays."""
    return [[M[..., i, j] for j in range(3)] for i in range(3)]


def det(M):
    """Determinants of a stack of square matrices, shape (..., n, n).

    2x2 and 3x3 stacks use the cofactor expansion along the first row,
    built from the entry arrays M[..., i, j], so each matrix costs a few
    flops instead of one LAPACK call; other sizes go through LAPACK. A
    3x3 result has the bits of np.sum(M[..., 0, :] * np.cross(M[..., 1,
    :], M[..., 2, :]), axis=-1), except that an exact zero may be -0.0.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    if n == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    if n == 3:
        r = _rows(M)
        return _dot(r[0], _cross(r[1], r[2]))
    return np.linalg.det(M)


def adjugate(M):
    """(determinants, {(i, j): adjugate entry}) of a stack of 2x2 or 3x3
    matrices, shape (..., n, n), formed from the entry arrays M[..., i, j]:
    the one adjugate formula of the package, under inv and the basis
    gradients (fem._p1_gradients). Each entry array is read once per
    product, so a component-major stack, whose entry arrays are
    contiguous, streams. The determinants are det's, bit for bit."""
    if M.shape[-1] == 2:
        a, b = M[..., 0, 0], M[..., 0, 1]
        c, d = M[..., 1, 0], M[..., 1, 1]
        return a * d - b * c, {(0, 0): d, (0, 1): -b, (1, 0): -c, (1, 1): a}
    r = _rows(M)
    # the adjugate's columns are the cross products of row pairs
    cols = [_cross(r[1], r[2]), _cross(r[2], r[0]), _cross(r[0], r[1])]
    return (_dot(r[0], cols[0]),
            {(i, j): cols[j][i] for i in range(3) for j in range(3)})


def inv(M):
    """Inverses of a stack of square matrices, shape (..., n, n).

    2x2 and 3x3 stacks divide the adjugate by the determinant, entry by
    entry into one C-ordered output, whatever the memory order of M;
    other sizes go through LAPACK. The determinant is det's, bit for bit.
    Raises np.linalg.LinAlgError when a determinant is exactly zero, as
    LAPACK does on a zero pivot.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-1] not in (2, 3):
        return np.linalg.inv(M)
    dets, adj = adjugate(M)
    if np.any(dets == 0.0):
        raise np.linalg.LinAlgError("Singular matrix")
    out = np.empty(M.shape)
    for (i, j), entry in adj.items():
        np.divide(entry, dets, out=out[..., i, j])
    return out


def _first_if_repeated(M):
    """M's first matrix as a (1, n, n) stack when every matrix of the
    stack equals it exactly, else None. A stack broadcast from one matrix
    (stride zero on every leading axis) repeats without a scan, even NaN,
    which the caller's finiteness check then meets; scanned, NaN never
    repeats. The last matrix is compared first, so most stacks that vary
    are turned down without a full scan."""
    if M.size == 0:
        return None
    first = M[(0,) * (M.ndim - 2)]
    repeated = not any(M.strides[:-2]) or (
        np.all(M[(-1,) * (M.ndim - 2)] == first) and np.all(M == first))
    return first[None] if repeated else None


def _once_if_repeated(fn, *stacks):
    """fn(*stacks), the one repeat rule of the pointwise transforms and
    of Composite's Jacobian product.

    When every stack repeats one matrix exactly (_first_if_repeated), fn
    runs once on the (1, n, n) first slices and its result is returned
    broadcast over the stacks' leading shape, with stride zero on every
    leading axis, which spares the next transform its scan and lets
    assembly integrate with one point. fn's kernels (inv, det, matmul)
    work matrix by matrix, so the bits are those of the full stacks, and
    so are the errors: a singular or non-finite matrix that repeats is
    the first slice. Otherwise fn runs on the full stacks.
    """
    firsts = []
    for M in stacks:
        first = _first_if_repeated(M)
        if first is None:
            return fn(*stacks)
        firsts.append(first)
    lead = np.broadcast_shapes(*(M.shape[:-2] for M in stacks))
    out = fn(*firsts)
    return np.broadcast_to(out[0], lead + out.shape[1:])


# ----------------------------------------------------------- interior shapes


class Box:
    """Axis-aligned box {lo <= x <= hi}."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box corners disagree in dimension")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError(f"box corners must be finite, got "
                             f"{self.lo.tolist()} and {self.hi.tolist()}")
        if np.any(self.hi <= self.lo):
            raise ValueError("box needs positive extent along every axis")
        self.dim = self.lo.size

    def __repr__(self):
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


class Annulus:
    """Spherical shell {rmin <= |x - center| <= rmax}; rmax may be inf."""

    def __init__(self, center, rmin, rmax=np.inf):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.rmin = float(rmin)
        self.rmax = float(rmax)
        if not (np.isfinite(self.center).all() and np.isfinite(self.rmin)) \
                or np.isnan(self.rmax):
            raise ValueError(
                f"annulus needs a finite center and rmin and an rmax that "
                f"is not NaN, got {self.center.tolist()}, {self.rmin}, "
                f"{self.rmax}")
        if self.rmin < 0 or self.rmax <= self.rmin:
            raise ValueError("annulus radii must satisfy 0 <= rmin < rmax")
        self.dim = self.center.size

    def __repr__(self):
        return f"Annulus({self.center.tolist()}, {self.rmin}, {self.rmax})"


# ------------------------------------------------------------------- charts


class ChartMap:
    """Invertible map with an analytic Jacobian.

    Subclasses implement the raw math in _forward/_inverse/_jacobian; the
    public methods check the points' dimension and that every coordinate
    is finite first. No chart has a bounded domain, so finiteness is the
    one check they share; the few finite points a chart refuses (a radial
    map's center, points at or past the shell's rim, a point whose image
    overflows) it refuses in its own evaluators, the last through _finite.
    """

    dim = None  # None means any dimension

    def forward(self, points):
        return self._forward(self._finite(points, PointOutsideDomain))

    def inverse(self, points):
        return self._inverse(self._finite(points, PointOutsideImage))

    def jacobian(self, points):
        return self._jacobian(self._finite(points, PointOutsideDomain))

    def is_identity(self):
        return False

    def _finite(self, points, exc, values=None):
        """The points, unless one, or its given values, is not finite."""
        p = _as_points(points, self.dim)
        v = p if values is None else values
        # one flat test; the offending point is looked for only on failure
        if not np.isfinite(v).all():
            bad = ~np.isfinite(v).reshape(p.shape[:-1] + (-1,)).all(axis=-1)
            where = "the image" if exc is PointOutsideImage else "the domain"
            raise exc(
                f"point {p[bad][0].tolist()} is outside {where} of {self!r}")
        return p

    def _forward(self, p):
        raise NotImplementedError

    def _inverse(self, q):
        raise NotImplementedError

    def _jacobian(self, p):
        raise NotImplementedError


class Identity(ChartMap):
    """The do-nothing chart."""

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

    def __init__(self, factors):
        f = np.atleast_1d(np.asarray(factors, dtype=float))
        if np.any(f == 0.0):
            raise NotInvertible("axis scaling factors must be nonzero")
        self.factors = f
        self._D = np.diag(f)
        for arr in (self.factors, self._D):
            arr.flags.writeable = False
        self.dim = f.size

    def _forward(self, p):
        return p * self.factors

    def _inverse(self, q):
        return q / self.factors

    def _jacobian(self, p):
        return np.broadcast_to(self._D, p.shape[:-1] + self._D.shape)

    def __repr__(self):
        return f"AxisScaling({self.factors.tolist()})"


class Rotation(ChartMap):
    """Rigid rotation about the origin (2-d) or about an axis (3-d)."""

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


def _offset(p, center):
    """d = p - center and |d|: np.linalg.norm's bits where finite and
    nonzero, else m |d / m| for d's largest |component| m (or m itself)."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = p - center
        r = np.asarray(np.linalg.norm(d, axis=-1))
        redo = ~np.isfinite(r) | (r == 0.0)
        if redo.any():
            m = np.abs(d[redo]).max(axis=-1)
            scaled = m * np.linalg.norm(d[redo] / m[..., None], axis=-1)
            r[redo] = np.where(np.isnan(scaled), m, scaled)
    return d, r


class _RadialMap(ChartMap):
    """Radius-only reparameterization about a center.

    x -> center + (rho(r)/r) (x - center) with r = |x - center|. The Jacobian
    is (rho/r) I + (rho' - rho/r) e e^T with e the unit radial direction.
    Subclasses provide the profile rho, its derivative, and its inverse;
    KelvinShell evaluates this map only on or past its radius a. The
    center has dim coordinates (the origin by default). The center itself
    is refused, and so is an image point whose preimage radius is not
    finite and positive: that refusal is the shell's one check of its
    rim, and it names the first such point; so is one whose image overflows.
    """

    def __init__(self, center, dim):
        self.dim = int(dim)
        if center is None:
            center = np.zeros(self.dim)
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        if self.center.shape != (self.dim,):
            raise DimensionMismatch(
                f"a {self.dim}-d {type(self).__name__} needs a center with "
                f"{self.dim} coordinates, got {self.center.size}")
        self.center.flags.writeable = False

    def _rho(self, r):
        raise NotImplementedError

    def _drho(self, r):
        raise NotImplementedError

    def _rho_inverse(self, R):
        raise NotImplementedError

    def _offsets(self, p, exc=PointOutsideDomain):
        d, r = _offset(p, self.center)
        if np.any(r == 0.0):
            raise exc(f"{type(self).__name__} is undefined at its center")
        return d, r

    def _forward(self, p):
        d, r = self._offsets(p)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.center + (self._rho(r) / r)[..., None] * d
        self._finite(p, PointOutsideDomain, out)
        return out

    def _inverse(self, q):
        d, R = self._offsets(q, PointOutsideImage)
        with np.errstate(over="ignore"):
            r = self._rho_inverse(R)
        # the one rim check: past the rim the preimage radius is finite
        # and negative, on the far side of the center; at it, infinite
        ok = np.isfinite(r) & (r > 0.0)
        if not ok.all():
            raise PointOutsideImage(
                f"point {q[~ok][0].tolist()} is outside the image of {self!r}: "
                f"{type(self).__name__} inverse evaluated at or beyond its "
                f"image boundary")
        return self.center + (r / R)[..., None] * d

    def _jacobian(self, p):
        d, r = self._offsets(p)
        with np.errstate(over="ignore", invalid="ignore"):
            e = d / r[..., None]
            f = self._rho(r) / r
            g = self._drho(r) - f
            J = f[..., None, None] * np.eye(self.dim)
            J = J + g[..., None, None] * (e[..., :, None] * e[..., None, :])
        self._finite(p, PointOutsideDomain, J)
        return J


class PolarStretch(_RadialMap):
    """Power-law radial stretch r -> scale * r**exponent about a center."""

    def __init__(self, scale=1.0, exponent=1.0, center=None, dim=2):
        super().__init__(center, dim)
        self.scale = float(scale)
        self.exponent = float(exponent)
        if self.scale <= 0.0 or self.exponent <= 0.0:
            raise NotInvertible("polar stretch needs positive scale and exponent")

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
    """Folds the unbounded exterior of a sphere into a finite shell and
    leaves the inside alone.

    Inside radius a the map is the identity. From radius a on, radii map
    by R(r) = b - a (b - a) / r, so R(a) = a and R -> b as r -> infinity:
    everything outside radius a lands in the shell a <= R < b, with the
    outer boundary standing in for infinity. The two branches agree on
    the sphere r = a, where the shell branch supplies the Jacobian. The
    map is defined on all of R^n; its image is the open ball R < b, and
    inverse refuses every point at or past the rim R = b, which has no
    finite preimage.
    """

    def __init__(self, a, b, center=None, dim=2):
        super().__init__(center, dim)
        self.a = float(a)
        self.b = float(b)
        if not 0.0 < self.a < self.b:
            raise ValueError("shell radii must satisfy 0 < a < b")

    def _rho(self, r):
        return self.b - self.a * (self.b - self.a) / r

    def _drho(self, r):
        return self.a * (self.b - self.a) / r ** 2

    def _rho_inverse(self, R):
        with np.errstate(divide="ignore"):
            return self.a * (self.b - self.a) / (self.b - R)

    def _folded(self, p, inner, shell):
        """inner(p) with shell's values at the points on or past radius a;
        when every point lies on one side, only that side is evaluated."""
        mask = _offset(p, self.center)[1] >= self.a
        if not mask.any():
            return inner(p)
        if mask.all():
            return shell(p)
        out = inner(p)
        out[mask] = shell(p[mask])
        return out

    def _forward(self, p):
        return self._folded(p, np.copy, super()._forward)

    def _inverse(self, q):
        return self._folded(q, np.copy, super()._inverse)

    def _jacobian(self, p):
        return self._folded(p, _eye_like, super()._jacobian)

    def __repr__(self):
        return f"KelvinShell({self.a}, {self.b}, center={self.center.tolist()})"


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
        # each segment's one Jacobian: the identity with its slope
        self._J = np.zeros((self.slopes.size, self.dim, self.dim))
        self._J[:] = np.eye(self.dim)
        self._J[:, self.axis, self.axis] = self.slopes
        for arr in (self.breaks, self.images, self.slopes, self._J):
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
        """The segments' matrices at the points; where every point lies
        in one segment, its one matrix broadcast (stride zero), as
        AxisScaling's, so the repeat rule forms what follows once."""
        t, nseg = p[..., self.axis], self.slopes.size
        # the segment grows with t, so the extremes tell whether every
        # point lies in one
        if t.size:
            k = self._segment(np.array([t.min(), t.max()]), self.breaks, nseg)
            if k[0] == k[1]:
                J = self._J[k[0]]
                return np.broadcast_to(J, t.shape + J.shape)
        return self._J[self._segment(t, self.breaks, nseg)]

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
            J = _once_if_repeated(matmul, m.jacobian(x), J)
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


# ------------------------------------------------------------ tensor fields


def material_matrix(eps, dim):
    """Normalize a field value, a material's or a metric's: scalars
    mean isotropic eps * I."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim >= 2 and eps.shape[-2:] == (dim, dim):
        return eps
    if eps.ndim >= 2:
        raise DimensionMismatch(
            f"material matrix shape {eps.shape[-2:]} disagrees with dimension {dim}")
    return eps[..., None, None] * np.eye(dim)


def eval_entry(entry, points, dim):
    """A field entry (scalar, matrix, or pointwise evaluator returning
    either) as full matrices at the points, shape (..., n, n)."""
    if callable(entry):
        out = np.asarray(entry(points), dtype=float)
        if out.shape == points.shape[:-1]:  # a scalar per point, (E, Q) too
            out = out[..., None, None] * np.eye(dim)
    else:
        out = np.asarray(entry, dtype=float)
    out = material_matrix(out, dim)
    want = points.shape[:-1] + (dim, dim)
    if out.shape != want:
        out = np.broadcast_to(out, want)
    return out


class TensorField:
    """Region-tagged tensor field on a chart codomain: the one region
    lookup behind both the metric and the material.

    `regions` maps region tags to entries and `default` covers tags
    without one. An entry is a value (a scalar meaning that multiple of
    I, or an (n, n) matrix) or a pointwise evaluator returning either.
    An entry is never itself a field: evaluated on its own, a nested
    field would not know the region it stands for.
    """

    def __init__(self, dim, regions=None, default=None):
        self.dim = int(dim)
        self.regions = {tag: self._check_entry(e)
                        for tag, e in (regions or {}).items()}
        self.default = None if default is None else self._check_entry(default)
        if not self.regions and self.default is None:
            raise ValueError(f"{type(self).__name__} needs at least one entry")

    def _check_entry(self, entry):
        """The entry as stored; subclasses validate constant entries."""
        if isinstance(entry, TensorField):
            raise TypeError(
                f"a field entry is a value or a pointwise evaluator, not "
                f"{entry!r}; pass one of its entries instead")
        return entry

    def entry(self, region=None):
        """The region's own entry, else the default, else the only entry
        when no region is named."""
        if region in self.regions:
            return self.regions[region]
        if self.default is not None:
            return self.default
        if region is None and len(self.regions) == 1:
            return next(iter(self.regions.values()))
        raise UnknownTag(
            f"{type(self).__name__} has no entry for region {region!r}")

    def region_tags(self):
        """Tags with an entry of their own."""
        return tuple(self.regions)

    def constant_matrix(self, region=None):
        """The region's constant matrix; None when it varies pointwise or
        the region has no entry (eval then raises UnknownTag)."""
        try:
            entry = self.entry(region)
        except UnknownTag:
            return None
        if callable(entry):
            return None
        return material_matrix(entry, self.dim)

    def eval(self, points, region=None):
        """The region's matrices at the given points, shape (..., n, n)."""
        p = _as_points(points, self.dim)
        return eval_entry(self.entry(region), p, self.dim)

    def map_entries(self, fn):
        """A field of the same kind holding fn(entry, tag) in place of
        every entry; the default's tag is None."""
        regions = {tag: fn(e, tag) for tag, e in self.regions.items()}
        default = None if self.default is None else fn(self.default, None)
        return type(self)(self.dim, regions=regions, default=default)

    def with_entry(self, tag, entry):
        """A field of the same kind with `entry` for the region `tag` and
        every other entry, the default included, kept."""
        return type(self)(self.dim, regions={**self.regions, tag: entry},
                          default=self.default)

    def spread_default(self, tags):
        """A field of the same kind in which each of `tags` without an
        entry of its own holds the default as one. A map_entries that
        depends on the tag, such as a pull-back against a by-region
        metric, then sees those regions by name."""
        if self.default is None:
            return self
        regions = dict.fromkeys(tags, self.default)
        regions.update(self.regions)
        return type(self)(self.dim, regions=regions, default=self.default)

    def __repr__(self):
        tags = sorted(map(repr, self.regions))
        return (f"{type(self).__name__}(dim={self.dim}, "
                f"regions=[{', '.join(tags)}], "
                f"default={'set' if self.default is not None else 'none'})")


class MetricField(TensorField):
    """Symmetric positive definite metric S(x) on a chart codomain.

    Give exactly one of `constant` (an (n, n) matrix), `fn` (a pointwise
    evaluator), or `regions` (a table of either, with an optional
    `default`). Constant entries are checked for shape, symmetry and
    positive definiteness and stored read-only; constant_matrix()
    returns them, and is_euclidean reads it.
    """

    def __init__(self, dim, *, constant=None, fn=None, regions=None,
                 default=None):
        given = sum(x is not None for x in (constant, fn, regions))
        if given != 1 or (default is not None and regions is None):
            raise ValueError("give exactly one of constant, fn, regions; "
                             "a default goes with regions")
        if regions is None:
            default = fn if constant is None else constant
        super().__init__(dim, regions=regions, default=default)

    def _check_entry(self, entry):
        entry = super()._check_entry(entry)
        if callable(entry):
            return entry
        S = np.asarray(entry, dtype=float)
        if S.shape != (self.dim, self.dim):
            raise DimensionMismatch("metric matrix shape disagrees with dim")
        if np.abs(S - S.T).max() > 1e-10 * max(np.abs(S).max(), 1e-300):
            raise ValueError("metric matrix must be symmetric")
        if np.any(np.linalg.eigvalsh(S) <= 0.0):
            raise ValueError("metric matrix must be positive definite")
        S = S.copy()
        S.flags.writeable = False
        return S

    @classmethod
    def euclidean(cls, dim):
        return cls(dim, constant=np.eye(dim))

    @classmethod
    def by_region(cls, dim, mapping, default=None):
        return cls(dim, regions=mapping, default=default)

    def is_euclidean(self, region=None):
        """True when the region's entry is constant and within 1e-12 of I."""
        S = self.constant_matrix(region)
        return S is not None and np.abs(S - np.eye(self.dim)).max() <= 1e-12
