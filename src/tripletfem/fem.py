"""P1 Galerkin assembly of the energy inner product.

The weak form is a(u, v) = int grad(v)^T K grad(u) dx over mesh
coordinates, with K = sym(eps S^-1) evaluated pointwise. The coefficient
K is the only place the metric and the material enter, which is what
makes solves under exchanged {chart, metric, material} triplets land on
the same matrix entries.

Assembly writes every element block into a fixed slice of one flat
buffer (element index order, row-major within the block) and sums the
buffer into CSR with scipy's COO to CSR conversion. A partial update
replaces the blocks of a subset of elements and replays that sum,
recorded and checked once per system (_CsrSum): one np.bincount over
the buffer in scipy's summation order adds each matrix entry's terms in
the order scipy does, so it gives bit-identical results to a full
reassembly with the same inputs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import solver as _solver
from .atlas import Atlas, build_global_index
from .errors import (DegenerateElement, DimensionMismatch, TripletFemError,
                     UnknownTag)
from .geometry import MetricField
from .mesh import _VOLUME_FACTOR, _VOLUME_FLOOR, Mesh
from .triplet import Triplet, effective_coefficient, material_matrix, pull_back

# Relative Frobenius bound the assembled matrix must meet against its
# own transpose. Blocks are symmetrized, so in practice this is exact.
ASSEMBLY_SYMMETRY_RTOL = 1e-14


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


# Barycentric points (rows) and weights summing to one. The second-order
# rules use interior points only; coefficients that blow up on the
# boundary of the mapped domain are therefore never sampled there.
_T4A = 0.5854101966249685
_T4B = 0.1381966011250105
_RULES = {
    ("one_point", 2): (_frozen([[1 / 3, 1 / 3, 1 / 3]]), _frozen([1.0])),
    ("one_point", 3): (_frozen([[0.25, 0.25, 0.25, 0.25]]), _frozen([1.0])),
    ("interior", 2): (_frozen([[2 / 3, 1 / 6, 1 / 6],
                               [1 / 6, 2 / 3, 1 / 6],
                               [1 / 6, 1 / 6, 2 / 3]]),
                      _frozen([1 / 3, 1 / 3, 1 / 3])),
    ("interior", 3): (_frozen([[_T4A, _T4B, _T4B, _T4B],
                               [_T4B, _T4A, _T4B, _T4B],
                               [_T4B, _T4B, _T4A, _T4B],
                               [_T4B, _T4B, _T4B, _T4A]]),
                      _frozen([0.25, 0.25, 0.25, 0.25])),
}

QUADRATURE_NAMES = ("auto", "one_point", "interior")


def quadrature_rule(name, dim):
    """Barycentric points and weights for a named rule.

    one_point: centroid, exact for constant coefficients. interior:
    3 points in 2D, 4 in 3D, exact through quadratic coefficients.
    """
    if name not in ("one_point", "interior"):
        raise ValueError(f"unknown quadrature rule {name!r}; "
                         f"use 'one_point' or 'interior'")
    if dim not in (2, 3):
        raise DimensionMismatch(f"no quadrature table for dimension {dim}")
    return _RULES[(name, dim)]


# ------------------------------------------------------------- problem spec


def _domain_boundary_tags(domain):
    """Tags usable for boundary conditions: glued interface sides of an
    atlas are interior and do not count."""
    if isinstance(domain, Mesh):
        return set(domain.boundary_tags())
    sides = domain.interface_sides()
    tags = set()
    for r in domain.regions:
        for tag in r.mesh.boundary_tags():
            if (r.region_id, tag) not in sides:
                tags.add(tag)
    return tags


@dataclass(frozen=True)
class BVPSpec:
    """An electrostatic boundary value problem posed in one triplet.

    domain is a Mesh in the triplet's chart coordinates, or an Atlas
    whose universal chart is the triplet's frame. dirichlet lists
    (boundary tag, value) pairs; value is a number or a pointwise
    callable of the coordinates the boundary lives in (universal
    coordinates for an atlas). At least one tag is required, otherwise
    the potential is ungrounded and the matrix singular.
    """

    domain: object
    triplet: Triplet
    dirichlet: tuple
    quadrature: str = "auto"

    def __post_init__(self):
        if not isinstance(self.domain, (Mesh, Atlas)):
            raise TypeError("domain must be a Mesh or an Atlas")
        pairs = tuple((str(tag), value) for tag, value in self.dirichlet)
        object.__setattr__(self, "dirichlet", pairs)
        if not pairs:
            raise ValueError("at least one Dirichlet tag is required")
        if self.quadrature not in QUADRATURE_NAMES:
            raise ValueError(f"quadrature must be one of {QUADRATURE_NAMES}, "
                             f"got {self.quadrature!r}")
        available = _domain_boundary_tags(self.domain)
        for tag, _ in pairs:
            if tag not in available:
                raise UnknownTag(
                    f"Dirichlet tag {tag!r} is not a boundary tag; "
                    f"available: {sorted(available)}")

    @property
    def is_atlas(self):
        return isinstance(self.domain, Atlas)


@dataclass
class _Patch:
    """One assembly unit: a mesh plus its placement in the global problem.

    For a plain mesh problem there is a single patch with no chart (the
    mesh already lives in the triplet's coordinates). For an atlas,
    chart maps universal coordinates to the patch's own, and metric is
    the tensor field of the patch's coordinates.
    """

    region_id: object
    mesh: Mesh
    chart: object
    metric: object
    dofs: np.ndarray
    elem_offset: int


def _build_patches(spec):
    if not spec.is_atlas:
        m = spec.domain
        patch = _Patch(None, m, None, None, np.arange(m.n_nodes), 0)
        return [patch], m.n_nodes
    gidx = build_global_index(spec.domain)
    patches = []
    offset = 0
    dim = spec.domain.regions[0].mesh.nodes.shape[1]
    for r in spec.domain.regions:
        metric = r.metric if r.metric is not None else MetricField.euclidean(dim)
        patches.append(_Patch(r.region_id, r.mesh, r.chart, metric,
                              gidx.dofs(r.region_id), offset))
        offset += r.mesh.n_elements
    return patches, gidx.n_dofs


def _decide_rule(spec, patch, tag):
    if spec.quadrature != "auto":
        return spec.quadrature
    t = spec.triplet
    constant = (t.material.constant_matrix(tag) is not None
                and t.metric.constant_matrix(tag) is not None)
    affine = t.chart.is_affine
    if patch.chart is not None:
        affine = affine and patch.chart.is_affine
        constant = constant and patch.metric.constant_matrix(tag) is not None
    return "one_point" if (constant and affine) else "interior"


# ---------------------------------------------------------------- assembly


def _p1_gradients(coords):
    """Constant basis gradients per element, shape (E, d+1, d). Mesh has
    already refused non-finite nodes and degenerate volumes."""
    edges = coords[:, 1:, :] - coords[:, :1, :]
    inv = np.linalg.inv(np.swapaxes(edges, 1, 2))
    grads = np.empty(coords.shape[:1] + (coords.shape[1], coords.shape[2]))
    grads[:, 1:, :] = inv
    grads[:, 0, :] = -np.sum(inv, axis=1)
    return grads


def _coefficient_at(triplet, patch, tag, points):
    """Galerkin coefficient K at quadrature points, shape (..., n, n).

    Plain mesh: K straight from the triplet. Atlas patch: the triplet's
    material and metric live in universal coordinates, so pull the
    material back through the patch chart and pair it with the patch's
    own metric.
    """
    if patch.chart is None:
        return triplet.effective_at(points, tag)
    eps_p = pull_back(triplet.material.entry(tag), patch.chart,
                      triplet.metric, patch.metric, tag)(points)
    return effective_coefficient(eps_p, patch.metric.eval(points, tag))


def _coefficients(triplet, group):
    """K at the group's quadrature points, shape (E, Q, d, d); a failing
    evaluation is localized to the first element it fails on."""
    patch, xq = group.patch, group.xq
    try:
        return _coefficient_at(triplet, patch, group.tag, xq)
    except TripletFemError:
        pass  # localized below
    for i in range(xq.shape[0]):
        try:
            _coefficient_at(triplet, patch, group.tag, xq[i])
        except TripletFemError as err:
            e = int(group.ids[i])
            where = e if patch.region_id is None else \
                f"{e - patch.elem_offset} of region {patch.region_id!r}"
            raise type(err)(f"element {where}: {err}") from None
    # batch failed but every element passed alone; re-run to surface it
    return _coefficient_at(triplet, patch, group.tag, xq)


# Elements per pass of the block kernel: its (d+1, d+1, chunk) work
# arrays stay in cache, and its memory does not grow with the mesh.
_BLOCK_CHUNK = 4096


def _element_blocks(weights, grads, K, vols):
    """Symmetrized stiffness blocks, yielded as (slice, blocks (c, d+1, d+1))
    over chunks of the elements.

    Inside a chunk the element index is the last, contiguous axis. The
    sum over quadrature points q and gradient components (k, l) runs in
    lexicographic order, each term formed as ((w_q g_ak) K_qkl) g_bl:
    that is the order and association np.einsum("q,eak,eqkl,ebl->eab")
    takes on these operands, so the blocks carry its exact bits.
    """
    n, k, dim = grads.shape
    for lo in range(0, n, _BLOCK_CHUNK):
        c = slice(lo, min(lo + _BLOCK_CHUNK, n))
        g = np.ascontiguousarray(grads[c].transpose(1, 2, 0))
        Kc = np.ascontiguousarray(K[c].transpose(1, 2, 3, 0))
        out = np.zeros((k, k, g.shape[2]))
        term = np.empty_like(out)
        for q, w in enumerate(weights):
            for a in range(dim):
                wg = w * g[:, a, :]
                for b in range(dim):
                    np.multiply((wg * Kc[q, a, b])[:, None, :],
                                g[None, :, b, :], out=term)
                    out += term
        out *= vols[c]
        yield c, (0.5 * (out + out.transpose(1, 0, 2))).transpose(2, 0, 1)


@dataclass(frozen=True)
class _Group:
    """Elements of one (patch, region tag) with what their blocks need
    besides the coefficient: gradients, volumes, quadrature points."""

    patch: _Patch
    tag: str
    rule: str
    ids: np.ndarray
    grads: np.ndarray
    vols: np.ndarray
    xq: np.ndarray


class ElementSet:
    """Element ids of one system, prepared for repeated block updates.

    The (patch, region) split, the gathered gradients and volumes, the
    quadrature points and the buffer positions depend on the ids only,
    so a motion sweep takes them once and passes the set to every
    update_elements call.
    """

    def __init__(self, system, element_ids):
        ids = np.unique(np.asarray(element_ids, dtype=int))
        if ids.size and (ids[0] < 0 or ids[-1] >= system.n_elements):
            raise IndexError(
                f"element ids must lie in [0, {system.n_elements})")
        self.system = system
        self.ids = ids
        self.groups = []
        for patch, tag, rule, gids in system._groups(ids):
            bary, _ = quadrature_rule(rule, system.dim)
            xq = np.einsum("qa,ead->eqd", bary, system.coords[gids])
            self.groups.append(_Group(patch, tag, rule, gids,
                                      system.grads[gids], system.vols[gids],
                                      xq))

    @cached_property
    def flat(self):
        """Positions of the set's blocks in the system's block buffer."""
        k2 = self.system._k ** 2
        return (self.ids[:, None] * k2 + np.arange(k2)).ravel()


class AssembledSystem:
    """Stiffness matrix, eliminated boundary data, and the element-block
    buffer that makes partial reassembly exact.

    matrix and rhs are the reduced (free-dof) system; full_matrix keeps
    every dof and is the one the energy quadratic form uses.
    """

    def __init__(self, spec):
        self.spec = spec
        self.triplet = spec.triplet
        patches, n_dofs = _build_patches(spec)
        self.patches = patches
        self.n_dofs = n_dofs
        self.dim = patches[0].mesh.nodes.shape[1]

        coords = np.concatenate([p.mesh.element_coords() for p in patches])
        vols = np.concatenate([p.mesh.volumes() for p in patches])
        dofs = np.concatenate([p.dofs[p.mesh.elements] for p in patches])
        patch_of = np.concatenate([np.full(p.mesh.n_elements, i)
                                   for i, p in enumerate(patches)])
        tag_of = np.concatenate([p.mesh.element_regions for p in patches])
        self.coords = _frozen(coords)
        self.vols = _frozen(vols)
        self.element_dofs = dofs
        self.patch_of = patch_of
        self.tag_of = tag_of
        self.n_elements = coords.shape[0]
        self.grads = _frozen(_p1_gradients(coords))

        k = self.dim + 1
        self._k = k
        self.data = np.zeros(self.n_elements * k * k)

        # The rule for each (patch, region tag) group is decided once,
        # here, and reused verbatim by partial updates; a motion step
        # must not silently switch rules mid-sweep.
        self.group_rules = {}
        for i, p in enumerate(patches):
            for tag in p.mesh.regions():
                self.group_rules[(i, tag)] = _decide_rule(spec, p, tag)

        self._fill(spec.triplet, ElementSet(self, np.arange(self.n_elements)))
        self._collect_dirichlet()
        self._rebuild()
        self._csr_sum = None  # recorded by the first partial update

    # -- element blocks

    def _groups(self, element_ids):
        """Split element ids by (patch, region tag), deterministic order."""
        out = []
        for (i, tag), rule in self.group_rules.items():
            mask = (self.patch_of[element_ids] == i) \
                & (self.tag_of[element_ids] == tag)
            ids = element_ids[mask]
            if ids.size:
                out.append((self.patches[i], tag, rule, ids))
        return out

    def _fill(self, triplet, elements):
        blocks = self.data.reshape(self.n_elements, self._k, self._k)
        for group in elements.groups:
            K = _coefficients(triplet, group)
            _, weights = quadrature_rule(group.rule, self.dim)
            for c, b in _element_blocks(weights, group.grads, K, group.vols):
                blocks[group.ids[c]] = b

    def _buffer_coords(self):
        """Row and column dof of every buffer entry."""
        shape = (self.n_elements, self._k, self._k)
        dofs = self.element_dofs
        return (np.broadcast_to(dofs[:, :, None], shape).ravel(),
                np.broadcast_to(dofs[:, None, :], shape).ravel())

    # -- boundary conditions

    def _collect_dirichlet(self):
        sides = self.spec.domain.interface_sides() if self.spec.is_atlas \
            else set()
        assigned = {}
        for tag, value in self.spec.dirichlet:
            for patch in self.patches:
                if tag not in patch.mesh.boundary_tags():
                    continue
                if (patch.region_id, tag) in sides:
                    continue  # glued facet, interior after assembly
                local = patch.mesh.boundary_nodes(tag)
                pts = patch.mesh.nodes[local]
                if patch.chart is not None:
                    pts = patch.chart.inverse(pts)
                for node, x in zip(patch.dofs[local], pts):
                    dof = int(node)
                    if dof in assigned:
                        continue  # earlier tag in declaration order wins
                    assigned[dof] = float(value(x)) if callable(value) \
                        else float(value)
        order = np.array(sorted(assigned), dtype=int)
        self.dirichlet_dofs = order
        self.dirichlet_values = np.array([assigned[d] for d in order])
        self.free = np.setdiff1d(np.arange(self.n_dofs), order,
                                 assume_unique=False)

    # -- matrices

    def _rebuild(self):
        rows, cols = self._buffer_coords()
        A = sp.coo_matrix((self.data, (rows, cols)),
                          shape=(self.n_dofs, self.n_dofs)).tocsr()
        del rows, cols
        _require_symmetric(A.data, (A - A.T).data)
        self.full_matrix = A
        free, fixed = self.free, self.dirichlet_dofs
        if free.size:
            self.matrix = A[free][:, free].tocsr()
            lift = A[free][:, fixed] @ self.dirichlet_values
            self.rhs = -lift
        else:
            self.matrix = sp.csr_matrix((0, 0))
            self.rhs = np.zeros(0)

    def _replay(self):
        """Rebuild the matrices through the recorded CSR sum."""
        csr_sum = self._csr_sum
        vals = csr_sum.sum(self.data)
        _require_symmetric(vals, vals - vals[csr_sum.transposed])
        self.full_matrix, self.matrix, self.rhs = csr_sum.matrices(
            vals, self.dirichlet_values)

    def expand(self, x_free):
        """Free-dof vector -> full nodal vector with boundary values set."""
        u = np.zeros(self.n_dofs)
        u[self.free] = x_free
        u[self.dirichlet_dofs] = self.dirichlet_values
        return u

    def energy_of(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_dofs,):
            raise DimensionMismatch(
                f"vector has {u.shape} entries, system has {self.n_dofs} dofs")
        return float(u @ (self.full_matrix @ u))

    def __repr__(self):
        return (f"AssembledSystem(dofs={self.n_dofs}, "
                f"elements={self.n_elements}, "
                f"free={self.free.size})")


def _require_symmetric(data, skew):
    """Raise unless the skew part's entries skew are small against the
    matrix entries data, in Frobenius norm; NaN is never small."""
    norm = np.sqrt(np.sum(data * data))
    drift = np.sqrt(np.sum(skew * skew))
    if not drift <= ASSEMBLY_SYMMETRY_RTOL * max(norm, 1e-300):
        raise TripletFemError(
            f"assembled matrix asymmetry {drift / norm:.3e} exceeds "
            f"{ASSEMBLY_SYMMETRY_RTOL:.0e}")


class _CsrSum:
    """The sum coo_matrix(...).tocsr() forms over a system's block
    buffer, recorded once so partial updates can replay it.

    tocsr lays the buffer out by row, stably (coo_tocsr), sorts each
    row's columns (csr_sort_indices) and adds each run of equal columns
    left to right (csr_sum_duplicates). The sort compares columns only,
    so running scipy's own sort_indices with buffer positions as the
    data applies the permutation it applies to values. The record holds
    the buffer positions in summation order (pos) and the CSR slot each
    one adds into (slot, nondecreasing). A replay is one np.bincount over
    slot with the gathered data as weights: it adds each slot's terms
    left to right, the same additions in the same order. The reduced
    matrix, the lift block and the transpose are fixed sets of slots.
    """

    def __init__(self, system):
        n, k = system.n_dofs, system._k
        block_rows = system.element_dofs.ravel()
        size = block_rows.size * k
        idx = np.int32 if size < 2 ** 31 else np.int64
        # the k buffer entries of a block row share its dof, so the stable
        # row layout of the buffer is that of the block rows, expanded
        by_row = np.argsort(block_rows, kind="stable")
        order = (by_row[:, None] * k + np.arange(k)).ravel()
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(block_rows, minlength=n) * k, out=indptr[1:])
        laid = sp.csr_matrix((order.astype(float),
                              system.element_dofs[by_row // k].ravel(),
                              indptr), shape=(n, n))
        del by_row, order
        laid.sort_indices()
        self.pos = laid.data.astype(idx)  # buffer positions, summation order
        col = laid.indices
        opens = np.ones(size, dtype=bool)  # entry opens a new slot
        np.not_equal(col[1:], col[:-1], out=opens[1:])
        heads = laid.indptr[:-1]
        opens[heads[heads < size]] = True
        opened = np.concatenate(([0], np.cumsum(opens)))
        self.shape = (n, n)
        self.indices = col[opens].astype(idx)
        self.indptr = opened[laid.indptr].astype(idx)
        self.slot = opened[1:] - 1
        self.slot_of = np.empty(size, dtype=idx)
        self.slot_of[self.pos] = self.slot
        del laid, col, opens, opened
        nnz = self.indices.size

        slot_ids = sp.csr_matrix((np.arange(1.0, nnz + 1), self.indices,
                                  self.indptr), shape=self.shape)
        self.transposed = slot_ids.T.tocsr().data.astype(idx) - 1
        free, fixed = system.free, system.dirichlet_dofs
        self.reduced = None
        if free.size:
            rows_free = slot_ids[free]
            self.reduced = tuple((M.data.astype(idx) - 1, M.indices, M.indptr,
                                  M.shape)
                                 for M in (rows_free[:, free].tocsr(),
                                           rows_free[:, fixed]))

    def check(self, system):
        """Raise unless replaying the system's block buffer gives the
        matrices and right-hand side it holds, bit for bit, and the
        transpose slots give scipy's transpose."""
        full, matrix, rhs = self.matrices(self.sum(system.data),
                                          system.dirichlet_values)
        A = system.full_matrix
        flipped = sp.csr_matrix((full.data[self.transposed], full.indices,
                                 full.indptr), shape=self.shape)
        same = all(np.array_equal(a.indices, b.indices)
                   and np.array_equal(a.indptr, b.indptr)
                   and np.array_equal(a.data, b.data)
                   for a, b in ((full, A), (matrix, system.matrix),
                                (flipped, A.T.tocsr())))
        if not (same and np.array_equal(rhs, system.rhs)):
            raise TripletFemError(
                "the recorded CSR sum does not reproduce the assembled "
                "matrices; partial updates would not match a reassembly")

    def sum(self, data):
        """The CSR data tocsr makes of the block buffer data."""
        return np.bincount(self.slot, weights=data[self.pos],
                           minlength=self.indices.size)

    def count(self, positions):
        """Number of slots the given buffer positions add into."""
        hit = np.zeros(self.indices.size, dtype=bool)
        hit[self.slot_of[positions]] = True
        return int(np.count_nonzero(hit))

    def matrices(self, vals, values):
        """Full matrix, reduced matrix and right-hand side from the full
        matrix's CSR data vals and the Dirichlet values."""
        full = sp.csr_matrix((vals, self.indices, self.indptr),
                             shape=self.shape)
        if self.reduced is None:
            return full, sp.csr_matrix((0, 0)), np.zeros(0)
        matrix, lift = (sp.csr_matrix((vals[slots], indices, indptr),
                                      shape=shape)
                        for slots, indices, indptr, shape in self.reduced)
        return full, matrix, -(lift @ values)


def assemble(spec):
    """Assemble the stiffness system for a problem specification.

    Returns an AssembledSystem; .matrix and .rhs are the reduced system
    after symmetric elimination of the Dirichlet dofs, .full_matrix the
    untouched operator (its nullspace contains the constant vector).
    Accumulation order is element index order, so repeated runs on the
    same inputs produce identical bits.
    """
    return AssembledSystem(spec)


def update_elements(system, triplet, element_ids):
    """Recompute the blocks of the given elements under a new triplet.

    element_ids is an array of element ids, or an ElementSet of this
    system when the same elements are updated again and again. Quadrature
    rules stay as frozen at assembly. All other element blocks keep
    their exact bits, and the rebuilt matrices are entrywise identical
    to a full reassembly under the new triplet: the first update records
    the order in which assembly's COO to CSR conversion sums the block
    buffer, checks the record against the matrices it holds, and every
    update replays it as one np.bincount. Returns the number of matrix
    entries that one or more changed blocks contribute to.
    """
    elements = element_ids if isinstance(element_ids, ElementSet) \
        else ElementSet(system, element_ids)
    if elements.system is not system:
        raise ValueError("the element set was made for another system")
    if system._csr_sum is None:
        csr_sum = _CsrSum(system)
        csr_sum.check(system)
        system._csr_sum = csr_sum
    flat = elements.flat
    before = system.data[flat]
    system._fill(triplet, elements)
    system.triplet = triplet
    changed = system._csr_sum.count(flat[system.data[flat] != before])
    system._replay()
    return changed


# ------------------------------------------------------------- element ops


def local_stiffness(nodes, K, quadrature="one_point"):
    """Stiffness block of one simplex: entries int grad(phi_a)^T K
    grad(phi_b) dx with P1 barycentric basis.

    K is a matrix, a scalar (isotropic), or a callable point -> matrix.
    The one_point rule is exact when K is constant.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[0] != nodes.shape[1] + 1:
        raise DimensionMismatch(
            f"need d+1 nodes of dimension d, got shape {nodes.shape}")
    dim = nodes.shape[1]
    edges = nodes[1:] - nodes[0]
    vol = abs(float(np.linalg.det(edges))) * _VOLUME_FACTOR[dim]
    if not np.isfinite(vol) or vol <= _VOLUME_FLOOR:
        raise DegenerateElement(
            f"simplex with nodes {nodes.tolist()} has volume {vol:.3e}, "
            f"at or below {_VOLUME_FLOOR:.0e}")
    inv = np.linalg.inv(edges.T)
    grads = np.empty((dim + 1, dim))
    grads[1:] = inv
    grads[0] = -inv.sum(axis=0)
    if isinstance(quadrature, str):
        bary, weights = quadrature_rule(quadrature, dim)
    else:
        bary, weights = quadrature
        bary = np.asarray(bary, dtype=float)
        weights = np.asarray(weights, dtype=float)
    xq = bary @ nodes
    if callable(K):
        Kq = np.stack([material_matrix(np.asarray(K(x), dtype=float), dim)
                       for x in xq])
    else:
        Kq = np.broadcast_to(material_matrix(K, dim),
                             (len(weights), dim, dim))
    return np.einsum("q,ak,qkl,bl->ab", weights, grads, Kq, grads) * vol


@dataclass(frozen=True)
class Solution:
    """Nodal potential, the stored energy, and per-element fields.

    triplet is the one the system held when it was solved; a motion
    sweep goes on changing system.triplet afterwards, so the fields,
    computed on first read, take the metric from here.
    """

    u: np.ndarray
    energy: float
    system: AssembledSystem
    triplet: Triplet
    solve_info: object = None

    @cached_property
    def fields(self):
        return _all_element_fields(self.u, self.system, self.triplet)


def _all_element_fields(u, system, triplet):
    """Constant field per element, E = -S^-1 grad(u), S at the centroid."""
    grad = np.einsum("ea,ead->ed", u[system.element_dofs], system.grads)
    centroids = system.coords.mean(axis=1)
    out = np.empty_like(grad)
    all_ids = np.arange(system.n_elements)
    for patch, tag, _, ids in system._groups(all_ids):
        metric = patch.metric if patch.metric is not None \
            else triplet.metric
        S = metric.eval(centroids[ids], tag)
        out[ids] = -np.linalg.solve(S, grad[ids][..., None])[..., 0]
    return out


def solve_bvp(spec, config=None, *, system=None, preconditioner=None,
              x0=None):
    """Assemble (unless a system is supplied) and solve.

    Returns a Solution; solve_info carries the conjugate-gradient
    iteration count and final residual.
    """
    sys_ = system if system is not None else assemble(spec)
    cfg = config if config is not None else _solver.SolverConfig()
    if sys_.free.size:
        result = _solver.solve(sys_.matrix, sys_.rhs, cfg, x0=x0,
                               preconditioner=preconditioner)
        u = sys_.expand(result.x)
    else:
        result = None
        u = sys_.expand(np.zeros(0))
    return Solution(u=u, energy=sys_.energy_of(u), system=sys_,
                    triplet=sys_.triplet, solve_info=result)


# ------------------------------------------------------------- comparison


@dataclass(frozen=True)
class MatrixComparison:
    """Distance between two assembled operators.

    rel_frobenius is ||A - B||_F / max(||A||_F, ||B||_F). The entrywise
    figure is the largest |A_ij - B_ij| relative to the largest entry
    magnitude of either matrix, with the index where it happens.
    """

    rel_frobenius: float
    max_entry_deviation: float
    worst_index: tuple

    def __float__(self):
        return self.rel_frobenius


def compare_matrices(A, B):
    """Relative Frobenius distance plus the worst entrywise deviation."""
    A = sp.csr_matrix(A)
    B = sp.csr_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch(
            f"matrix shapes {A.shape} and {B.shape} disagree")
    diff = (A - B).tocoo()
    diff.sum_duplicates()
    diff.eliminate_zeros()
    norm_a = np.sqrt(np.sum(A.data * A.data))
    norm_b = np.sqrt(np.sum(B.data * B.data))
    denom = max(norm_a, norm_b)
    if denom == 0.0:
        return MatrixComparison(0.0, 0.0, (0, 0))
    fro = np.sqrt(np.sum(diff.data * diff.data)) / denom
    scale = max(np.abs(A.data).max(initial=0.0),
                np.abs(B.data).max(initial=0.0))
    if diff.nnz == 0:
        return MatrixComparison(float(fro), 0.0, (0, 0))
    worst = int(np.argmax(np.abs(diff.data)))
    dev = float(np.abs(diff.data[worst]) / scale)
    return MatrixComparison(float(fro), dev,
                            (int(diff.row[worst]), int(diff.col[worst])))


def write_matrix_market(A, path):
    """Coordinate-format text export, 1-based, 17 significant digits.

    Entries appear in row-major order with ascending columns, so equal
    matrices serialize to equal bytes.
    """
    A = sp.csr_matrix(A).copy()
    A.sum_duplicates()
    A.sort_indices()
    coo = A.tocoo()
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{i + 1} {j + 1} {v:.17g}\n")
