"""P1 Galerkin assembly of the energy inner product.

The weak form is a(u, v) = int grad(v)^T K grad(u) dx over mesh
coordinates, with K = sym(eps S^-1) evaluated pointwise. The coefficient
K is the only place the metric and the material enter, which is what
makes solves under exchanged {chart, metric, material} triplets land on
the same matrix entries.

Assembly takes what does not depend on the triplet from the domain:
the basis gradients from the mesh's own edge matrices and volumes, and
quadrature points only for groups whose material or metric entry is
evaluated pointwise. It writes every element block into a fixed slice
of one flat buffer (element index order, row-major within the block).
The order in which scipy's COO to CSR conversion would sum that buffer
depends on the element dofs and the Dirichlet dofs alone; it is
recorded once per mesh topology (_CsrSum), kept in a slot the mesh
shares with its map_mesh images (an Atlas keeps its own), and every
build gathers the buffer into that order and runs scipy's own duplicate
sum, which adds each row apart from the others. A partial update
replaces the blocks of a subset of elements and re-sums only the rows
they touch, through their part of the same record; the first build is
the re-sum of every row. So an update's matrices are bit-identical to a
full reassembly with the same inputs: both run the same code.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import solver as _solver
from .atlas import Atlas, build_global_index
from .errors import (DegenerateElement, DimensionMismatch,
                     NonFiniteRightHandSide, TripletFemError, UnknownTag)
from .geometry import MetricField, adjugate
from .mesh import (_VOLUME_FACTOR, Mesh, _edge_matrices, _first_degenerate,
                   text_rows)
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
    the potential is ungrounded and the matrix singular. quadrature "auto"
    samples K at the interior points and integrates with one point where
    K is one matrix there; "one_point" and "interior" fix the rule.
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


def _joined(parts):
    """The patches' arrays as one, joined along the element axis in the
    memory order of the first (component-major geometry stays so): the
    only one itself, without a copy, for a plain mesh."""
    if len(parts) == 1:
        return parts[0]
    shape = (sum(len(p) for p in parts),) + parts[0].shape[1:]
    return np.concatenate(parts, out=np.empty_like(parts[0], shape=shape))


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


# ---------------------------------------------------------------- assembly


def _p1_gradients(edges):
    """Constant basis gradients per element, shape (E, d+1, d), from the
    edge matrices (E, d, d) a Mesh keeps (edges from node 0 as rows):
    rows 1..d are the columns of the inverse edge matrix, row 0 minus
    their sum. Each inverse entry is geometry.adjugate's entry divided by
    the determinant Mesh took the volume from, bit for bit, as
    geometry.inv divides it; Mesh has refused every simplex whose volume
    is not above its floor, whose gradients overflow or whose shape lets
    rounding spoil them (mesh._first_degenerate), so the division is by a
    nonzero number.

    Like the edge matrices, the gradients are component-major: the
    (E, d+1, d) view of a contiguous (d+1, d, E) buffer, each entry array
    [:, a, k] one contiguous row, which the division writes and the
    block kernel reads at streaming speed. Row 0 adds rows 1..d left to
    right and negates the sum, the bits of -np.sum(rows, axis=1)."""
    d = edges.shape[1]
    # the buffer before the adjugate's temporaries: in the other order
    # glibc kept about 2 MB more resident at the peak of two 24^3
    # assemblies (tracemalloc's peak is the same either way)
    out = np.empty((d + 1, d, len(edges)))
    dets, adj = adjugate(edges)
    for (i, j), entry in adj.items():
        np.divide(entry, dets, out=out[1 + j, i])
    np.add(out[1], out[2], out=out[0])
    for row in out[3:]:
        out[0] += row
    np.negative(out[0], out=out[0])
    return out.transpose(2, 0, 1)


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


def _points_for(triplet, group):
    """The group's quadrature points where an entry is evaluated there
    (a pointwise material or metric entry, or an atlas patch's
    pull-back); else a stride-zero stand-in of their (E, Q, d) shape,
    which is all a value entry reads (geometry.eval_entry)."""
    patch, tag = group.patch, group.tag
    try:
        pointwise = patch.chart is not None or any(
            callable(field.entry(tag))
            for field in (triplet.material, triplet.metric))
    except UnknownTag:
        pointwise = False  # the evaluation raises it at the first element
    if pointwise:
        return group.xq
    n, d = group.grads.shape[0], group.grads.shape[2]
    return np.broadcast_to(0.0, (n, group.bary.shape[0], d))


def _coefficients(triplet, group):
    """K at the group's quadrature points, shape (E, Q, d, d); a failing
    evaluation is localized to the first element it fails on."""
    patch, xq = group.patch, _points_for(triplet, group)
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

    Inside a chunk the element index is the last axis. The gradients are
    component-major (_p1_gradients), so a chunk's rows are read in place
    as contiguous runs; K is copied element index last, unless it is one
    matrix along the elements (stride zero), whose entries are then read
    as one value each. The sum over quadrature points q and gradient
    components (k, l) runs in lexicographic order, each term formed as
    ((w_q g_ak) K_qkl) g_bl: that is the order and association
    np.einsum("q,eak,eqkl,ebl->eab") takes on these operands, so the
    blocks carry its exact bits.
    """
    n, k, dim = grads.shape
    for lo in range(0, n, _BLOCK_CHUNK):
        c = slice(lo, min(lo + _BLOCK_CHUNK, n))
        g = grads[c].transpose(1, 2, 0)
        Kc = K[c].transpose(1, 2, 3, 0)
        Kc = Kc[..., :1] if K.strides[0] == 0 else np.ascontiguousarray(Kc)
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


def _quadrature_points(bary, nodes, elements):
    """np.einsum("qa,ead->eqd", bary, nodes[elements]) bit for bit: each
    point adds its node terms in node order, as einsum does, over chunks
    of the elements gathered element index last, so every pass runs along
    a contiguous axis."""
    out = np.empty((len(elements), bary.shape[0], nodes.shape[1]))
    for lo in range(0, len(elements), _BLOCK_CHUNK):
        c = slice(lo, lo + _BLOCK_CHUNK)
        corners = nodes[elements[c].T].transpose(0, 2, 1).copy()
        points = np.multiply.outer(bary[:, 0], corners[0])  # (Q, d, chunk)
        for a in range(1, corners.shape[0]):
            points += np.multiply.outer(bary[:, a], corners[a])
        out[c] = points.transpose(2, 0, 1)
    return out


@dataclass(frozen=True)
class _Group:
    """Elements of one (patch, region tag) with what their blocks need
    besides the coefficient: gradients, volumes, and the barycentric
    points of the rule, from which the quadrature points are formed on
    first use (xq); a group whose entries are all values never uses
    them."""

    patch: _Patch
    tag: str
    ids: np.ndarray
    grads: np.ndarray
    vols: np.ndarray
    bary: np.ndarray

    @cached_property
    def xq(self):
        mesh = self.patch.mesh
        return _quadrature_points(
            self.bary, mesh.nodes,
            mesh.elements[self.ids - self.patch.elem_offset])


def _run(ids):
    """ids as the slice ids[0]:ids[-1] + 1 where the sorted ids, without
    repeats, are one run, as a region of a structured mesh and the rows
    it touches often are; else None."""
    if ids.size and ids[-1] - ids[0] == ids.size - 1:
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return None


def _element_rows(a, ids):
    """a[ids] for sorted ids without repeats, in a's memory order: a view
    where they are one run, else gathered along the element axis of a's
    component-major buffer."""
    run = _run(ids)
    if run is not None:
        return a[run]
    return np.moveaxis(np.take(np.moveaxis(a, 0, -1), ids, axis=-1), -1, 0)


class ElementSet:
    """Element ids of one system, prepared for repeated block updates.

    The (patch, region) split, the gathered gradients and volumes, the
    quadrature points and the rows of the matrix the elements touch
    with their part of the summation record (both formed on first use)
    depend on the ids only, so a motion sweep takes them once and passes
    the set to every update_elements call.
    """

    def __init__(self, system, element_ids):
        # sorted and without repeats, as np.unique gives them, from a sort
        ids = np.sort(np.asarray(element_ids, dtype=int), axis=None)
        first = np.ones(ids.size, dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        ids = ids[first]
        if ids.size and (ids[0] < 0 or ids[-1] >= system.n_elements):
            raise IndexError(
                f"element ids must lie in [0, {system.n_elements})")
        self.system = system
        self.ids = ids
        bary, _ = quadrature_rule(system.rule, system.dim)
        self.groups = [_Group(patch, tag, gids,
                              _element_rows(system.grads, gids),
                              _element_rows(system.vols, gids), bary)
                       for patch, tag, gids in system._groups(ids)]

    @cached_property
    def rows(self):
        """The _RowSum of the matrix rows the elements touch: the dofs of
        their nodes. Every other row sums no entry of their blocks. The
        set of every element takes the record's part of every row."""
        system = self.system
        if self.ids.size == system.n_elements:
            return system._csr_sum.every_row
        touched = np.zeros(system.n_dofs, dtype=bool)
        touched[system.element_dofs[self.ids]] = True
        return _RowSum(system._csr_sum, np.flatnonzero(touched))


class AssembledSystem:
    """Stiffness matrix, eliminated boundary data, and the element-block
    buffer that makes partial reassembly exact.

    matrix and rhs are the reduced (free-dof) system; full_matrix keeps
    every dof and is the one the energy quadratic form uses. timings
    holds the assembly's phases in seconds: gradients (the basis
    gradients from the mesh's edge matrices), coefficients (K at the
    quadrature points), blocks (the element blocks), record (the lookup,
    or the build, of the summation record) and build (the matrices), and
    record_reused tells whether the record was one the domain already
    kept. update_timings holds the last update_elements call's phases,
    coefficients, blocks and rebuild (the re-sum of the rows it
    touched), and is None before the first. The library prints none of
    it.
    """

    def __init__(self, spec):
        self.spec = spec
        self.triplet = spec.triplet
        patches, n_dofs = _build_patches(spec)
        self.patches = patches
        self.n_dofs = n_dofs
        self.dim = patches[0].mesh.nodes.shape[1]

        self.vols = _frozen(_joined([p.mesh.volumes() for p in patches]))
        t0 = time.perf_counter()
        self.grads = _frozen(_joined([_p1_gradients(p.mesh.edge_matrices())
                                      for p in patches]))
        gradients = time.perf_counter() - t0
        self.element_dofs = _joined([p.dofs[p.mesh.elements]
                                     for p in patches])
        self.patch_of = _joined([np.full(p.mesh.n_elements, i)
                                 for i, p in enumerate(patches)])
        self.tag_of = _joined([p.mesh.element_regions for p in patches])
        self.n_elements = self.vols.size

        k = self.dim + 1
        self._k = k
        self.data = np.zeros(self.n_elements * k * k)

        self.rule = "interior" if spec.quadrature == "auto" \
            else spec.quadrature
        self._group_keys = [(i, tag) for i, p in enumerate(patches)
                            for tag in p.mesh.regions()]

        timings = self._fill(spec.triplet,
                             ElementSet(self, np.arange(self.n_elements)))
        self._collect_dirichlet()
        t0 = time.perf_counter()
        self._csr_sum, reused = _csr_sum_of(self)
        t1 = time.perf_counter()
        # the first build is the sum of every row
        self.full_matrix = self._skew = None
        self._build(self._csr_sum.every_row)
        timings.update(record=t1 - t0, build=time.perf_counter() - t1,
                       record_reused=reused)
        self.timings = {"gradients": gradients, **timings}
        self.update_timings = None

    # -- element blocks

    def _groups(self, element_ids):
        """Split element ids by (patch, region tag), deterministic order."""
        out = []
        for i, tag in self._group_keys:
            mask = (self.patch_of[element_ids] == i) \
                & (self.tag_of[element_ids] == tag)
            ids = element_ids[mask]
            if ids.size:
                out.append((self.patches[i], tag, ids))
        return out

    def _fill(self, triplet, elements):
        """Blocks of the set's elements under triplet; returns the seconds
        spent on coefficients and on blocks. Under "auto" K is measured on
        every call; where it is one matrix at all interior points
        (broadcast, stride zero on its leading axes), the one-point rule
        gives the interior rule's integral exactly."""
        blocks = self.data.reshape(self.n_elements, self._k, self._k)
        _, weights = quadrature_rule(self.rule, self.dim)
        _, centroid = quadrature_rule("one_point", self.dim)
        spent = {"coefficients": 0.0, "blocks": 0.0}
        for group in elements.groups:
            t0 = time.perf_counter()
            K, w = _coefficients(triplet, group), weights
            if self.spec.quadrature == "auto" and not any(K.strides[:-2]):
                K, w = K[:, :1], centroid
            t1 = time.perf_counter()
            for c, b in _element_blocks(w, group.grads, K, group.vols):
                blocks[group.ids[c]] = b
            spent["coefficients"] += t1 - t0
            spent["blocks"] += time.perf_counter() - t1
        return spent

    # -- boundary conditions

    def _collect_dirichlet(self):
        """Dirichlet dofs (sorted), their values and the free dofs. A dof
        on several tags takes the value of the earliest in declaration
        order; a callable value is called once per node it assigns, with
        the node's coordinates, in that order."""
        sides = self.spec.domain.interface_sides() if self.spec.is_atlas \
            else set()
        parts = []  # (dofs, points, value) in declaration order
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
                parts.append((patch.dofs[local], pts, value))
        dofs = np.concatenate([np.zeros(0, dtype=int)]
                              + [d for d, _, _ in parts])
        # the sorted dofs and where each first appears: its earliest tag
        order, first = np.unique(dofs, return_index=True)
        assigns = np.zeros(dofs.size, dtype=bool)
        assigns[first] = True
        values = np.empty(dofs.size)
        start = 0
        for d, pts, value in parts:
            own = slice(start, start + d.size)
            start += d.size
            if callable(value):
                values[own][assigns[own]] = [float(value(x))
                                             for x in pts[assigns[own]]]
            else:
                values[own] = float(value)
        fixed = np.zeros(self.n_dofs, dtype=bool)
        fixed[order] = True
        self.dirichlet_dofs = order
        self.dirichlet_values = values[first]
        self.free = np.flatnonzero(~fixed)

    # -- matrices

    def _build(self, rows):
        """Re-sum the rows (a _RowSum) from the block buffer into the
        full matrix, check the matrix is symmetric, copy those
        rows' entries into the reduced matrix and the lift, and form the
        right-hand side; returns how many full-matrix entries changed
        value. Every entry of another row keeps its bits, which are what
        a re-sum would give, as its buffer entries have not changed. The
        symmetry check reads the whole matrix's skew part: a partial
        build keeps it and the next one patches it at its rows' slots;
        a build of every row, and the first partial one, form it whole."""
        new = rows.summed(self.data)
        if self.full_matrix is None:
            # the first build sums every row: the sum is the full matrix,
            # changed from nothing; the others are made once the sum's
            # temporaries are gone, which keeps its peak memory the sum's
            self.full_matrix, vals = new, new.data
            changed = int(np.count_nonzero(vals))
            self.matrix, self._lift = self._csr_sum.zero_matrices()
        else:
            vals = self.full_matrix.data
            changed = int(np.count_nonzero(vals[rows.slots] != new.data))
            vals[rows.slots] = new.data
        del new  # in vals now; one temporary fewer at the peak below
        partial = rows.shape[0] < self.n_dofs
        if partial and self._skew is not None:
            # the skew part moves at the rows' entries and at their
            # transposes', where it is their negation: b - a is -(a - b)
            skew = self._skew
            moved = np.take(vals, rows.transposed)
            np.subtract(vals[rows.slots], moved, out=moved)
            skew[rows.slots] = moved
            skew[rows.mirrored] = -moved[rows.mirror]
        else:
            skew = vals - vals[self._csr_sum.transposed]
        # kept for the next partial update alone: a system that is only
        # ever built whole holds no skew vector between builds
        self._skew = skew if partial else None
        _require_symmetric(vals, skew)
        for M, (at, slots) in zip((self.matrix, self._lift), rows.reduced):
            M.data[at] = np.take(vals, slots)
        self.rhs = -(self._lift @ self.dirichlet_values)
        return changed

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
        return _solver.inner(u, self.full_matrix @ u)

    def __repr__(self):
        return (f"AssembledSystem(dofs={self.n_dofs}, "
                f"elements={self.n_elements}, "
                f"free={self.free.size})")


def _summed(matrix):
    """matrix, a CSR matrix whose rows' columns are sorted, with each run
    of equal columns added left to right by scipy's duplicate sum, in
    place. The flag spares scipy its O(nnz) check of the order; the
    kernel is the same."""
    matrix.has_sorted_indices = True
    matrix.sum_duplicates()
    return matrix


def _require_symmetric(data, skew):
    """Raise unless the skew part's entries skew are small against the
    matrix entries data, in Frobenius norm; NaN is never small."""
    norm = np.sqrt(np.sum(data * data))
    drift = np.sqrt(np.sum(skew * skew))
    if not drift <= ASSEMBLY_SYMMETRY_RTOL * max(norm, 1e-300):
        raise TripletFemError(
            f"assembled matrix asymmetry {drift / norm:.3e} exceeds "
            f"{ASSEMBLY_SYMMETRY_RTOL:.0e}")


def _csr_sum_of(system):
    """(record, reused): the _CsrSum of the system's element dofs and
    Dirichlet dofs, from the one slot its domain keeps for its topology.
    A Mesh shares the slot with its map_mesh images, so a system on a
    mesh and one on its image share one record; an Atlas keeps a slot of
    its own. The slot is keyed by the Dirichlet dofs, the one input of
    the record that a topology does not fix."""
    return system.spec.domain._assembly_record.get(
        system.dirichlet_dofs, lambda: _CsrSum(system))


class _CsrSum:
    """The sum coo_matrix(...).tocsr() forms over a system's block
    buffer, recorded once per topology and Dirichlet dof set; every build
    of the matrices of every system on that topology goes through it.
    Its arrays are read-only.

    tocsr lays the buffer out by row, stably (coo_tocsr), sorts each
    row's columns (csr_sort_indices) and adds each run of equal columns
    left to right (csr_sum_duplicates). The sort compares columns only,
    so running scipy's own sort_indices with buffer positions as the
    data applies the permutation it applies to values. The record keeps
    those positions (pos), the sorted columns (col) and the row heads. A
    build gathers the buffer into that order and lets scipy's
    sum_duplicates add the runs: the code tocsr ends with, on the same
    values in the same order. That sum adds each row's runs apart from
    every other row's, so the rows of a subset are summed alike by the
    same call on their part of the record alone (_RowSum). The summed
    pattern (indices, indptr) does not depend on the values, so the
    reduced matrix, the lift block and the transpose are fixed sets of
    its slots.
    """

    def __init__(self, system):
        n, k = system.n_dofs, system._k
        dofs = system.element_dofs
        size = dofs.size * k
        idx = np.int32 if max(size, n) < 2 ** 31 else np.int64
        # the k buffer entries of a block row share its dof, so the stable
        # row layout of the buffer is that of the block rows, expanded;
        # the CSC form of the block rows' incidence matrix lists them by
        # dof, stably (a counting sort, as coo_tocsr's)
        by_dof = sp.csr_matrix((np.ones(dofs.size, dtype=bool),
                                dofs.ravel().astype(idx),
                                np.arange(dofs.size + 1, dtype=idx)),
                               shape=(dofs.size, n)).tocsc()
        by_row = by_dof.indices
        order = (by_row[:, None] * idx(k) + np.arange(k, dtype=idx)).ravel()
        laid = sp.csr_matrix((order, dofs.astype(idx)[by_row // k].ravel(),
                              by_dof.indptr * idx(k)), shape=(n, n))
        del by_dof, by_row, order
        laid.sort_indices()
        self.shape = (n, n)
        # buffer positions in summation order, their columns, row heads
        self.pos, self.col, self.heads = laid.data, laid.indices, laid.indptr
        del laid
        # the summed pattern; its values are unused
        pattern = _summed(sp.csr_matrix((np.ones(size, dtype=bool),
                                         self.col.copy(), self.heads.copy()),
                                        shape=self.shape))
        self.indptr, nnz = pattern.indptr, pattern.nnz
        slot_ids = sp.csr_matrix((np.arange(1.0, nnz + 1), pattern.indices,
                                  self.indptr), shape=self.shape)
        del pattern
        self.transposed = slot_ids.T.tocsr().data.astype(idx) - 1
        free, fixed = system.free, system.dirichlet_dofs
        self.is_free = np.zeros(n, dtype=bool)
        self.is_free[free] = True
        rows_free = slot_ids[free]
        # (full slots, indices, indptr, shape) of the reduced matrix and
        # of the lift block
        self.reduced = tuple((M.data.astype(idx) - 1, M.indices, M.indptr,
                              M.shape)
                             for M in (rows_free[:, free].tocsr(),
                                       rows_free[:, fixed]))
        for arr in (self.pos, self.col, self.heads, self.indptr,
                    self.transposed, self.is_free,
                    *(a for r in self.reduced for a in r[:3])):
            arr.flags.writeable = False

    @cached_property
    def every_row(self):
        """The _RowSum of every row, which a build of every element sums;
        kept, as the record serves every assembly on its topology."""
        return _RowSum(self, np.arange(self.shape[0]))

    def zero_matrices(self):
        """The reduced matrix and the lift block, of their part of the
        summed pattern with zero values. Each owns its arrays: the
        record's are read-only and serve every system on the topology."""
        return tuple(sp.csr_matrix((np.zeros(indices.size), indices.copy(),
                                    indptr.copy()), shape=shape)
                     for _, indices, indptr, shape in self.reduced)


def _ranges(heads, rows):
    """The positions heads[r]:heads[r + 1] of each of the sorted rows,
    concatenated: a slice where the rows are one run, else an array."""
    run = _run(rows)
    if run is not None:
        return slice(int(heads[run.start]), int(heads[run.stop]))
    starts, counts = heads[rows], heads[rows + 1] - heads[rows]
    first = np.cumsum(counts) - counts  # of each row in the result
    return np.repeat(starts - first, counts) + np.arange(counts.sum())


class _RowSum:
    """The part of a _CsrSum record for a sorted set of rows.

    It keeps the rows' buffer positions in summation order (pos), their
    columns (col) and heads, which summed() runs through the duplicate
    sum the whole record runs; the rows' slots in the full matrix, the
    slots of their transposes, and those of the transposes in other
    rows (mirrored) with where they lie among the rows' (mirror); and
    for the reduced matrix and the lift, the data positions of the free
    rows among them with the full slots they copy (reduced). Where the
    rows are one run, positions and slots are slices, and pos and col
    views of the record.
    """

    def __init__(self, record, rows):
        at = _ranges(record.heads, rows)
        self.pos, self.col = record.pos[at], record.col[at]
        self.heads = np.zeros(rows.size + 1, dtype=record.heads.dtype)
        np.cumsum(record.heads[rows + 1] - record.heads[rows],
                  out=self.heads[1:])
        self.shape = (rows.size, record.shape[1])
        self.slots = _ranges(record.indptr, rows)
        self.transposed = record.transposed[self.slots]
        inside = np.zeros(record.transposed.size, dtype=bool)
        inside[self.slots] = True
        self.mirror = np.flatnonzero(~inside[self.transposed])
        self.mirrored = self.transposed[self.mirror]
        # the free rows among them, numbered as the reduced matrix's rows
        is_free = record.is_free
        reduced_rows = (np.cumsum(is_free) - 1)[rows[is_free[rows]]]
        self.reduced = []
        for slots, _, indptr, _ in record.reduced:
            at = _ranges(indptr, reduced_rows)
            self.reduced.append((at, slots[at]))

    def summed(self, data):
        """The rows of the full matrix, summed from the block buffer
        data: a CSR matrix whose data are the rows' entries in slot
        order."""
        return _summed(sp.csr_matrix((data[self.pos], self.col.copy(),
                                      self.heads.copy()), shape=self.shape))


def assemble(spec):
    """Assemble the stiffness system for a problem specification.

    Returns an AssembledSystem; .matrix and .rhs are the reduced system
    after symmetric elimination of the Dirichlet dofs, .full_matrix the
    untouched operator (its nullspace contains the constant vector).
    Each matrix entry adds its element terms in the order scipy's COO to
    CSR conversion of the block buffer does (a stable sort by row, then
    scipy's sort of each row's columns), so repeated runs on the same
    inputs produce identical bits.
    """
    return AssembledSystem(spec)


def update_elements(system, triplet, element_ids):
    """Recompute the blocks of the given elements under a new triplet.

    element_ids is an array of element ids, or an ElementSet of this
    system when the same elements are updated again and again. Their
    quadrature is decided from the new triplet's K, as assembly decides
    it. All other element blocks keep their exact bits. The rows of the
    matrix the elements touch are re-summed from the block buffer
    through the sum assembly recorded, and their entries patched into
    the system's matrices in place; every other entry keeps its bits,
    which a re-sum would give again. So the matrices and the right-hand
    side are still entrywise identical to a full reassembly under the
    new triplet. system.update_timings holds the call's phases. Returns
    the number of full-matrix entries whose value changed, so 0 says
    that the matrices and the right-hand side equal the old ones entry
    for entry; NaN, which equals nothing, never gets this far, as the
    symmetry check refuses it. An update that raises leaves the system
    part way between the two triplets: assemble afresh before using it.
    """
    elements = element_ids if isinstance(element_ids, ElementSet) \
        else ElementSet(system, element_ids)
    if elements.system is not system:
        raise ValueError("the element set was made for another system")
    spent = system._fill(triplet, elements)
    system.triplet = triplet
    t0 = time.perf_counter()
    changed = system._build(elements.rows)
    system.update_timings = {**spent, "rebuild": time.perf_counter() - t0}
    return changed


# ------------------------------------------------------------- element ops


def local_stiffness(nodes, K, quadrature="one_point"):
    """Stiffness block of one simplex: entries int grad(phi_a)^T K
    grad(phi_b) dx with P1 barycentric basis.

    K is a matrix, a scalar (isotropic), or a callable point -> matrix.
    The one_point rule is exact when K is constant.

    Its determinant and inverse stay on LAPACK (np.linalg) on purpose:
    tests/test_acceptance.py uses this function as an oracle that shares
    no small-matrix kernel with assembly, which goes through
    geometry.inv.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[0] != nodes.shape[1] + 1:
        raise DimensionMismatch(
            f"need d+1 nodes of dimension d, got shape {nodes.shape}")
    dim = nodes.shape[1]
    edges = _edge_matrices(nodes, np.arange(dim + 1)[None])[0]
    vol = abs(float(np.linalg.det(edges))) * _VOLUME_FACTOR[dim]
    dead = _first_degenerate(nodes, edges[None], np.array([vol]))
    if dead is not None:
        raise DegenerateElement(
            f"simplex with nodes {nodes.tolist()} {dead[1]}")
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
    """Nodal potential, the stored energy, per-element fields, and the
    solve's SolveResult (solve_info; 0 iterations with no free dof).

    triplet is the one the system held when it was solved; a motion
    sweep goes on changing system.triplet afterwards, so the fields,
    computed on first read, take the metric from here, and a fresh
    assemble of the system's spec under it gives the solved matrices.
    """

    u: np.ndarray
    energy: float
    system: AssembledSystem
    triplet: Triplet
    solve_info: _solver.SolveResult

    @cached_property
    def fields(self):
        return _all_element_fields(self.u, self.system, self.triplet)


def _all_element_fields(u, system, triplet):
    """Constant field per element, E = -S^-1 grad(u), S at the centroid."""
    grad = np.einsum("ea,ead->ed", u[system.element_dofs], system.grads)
    centroids = np.concatenate([p.mesh.centroids() for p in system.patches])
    out = np.empty_like(grad)
    all_ids = np.arange(system.n_elements)
    for patch, tag, ids in system._groups(all_ids):
        metric = patch.metric if patch.metric is not None \
            else triplet.metric
        S = metric.eval(centroids[ids], tag)
        out[ids] = -np.linalg.solve(S, grad[ids][..., None])[..., 0]
    return out


def solve_bvp(spec, config=None, *, system=None, preconditioner=None,
              x0=None):
    """Assemble (unless a system is supplied) and solve.

    Returns a Solution whose solve_info is solver.solve's SolveResult; a
    system with every dof fixed is the 0 x 0 system, solved in 0
    iterations. An energy that overflows raises NonFiniteRightHandSide.
    """
    sys_ = system if system is not None else assemble(spec)
    result = _solver.solve(sys_.matrix, sys_.rhs, config, x0=x0,
                           preconditioner=preconditioner)
    u = sys_.expand(result.x)
    energy = sys_.energy_of(u)
    if not np.isfinite(energy):
        raise NonFiniteRightHandSide(f"the energy overflows ({energy})")
    return Solution(u=u, energy=energy, system=sys_,
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
    # scipy's difference holds no duplicate and no zero; row-major order
    diff = (A - B).sorted_indices().tocoo()
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
    """Coordinate-format text export, 1-based, numbers by mesh.text_rows.

    Entries appear in row-major order with ascending columns, so equal
    matrices serialize to equal bytes.
    """
    # COO to CSR sums duplicates and sorts each row's columns
    coo = sp.coo_matrix(A).tocsr().tocoo()
    with open(path, "w") as f:
        f.writelines(["%%MatrixMarket matrix coordinate real general\n"
                      f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n",
                      text_rows(coo.row + 1, coo.col + 1, coo.data)])
