"""Simplicial meshes: validation, structured generation, mapping through
charts, quality metrics, and MSH / VTK / CSV interchange.

Meshes are immutable. All tags (region and boundary) are strings; the
constructor coerces whatever it is given. Elements are stored with
positive signed volume; the constructor flips inverted node orderings.
A mesh's topology (elements, regions, facets, tags) is checked once;
map_mesh shares it, moves the nodes, and checks only the new geometry.
What assembly derives from the topology alone is kept in one slot that
the mesh and its map_mesh images share (_TopologySlot).
"""

from __future__ import annotations

import copy
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateElement,
    DegenerateShape,
    DimensionMismatch,
    InvalidFacet,
    LengthMismatch,
    MalformedFile,
    UnsupportedVersion,
)
from .geometry import det

# simplex volume = det(edge matrix) * this factor
_VOLUME_FACTOR = {2: 0.5, 3: 1.0 / 6.0}
# simplices whose volume is at or below this floor count as degenerate
# (the inverse of a subnormal edge matrix overflows)
_VOLUME_FLOOR = 1e-300
# simplices whose longest edge^d / volume lies above this count as
# degenerate: the cofactor expansion that gives their volume and basis
# gradients (geometry.det and inv) rounds by up to about eps * longest
# edge^d, here 1/64 of the volume (eps = 2^-52)
_SHAPE_LIMIT = 2.0 ** 46


def _first_degenerate(nodes, edges, vols):
    """(index, reason) of the first simplex, among the edge matrices
    edges (E, d, d) of simplices on nodes, with volumes vols, that cannot
    be assembled, or None. The one rule for Mesh() and
    fem.local_stiffness: the volume must lie above _VOLUME_FLOOR and be
    finite, the basis gradients, bounded by longest edge^(d-1) / volume,
    must not overflow when squared, and longest edge^d / volume must not
    exceed _SHAPE_LIMIT."""
    dim = nodes.shape[1]

    def fine(vol, edge):
        grad = edge ** (dim - 1) / vol
        return ((vol > _VOLUME_FLOOR) & (vol < np.inf)
                & np.isfinite(grad * grad) & (grad * edge <= _SHAPE_LIMIT))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # no edge is longer than the diagonal of a box holding every node
        # (and the origin, so that an empty mesh needs no case of its
        # own): only the simplices that fail against it need their edges
        box = nodes.max(axis=0, initial=0.0) - nodes.min(axis=0, initial=0.0)
        suspects = np.flatnonzero(~fine(vols, np.sqrt(box @ box)))
        rows = [[edges[suspects, i, k] for k in range(dim)]
                for i in range(dim)]
        longest = np.zeros(suspects.size)
        for i, row in enumerate(rows):
            # node i + 1's edge to node 0, then its edges to nodes 1..i
            for side in [row] + [[a - b for a, b in zip(row, other)]
                                 for other in rows[:i]]:
                np.maximum(longest, sum(x * x for x in side), out=longest)
        longest = np.sqrt(longest)
        bad = np.flatnonzero(~fine(vols[suspects], longest))
        if not bad.size:
            return None
        j = bad[0]
        i, vol, edge = int(suspects[j]), vols[suspects[j]], longest[j]
        grad = edge ** (dim - 1) / vol
        overflows = not (vol < np.inf and np.isfinite(grad * grad))
    if not vol > _VOLUME_FLOOR:
        return i, f"has volume {vol:.3e}, at or below {_VOLUME_FLOOR:.0e}"
    if overflows:
        return i, (f"has volume {vol:.3e} against a longest edge of "
                   f"{edge:.3e}: its volume or its basis gradients overflow")
    return i, (f"has volume {vol:.3e} against a longest edge of {edge:.3e}: "
               f"longest edge^{dim} / volume exceeds 2^46, where rounding "
               "spoils its volume and basis gradients")


def _edge_matrices(nodes, elements):
    """Edge matrices of the simplices, shape (E, d, d): row i is node
    i + 1 minus node 0, the one edge formula of the package.

    The array is component-major, the (E, d, d) view of a contiguous
    (d, d, E) buffer: each entry array M[:, i, j] is one contiguous row,
    so det, geometry.adjugate and every other kernel that reads entry
    arrays streams through memory instead of striding across whole
    matrices. Each entry is node i + 1's coordinate j minus node 0's, the
    bits of nodes[elements[:, 1:]] - nodes[elements[:, :1]]."""
    d = nodes.shape[1]
    coords = np.ascontiguousarray(nodes.T)
    corners = np.ascontiguousarray(elements.T)
    out = np.empty((d, d, len(elements)))
    for j, x in enumerate(coords):
        at = x[corners]  # coordinate j of every node of every element
        np.subtract(at[1:], at[0], out=out[:, j])
    return out.transpose(2, 0, 1)


def _volumes_of(edges):
    """Signed volumes of the simplices with edge matrices edges.

    The determinant is geometry.det's cofactor expansion, the one
    geometry.inv divides by when fem forms the basis gradients. Swapping
    two edge rows negates it exactly, so a flipped element keeps the
    magnitude checked here."""
    with np.errstate(over="ignore", invalid="ignore"):
        # an infinite or NaN volume is refused by _first_degenerate
        return _VOLUME_FACTOR[edges.shape[-1]] * det(edges)


def signed_volumes(nodes, elements):
    """Signed simplex volumes; positive for the normalized orientation."""
    return _volumes_of(_edge_matrices(nodes, elements))


def _sorted_faces(elements):
    """All element faces with vertices sorted, shape (E*(k), dim)."""
    k = elements.shape[1]
    blocks = []
    for omit in range(k):
        idx = [c for c in range(k) if c != omit]
        blocks.append(elements[:, idx])
    return np.sort(np.concatenate(blocks, axis=0), axis=1)


def _face_groups(*face_arrays):
    """Integer group ids for faces: rows holding the same node ids, in any
    order and across all the given arrays, share an id. Ids follow the
    lexicographic order of the sorted rows. Returns (ids per array, number
    of groups)."""
    rows = np.concatenate([np.sort(f, axis=1) for f in face_arrays], axis=0)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    splits = np.cumsum([len(f) for f in face_arrays])[:-1]
    return np.split(ids, splits), int(starts.sum())


def _facet_counts(elements, facets, n_nodes):
    """For each row of facets, the number of elements that have it as a
    face, and the index of the first row equal to it. Only the faces of
    elements with at least dim nodes on facets are grouped: a face equal
    to a facet has all dim of its nodes on facets, so no other element
    has one, and the counts are those of grouping every face."""
    on_facet = np.zeros(n_nodes, dtype=bool)
    on_facet[facets] = True
    near = on_facet[elements].sum(axis=1) >= facets.shape[1]
    (faces, declared), n = _face_groups(_sorted_faces(elements[near]), facets)
    counts = np.bincount(faces, minlength=n)[declared]
    _, first, inverse = np.unique(declared, return_index=True,
                                  return_inverse=True)
    return counts, first[inverse]


def _tag_array(tags, count, what):
    """The tags as an object array of str, through str() per tag (2.5
    keeps its text)."""
    tags = [str(t) for t in tags]
    if len(tags) != count:
        raise LengthMismatch(f"{what}: got {len(tags)} tags for {count} entries")
    out = np.empty(count, dtype=object)
    out[:] = tags
    return out


class _TopologySlot:
    """One value derived from a topology, kept with the key it was made
    for. A Mesh creates it with its topology and its map_mesh images
    share it (so does an Atlas, for its own), so assembly derives the
    value once for all of them; one slot bounds what is kept to one
    value."""

    def __init__(self):
        self._key = self._value = None

    def get(self, key, make):
        """(value, reused): the kept value if it was made for key, an
        integer array, else make(), kept in its place."""
        if self._key is not None and np.array_equal(self._key, key):
            return self._value, True
        self._key = self._value = None  # the old value goes before make()
        value = make()
        self._key = np.array(key)
        self._key.flags.writeable = False
        self._value = value
        return value, False


class Mesh:
    """Conforming simplicial mesh with tagged regions and boundary facets.

    nodes: (N, dim) float; elements: (E, dim+1) int with one region tag
    each; boundary_facets: (F, dim) int with one tag each. Every declared
    facet must be a facet of exactly one element, and declared once. The
    mesh keeps the edge matrices it took its volumes from, read-only, in
    the stored orientation (edge_matrices()); assembly forms the basis
    gradients from them.
    """

    def __init__(self, nodes, elements, element_regions,
                 boundary_facets=None, facet_tags=None):
        nodes = np.array(nodes, dtype=float)
        elements = np.array(elements, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] not in (2, 3):
            raise DimensionMismatch("nodes must be (N, 2) or (N, 3)")
        dim = nodes.shape[1]
        if elements.ndim != 2 or elements.shape[1] != dim + 1:
            raise DimensionMismatch(
                f"elements must have {dim + 1} nodes each in {dim}D")
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise IndexError("element node index out of range")
        self.dim = dim
        self.elements = elements

        def flip_inverted(vols, edges):
            # swapping the last two nodes swaps the last two edge rows,
            # exactly: node 0, which every edge starts from, stays
            flip = vols < 0.0
            elements[flip, -2:] = elements[flip, -1:-3:-1]
            edges[flip, -2:] = edges[flip, -1:-3:-1]
            return np.abs(vols)

        self._set_geometry(nodes, flip_inverted)
        self._assembly_record = _TopologySlot()

        if boundary_facets is None:
            boundary_facets = np.zeros((0, dim), dtype=np.int64)
            facet_tags = []
        boundary_facets = np.array(boundary_facets, dtype=np.int64)
        if boundary_facets.ndim != 2 or boundary_facets.shape[1] != dim:
            raise DimensionMismatch(f"facets must have {dim} nodes each in {dim}D")
        if boundary_facets.size and (boundary_facets.min() < 0
                                     or boundary_facets.max() >= len(nodes)):
            raise IndexError("facet node index out of range")

        self.element_regions = _tag_array(element_regions, len(elements), "elements")
        # the topology fixes the region list; map_mesh images share it
        self._regions = tuple(dict.fromkeys(self.element_regions.tolist()))
        self.boundary_facets = boundary_facets
        self.facet_tags = _tag_array(
            [] if facet_tags is None else facet_tags,
            len(boundary_facets), "facets")
        self._check_facets()
        for arr in (self.elements, self.element_regions,
                    self.boundary_facets, self.facet_tags):
            arr.flags.writeable = False

    def _set_geometry(self, nodes, orient):
        """Check nodes against self.elements and store them, their edge
        matrices and their volumes read-only: finite coordinates, positive
        volumes from orient(signed volumes, edge matrices) (it reorders
        elements and edge rows, or refuses), _first_degenerate."""
        bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
        if bad.size:
            raise DegenerateShape(f"node {int(bad[0])} has a non-finite "
                                  f"coordinate {nodes[bad[0]].tolist()}")
        edges = _edge_matrices(nodes, self.elements)
        vols = orient(_volumes_of(edges), edges)
        dead = _first_degenerate(nodes, edges, vols)
        if dead is not None:
            i, reason = dead
            raise DegenerateElement(f"element {i} {reason} "
                                    f"(nodes {self.elements[i].tolist()})")
        for arr in (nodes, edges, vols):
            arr.flags.writeable = False
        self.nodes, self._edges, self._volumes = nodes, edges, vols

    def _check_facets(self):
        if not len(self.boundary_facets):
            return
        counts, first = _facet_counts(self.elements, self.boundary_facets,
                                      len(self.nodes))
        bad = np.flatnonzero((counts != 1) | (first != np.arange(len(first))))
        if not bad.size:
            return
        i = int(bad[0])
        nodes = self.boundary_facets[i].tolist()
        if counts[i] != 1:
            raise InvalidFacet(
                f"boundary facet {i} {nodes} belongs to {counts[i]} elements; "
                "boundary facets must belong to exactly one")
        raise InvalidFacet(
            f"boundary facet {i} {nodes} repeats boundary facet {first[i]}; "
            "each boundary facet is declared once")

    # ------------------------------------------------------------ accessors

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    def volumes(self):
        return self._volumes

    def edge_matrices(self):
        """(E, d, d) read-only: row i of element e is its node i + 1 minus
        its node 0, in the stored orientation; volumes() came from them.
        The array is component-major, a view of a contiguous (d, d, E)
        buffer, so each entry array [:, i, j] is contiguous and the
        elementwise kernels over them (det, the basis gradients) stream
        (_edge_matrices)."""
        return self._edges

    def element_coords(self):
        return self.nodes[self.elements]

    def centroids(self):
        return self.nodes[self.elements].mean(axis=1)

    def regions(self):
        """Region tags in first-appearance order (a new list each call)."""
        return list(self._regions)

    def boundary_tags(self):
        return list(dict.fromkeys(self.facet_tags.tolist()))

    def boundary_nodes(self, *tags):
        """Node indices lying on facets with any of the given tags
        (all facets when no tag is given)."""
        if tags:
            tags = {str(t) for t in tags}
            missing = tags - set(self.facet_tags.tolist())
            if missing:
                from .errors import UnknownTag
                raise UnknownTag(
                    f"no boundary facet carries tag(s) {sorted(missing)}; "
                    f"available: {self.boundary_tags()}")
            mask = np.isin(self.facet_tags, sorted(tags))
            facets = self.boundary_facets[mask]
        else:
            facets = self.boundary_facets
        return np.unique(facets)

    def elements_in_regions(self, tags):
        tags = {str(t) for t in tags}
        return np.flatnonzero(np.isin(self.element_regions, sorted(tags)))

    def __repr__(self):
        return (f"Mesh(dim={self.dim}, nodes={self.n_nodes}, "
                f"elements={self.n_elements}, regions={self.regions()})")


# ------------------------------------------------------------- generation


def _box_2d(divisions, lo, hi, region, region_bands):
    nx, ny = divisions
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    nodes = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    a = jj * (nx + 1) + ii
    b = a + 1
    c = b + (nx + 1)
    d = a + (nx + 1)
    tris = np.empty((2 * len(a), 3), dtype=np.int64)
    tris[0::2] = np.column_stack([a, b, c])
    tris[1::2] = np.column_stack([a, c, d])

    centers = np.column_stack([xs[ii] + 0.5 * (hi[0] - lo[0]) / nx,
                               ys[jj] + 0.5 * (hi[1] - lo[1]) / ny])
    cell_tags = _assign_bands(centers, (xs, ys), region, region_bands)
    regions = np.repeat(cell_tags, 2)

    facets, tags = [], []
    for j in range(ny):
        facets.append([j * (nx + 1), (j + 1) * (nx + 1)])
        tags.append("left")
        facets.append([j * (nx + 1) + nx, (j + 1) * (nx + 1) + nx])
        tags.append("right")
    for i in range(nx):
        facets.append([i, i + 1])
        tags.append("bottom")
        facets.append([ny * (nx + 1) + i, ny * (nx + 1) + i + 1])
        tags.append("top")
    return Mesh(nodes, tris, regions, np.array(facets), tags)


_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
_SIDE_TAGS = {0: ("left", "right"), 1: ("bottom", "top"), 2: ("back", "front")}


def _box_3d(divisions, lo, hi, region, region_bands):
    nx, ny, nz = divisions
    axes = [np.linspace(lo[k], hi[k], divisions[k] + 1) for k in range(3)]
    # node id = i + j*stride[1] + k*stride[2]: x runs fastest
    Z, Y, X = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    stride = np.array([1, nx + 1, (nx + 1) * (ny + 1)])

    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    low = ii * stride[0] + jj * stride[1] + kk * stride[2]
    # a Kuhn tet walks from the cell's low corner one axis at a time
    tets = [low[:, None] + np.cumsum([0, *stride[list(perm)]])
            for perm in _KUHN_PERMS]
    # interleave so the 6 tets of a cell stay adjacent
    tets = np.stack(tets, axis=1).reshape(-1, 4)

    h = [(hi[k] - lo[k]) / divisions[k] for k in range(3)]
    centers = np.column_stack([axes[0][ii] + 0.5 * h[0],
                               axes[1][jj] + 0.5 * h[1],
                               axes[2][kk] + 0.5 * h[2]])
    cell_tags = _assign_bands(centers, axes, region, region_bands)
    regions = np.repeat(cell_tags, 6)

    # each side quad a < b < c < d splits along its rising diagonal a-d,
    # as the Kuhn tets split it; listing quads with the lower axis fastest
    # and abd before acd puts each side's triangles in lexicographic order
    facets, tags = [], []
    for axis, side_tags in _SIDE_TAGS.items():
        p, q = [k for k in range(3) if k != axis]
        low = (np.arange(divisions[q])[:, None] * stride[q]
               + np.arange(divisions[p]) * stride[p]).ravel()
        for end, tag in zip((0, divisions[axis]), side_tags):
            a = low + end * stride[axis]
            b, c, d = a + stride[p], a + stride[q], a + stride[p] + stride[q]
            facets.append(np.column_stack([a, b, d, a, c, d]).reshape(-1, 3))
            tags += [tag] * (2 * len(a))
    return Mesh(nodes, tets, regions, np.concatenate(facets), tags)


def _assign_bands(centers, gridlines, region, region_bands):
    """Per-cell region tags. Band edges snap to the nearest grid line of
    their axis; a band whose edges snap to the same line has collapsed,
    which is reported rather than silently dropped."""
    tags = np.empty(len(centers), dtype=object)
    tags[:] = str(region)
    for band in (region_bands or []):
        tag, axis, lo_band, hi_band = band
        if not 0 <= axis < len(gridlines):
            raise DimensionMismatch(
                f"region band {tag!r} names axis {axis}; a "
                f"{len(gridlines)}-D box has axes 0 to {len(gridlines) - 1}")
        grid = gridlines[axis]
        if hi_band <= lo_band:
            raise DegenerateShape(f"region band {tag!r} has nonpositive extent")
        snapped_lo = grid[np.argmin(np.abs(grid - lo_band))]
        snapped_hi = grid[np.argmin(np.abs(grid - hi_band))]
        if snapped_lo >= snapped_hi:
            spacing = float(np.min(np.diff(grid)))
            raise DegenerateElement(
                f"region band {tag!r} [{lo_band:g}, {hi_band:g}] collapses: "
                f"both edges snap to the grid line at {snapped_lo:g} "
                f"(grid spacing {spacing:g}); the band is thinner than the "
                "mesh can represent")
        inside = (centers[:, axis] > snapped_lo) & (centers[:, axis] < snapped_hi)
        tags[inside] = str(tag)
    return tags


def _annulus_2d(divisions, radii, center, region, grading, outer_tag):
    n_theta, n_r = divisions
    a, b = radii
    if a <= 0.0 or b <= a:
        raise DegenerateShape("annulus radii must satisfy 0 < a < b")
    if n_theta < 3:
        raise ValueError("an annulus needs at least 3 angular divisions")
    grading = float(grading)
    if grading <= 0.0:
        raise ValueError("grading must be positive")
    # grading > 1 packs rings toward the outer radius, which resolves
    # coefficients that blow up there (shell-mapped exteriors)
    frac = (np.arange(n_r + 1) / n_r) ** grading
    rr = b - (b - a) * frac[::-1]
    tt = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    R, T = np.meshgrid(rr, tt, indexing="ij")
    nodes = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
    nodes += np.asarray(center, dtype=float)

    def nid(k, t):
        return k * n_theta + (t % n_theta)

    kk, tvals = np.meshgrid(np.arange(n_r), np.arange(n_theta), indexing="ij")
    kk, tvals = kk.ravel(), tvals.ravel()
    p = nid(kk, tvals)
    q = nid(kk, tvals + 1)
    r = nid(kk + 1, tvals + 1)
    s = nid(kk + 1, tvals)
    tris = np.empty((2 * len(p), 3), dtype=np.int64)
    # counterclockwise, so Mesh has no orientation to normalize
    tris[0::2] = np.column_stack([p, r, q])
    tris[1::2] = np.column_stack([p, s, r])
    regions = [str(region)] * len(tris)

    facets, tags = [], []
    for t in range(n_theta):
        facets.append([nid(0, t), nid(0, t + 1)])
        tags.append("inner")
        facets.append([nid(n_r, t), nid(n_r, t + 1)])
        tags.append(outer_tag)
    return Mesh(nodes, tris, regions, np.array(facets), tags)


def generate_structured(shape="box", divisions=(1, 1), *, bounds=None,
                        radii=None, center=(0.0, 0.0), region="domain",
                        region_bands=None, grading=1.0, _outer_tag="outer"):
    """Structured simplicial mesh of a box (2D/3D) or a 2D annulus.

    Boxes split each cell into 2 triangles / 6 tetrahedra; sides are tagged
    left/right, bottom/top (and back/front in 3D). Annuli use n_theta x n_r
    polar cells with inner/outer boundary tags; grading > 1 packs the rings
    toward the outer radius. region_bands paints cells between two grid
    lines of one axis with their own tag; see _assign_bands for the
    snapping rule. _outer_tag renames the annulus' outer circle, for the
    open-boundary driver, where that circle is infinity's image.
    """
    divisions = tuple(int(d) for d in divisions)
    if any(d < 1 for d in divisions):
        raise ValueError("divisions must all be at least 1")
    if shape == "box":
        dim = len(divisions)
        if dim not in (2, 3):
            raise DimensionMismatch("box divisions must have 2 or 3 entries")
        if grading != 1.0:
            raise ValueError("grading applies to annulus meshes only")
        if bounds is None:
            bounds = (np.zeros(dim), np.ones(dim))
        lo, hi = (np.asarray(b, dtype=float) for b in bounds)
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise DimensionMismatch(f"box bounds need {dim} numbers for lo "
                                    f"and {dim} for hi")
        if np.any(hi <= lo):
            raise DegenerateShape("box has zero or negative extent")
        if dim == 2:
            return _box_2d(divisions, lo, hi, region, region_bands)
        return _box_3d(divisions, lo, hi, region, region_bands)
    if shape == "annulus":
        if len(divisions) != 2:
            raise DimensionMismatch("annulus divisions are (n_theta, n_r)")
        if radii is None:
            raise ValueError("annulus needs radii=(inner, outer)")
        if region_bands:
            raise ValueError("region bands apply to box meshes only")
        return _annulus_2d(divisions, radii, center, region, grading,
                           _outer_tag)
    raise ValueError(f"unknown shape {shape!r}; use 'box' or 'annulus'")


# ---------------------------------------------------------------- mapping


def map_mesh(m, chart):
    """The same mesh drawn in another chart. It shares the source's checked,
    read-only topology (elements, regions, facets, facet tags) and the
    slot assembly keeps its topology's record in; only its mapped geometry
    is checked again. Folds, collapses and mirrors fail."""

    def keep_orientation(vols, edges):
        bad = np.flatnonzero(vols <= 0.0)
        if bad.size:
            kind = ("reverses the orientation of" if np.all(vols < 0.0)
                    else "folds or collapses")
            raise DegenerateElement(
                f"chart {kind} element {int(bad[0])} "
                f"(mapped signed volume {vols[bad[0]]:.3e})")
        return vols

    moved = copy.copy(m)
    moved._set_geometry(np.array(chart.forward(m.nodes), dtype=float),
                        keep_orientation)
    return moved


# ---------------------------------------------------------------- quality


@dataclass(frozen=True)
class QualityReport:
    """Per-element aspect ratios: circumradius / (dim * inradius), which is
    1 for the regular simplex and grows with distortion."""

    ratios: np.ndarray
    min: float
    max: float
    mean: float
    worst_element: int


def quality(m):
    coords = m.element_coords()
    vols = m.volumes()
    if m.dim == 2:
        sides = np.stack([
            np.linalg.norm(coords[:, 1] - coords[:, 2], axis=1),
            np.linalg.norm(coords[:, 2] - coords[:, 0], axis=1),
            np.linalg.norm(coords[:, 0] - coords[:, 1], axis=1),
        ], axis=1)
        circum = sides.prod(axis=1) / (4.0 * vols)
        inr = vols / (0.5 * sides.sum(axis=1))
    else:
        v0 = coords[:, 0]
        B = 2.0 * m.edge_matrices()
        rhs = np.sum(coords[:, 1:] ** 2, axis=2) - np.sum(v0**2, axis=1)[:, None]
        centers = np.linalg.solve(B, rhs[..., None])[..., 0]
        circum = np.linalg.norm(centers - v0, axis=1)
        face_area = np.zeros(len(coords))
        for omit in range(4):
            idx = [c for c in range(4) if c != omit]
            f = coords[:, idx]
            cr = np.cross(f[:, 1] - f[:, 0], f[:, 2] - f[:, 0])
            face_area += 0.5 * np.linalg.norm(cr, axis=1)
        inr = 3.0 * vols / face_area
    ratios = circum / (m.dim * inr)
    worst = int(np.argmax(ratios))
    return QualityReport(ratios=ratios, min=float(ratios.min()),
                         max=float(ratios.max()), mean=float(ratios.mean()),
                         worst_element=worst)


# ------------------------------------------------------------ number text


def text_rows(*columns, sep=" "):
    """The text of a table: one line per row, its entries joined by sep.

    Every number the package writes to a file or prints is formatted
    here. A column is a 1-D array, or a 2-D array giving one column per
    entry of its second axis; all have one length. Integer columns are
    written with %d, all others with %.17g: 17 significant digits tell
    any two doubles apart, so a read-back is bit-exact and reruns of one
    computation write equal bytes.
    """
    cols = []
    for c in map(np.asarray, columns):
        cols.extend(c.T if c.ndim == 2 else (c,))
    row = sep.join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                   for c in cols) + "\n"
    values = itertools.chain.from_iterable(zip(*(c.tolist() for c in cols)))
    return (row * len(cols[0])) % tuple(values)


def _xyz(points):
    """(N, 2) or (N, 3) rows as (N, 3), with z = 0 in 2-D."""
    return np.pad(points, ((0, 0), (0, 3 - points.shape[1])))


# ----------------------------------------------------------------- MSH I/O

# gmsh element type codes for the simplices we support
_MSH_TYPE = {2: 1, 3: 2, 4: 4}           # node count -> type
_MSH_NODES = {1: 2, 2: 3, 4: 4}          # type -> node count
_PHYS_NAME = re.compile(r'^(\d+)\s+(\d+)\s+"(.*)"\s*$')


def write_msh(m, path):
    """Gmsh MSH 2.2 ASCII with physical names for every tag; its numbers
    are written by text_rows."""
    facet_tags = sorted(set(m.facet_tags.tolist()))
    tags = facet_tags + sorted(set(m.element_regions.tolist()))
    phys_id = {t: i + 1 for i, t in enumerate(tags)}
    names = "".join(f'{m.dim - (i <= len(facet_tags))} {i} "{t}"\n'
                    for t, i in phys_id.items())

    def entities(first, conn, labels):
        n = len(conn)
        ids = np.array([phys_id[t] for t in labels.tolist()], dtype=np.int64)
        return text_rows(np.arange(first, first + n),
                         np.full(n, _MSH_TYPE[conn.shape[1]]), np.full(n, 2),
                         ids, ids, conn + 1)

    n_facets = len(m.boundary_facets)
    with open(path, "w") as fh:
        fh.writelines([
            f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$PhysicalNames\n"
            f"{len(phys_id)}\n", names,
            f"$EndPhysicalNames\n$Nodes\n{m.n_nodes}\n",
            text_rows(np.arange(1, m.n_nodes + 1), _xyz(m.nodes)),
            f"$EndNodes\n$Elements\n{n_facets + m.n_elements}\n",
            entities(1, m.boundary_facets, m.facet_tags),
            entities(n_facets + 1, m.elements, m.element_regions),
            "$EndElements\n"])


def read_msh(path):
    """Parse the subset written by write_msh: MSH 2.2 ASCII with 2/3/4-node
    simplices. Malformed content is reported with its line number, or,
    for a missing section, with the section's name."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as err:
        raise MalformedFile(f"{path}: not UTF-8 text: {err}") from None

    def fail(ln, msg, error=MalformedFile):
        raise error(f"{path}: line {ln}: {msg}")

    # the non-blank lines, stripped, with their line numbers
    rows = iter([(ln, s) for ln, s in enumerate(map(str.strip, raw), 1) if s])

    def next_line():
        row = next(rows, None)
        if row is None:
            fail(len(raw), "unexpected end of file")
        return row

    def expect(what):
        ln, line = next_line()
        if line != what:
            fail(ln, f"expected {what}")

    def section(what, row_parser, end_marker):
        """A section's rows: a count line, that many rows, each parsed by
        row_parser(ln, row), then end_marker."""
        ln, count = next_line()
        try:
            count = int(count)
        except ValueError:
            fail(ln, f"bad {what} count {count!r}")
        out = [row_parser(*next_line()) for _ in range(count)]
        expect(end_marker)
        return out

    def name_row(ln, row):
        match = _PHYS_NAME.match(row)
        if not match:
            fail(ln, f"bad physical name entry {row!r}")
        return int(match.group(2)), match.group(3)

    def node_row(ln, row):
        parts = row.split()
        if len(parts) != 4:
            fail(ln, f"node line needs 'id x y z', found {row!r}")
        try:
            return ln, int(parts[0]), [float(v) for v in parts[1:]]
        except ValueError:
            fail(ln, f"unparseable node line {row!r}")

    def element_row(ln, row):
        try:
            values = [int(v) for v in row.split()]
        except ValueError:
            fail(ln, f"unparseable element line {row!r}")
        if len(values) < 3:
            fail(ln, f"element line too short: {row!r}")
        etype, ntags = values[1], values[2]
        if etype not in _MSH_NODES:
            fail(ln, f"element type {etype} is not supported (2-node lines, "
                     "3-node triangles and 4-node tetrahedra only)",
                 UnsupportedVersion)
        conn = values[3 + ntags:]
        if len(conn) != _MSH_NODES[etype]:
            fail(ln, f"element type {etype} needs {_MSH_NODES[etype]} nodes, "
                     f"found {len(conn)}")
        return ln, etype, values[3] if ntags >= 1 else 0, conn

    ln, line = next_line()
    if line != "$MeshFormat":
        fail(ln, f"expected $MeshFormat, found {line!r}")
    ln, line = next_line()
    version = line.split()
    if version[0] != "2.2":
        fail(ln, f"MSH version {version[0]}; only 2.2 ASCII is supported",
             UnsupportedVersion)
    if len(version) > 1 and version[1] != "0":
        fail(ln, "binary MSH is not supported", UnsupportedVersion)
    expect("$EndMeshFormat")

    names, node_ids, node_lines, nodes, raw_elements = {}, {}, {}, [], []
    for ln, header in rows:
        if header == "$PhysicalNames":
            names.update(section("physical-name", name_row,
                                 "$EndPhysicalNames"))
        elif header == "$Nodes":
            for ln, nid, xyz in section("node", node_row, "$EndNodes"):
                if nid in node_ids:
                    fail(ln, f"node id {nid} repeats the node of line "
                             f"{node_lines[nid]}")
                node_ids[nid], node_lines[nid] = len(nodes), ln
                nodes.append(xyz)
        elif header == "$Elements":
            raw_elements += section("element", element_row, "$EndElements")
        else:
            # skip unknown sections (comments, periodic data, ...)
            closer = "$End" + header.lstrip("$")
            while next_line()[1] != closer:
                pass

    if not nodes:
        raise MalformedFile(f"{path}: no $Nodes section found")
    if not raw_elements:
        raise MalformedFile(f"{path}: no $Elements section found")

    nodes = np.asarray(nodes, dtype=float)
    dim = 3 if any(etype == 4 for _, etype, _, _ in raw_elements) else 2
    # cells and facets: connectivity and tags, by element type
    kept = {_MSH_TYPE[dim + 1]: ([], []), _MSH_TYPE[dim]: ([], [])}
    for ln, etype, phys, conn in raw_elements:
        try:
            conn = [node_ids[c] for c in conn]
        except KeyError as e:
            fail(ln, f"element references unknown node {e}")
        # lower-dimensional entities (points/lines in 3D) are ignored
        if etype in kept:
            kept[etype][0].append(conn)
            kept[etype][1].append(names.get(phys, str(phys)))
    (elements, regions), (facets, ftags) = kept.values()
    return Mesh(nodes[:, :dim], np.asarray(elements), regions,
                np.asarray(facets) if facets else None,
                ftags if facets else None)


# ----------------------------------------------------------------- VTK out

_VTK_CELL = {2: 5, 3: 10}  # dim -> triangle / tetra


def write_vtk(m, path, point_data=None, cell_data=None, title="tripletfem"):
    """Legacy ASCII unstructured-grid file, its numbers written by
    text_rows. point_data/cell_data map names to (N,) scalars or (N, dim)
    vectors; lengths are checked before the file is opened."""
    k = m.dim + 1
    out = [f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
           f"DATASET UNSTRUCTURED_GRID\nPOINTS {m.n_nodes} double\n",
           text_rows(_xyz(m.nodes)),
           f"CELLS {m.n_elements} {m.n_elements * (k + 1)}\n",
           text_rows(np.full(m.n_elements, k), m.elements),
           f"CELL_TYPES {m.n_elements}\n",
           text_rows(np.full(m.n_elements, _VTK_CELL[m.dim]))]
    for kind, count, data in (("point", m.n_nodes, point_data),
                              ("cell", m.n_elements, cell_data)):
        if data:
            out.append(f"{kind.upper()}_DATA {count}\n")
        for name, arr in (data or {}).items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape[0] != count:
                raise LengthMismatch(
                    f"{kind} field {name!r} has {arr.shape[0]} entries, "
                    f"mesh has {count}")
            if arr.ndim > 2 or (arr.ndim == 2 and arr.shape[1] not in (2, 3)):
                raise DimensionMismatch(
                    f"{kind} field {name!r} must be scalar or vector")
            if arr.ndim == 1:
                out += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                        text_rows(arr)]
            else:
                out += [f"VECTORS {name} double\n", text_rows(_xyz(arr))]
    with open(path, "w") as fh:
        fh.writelines(out)


# ----------------------------------------------------------------- CSV out


def write_csv(path, names, *columns):
    """A header line of the column names, then text_rows(*columns) with
    commas."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([",".join(names) + "\n", text_rows(*columns, sep=",")])


def write_probe_csv(path, points, values, value_name="value"):
    """One row per probe point: its coordinates, then its value."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    if len(values) != len(points):
        raise LengthMismatch("one value per probe point required")
    write_csv(path, ["x", "y", "z"][: points.shape[1]] + [value_name],
              points, values)
