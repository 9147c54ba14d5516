"""Simplicial meshes: validation, structured generation, mapping through
charts, quality metrics, and MSH / VTK / CSV interchange.

Meshes are immutable. All tags (region and boundary) are strings; the
constructor coerces whatever it is given. Elements are stored with
positive signed volume; the constructor flips inverted node orderings.
"""

from __future__ import annotations

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

# simplex volume = det(edge matrix) * this factor
_VOLUME_FACTOR = {2: 0.5, 3: 1.0 / 6.0}
# simplices whose volume is at or below this floor count as degenerate
# (the inverse of a subnormal edge matrix overflows)
_VOLUME_FLOOR = 1e-300


def signed_volumes(nodes, elements):
    """Signed simplex volumes; positive for the normalized orientation."""
    coords = nodes[elements]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    return _VOLUME_FACTOR[nodes.shape[1]] * np.linalg.det(edges)


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


def _tag_array(tags, count, what):
    out = np.empty(count, dtype=object)
    tags = list(tags)
    if len(tags) != count:
        raise LengthMismatch(f"{what}: got {len(tags)} tags for {count} entries")
    out[:] = [str(t) for t in tags]
    return out


class Mesh:
    """Conforming simplicial mesh with tagged regions and boundary facets.

    nodes: (N, dim) float; elements: (E, dim+1) int with one region tag
    each; boundary_facets: (F, dim) int with one tag each. Every declared
    facet must be a facet of exactly one element, and declared once.
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
        bad = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
        if bad.size:
            raise DegenerateShape(f"node {int(bad[0])} has a non-finite "
                                  f"coordinate {nodes[bad[0]].tolist()}")

        vols = signed_volumes(nodes, elements)
        flip = vols < 0.0
        if np.any(flip):
            elements[flip, -2], elements[flip, -1] = (
                elements[flip, -1].copy(), elements[flip, -2].copy())
            vols = np.abs(vols)
        dead = np.flatnonzero(vols <= _VOLUME_FLOOR)
        if dead.size:
            raise DegenerateElement(
                f"element {int(dead[0])} has volume {vols[dead[0]]:.3e}, at or "
                f"below {_VOLUME_FLOOR:.0e} (nodes {elements[dead[0]].tolist()})")

        if boundary_facets is None:
            boundary_facets = np.zeros((0, dim), dtype=np.int64)
            facet_tags = []
        boundary_facets = np.array(boundary_facets, dtype=np.int64)
        if boundary_facets.ndim != 2 or boundary_facets.shape[1] != dim:
            raise DimensionMismatch(f"facets must have {dim} nodes each in {dim}D")
        if boundary_facets.size and (boundary_facets.min() < 0
                                     or boundary_facets.max() >= len(nodes)):
            raise IndexError("facet node index out of range")

        self.dim = dim
        self.nodes = nodes
        self.elements = elements
        self.element_regions = _tag_array(element_regions, len(elements), "elements")
        self.boundary_facets = boundary_facets
        self.facet_tags = _tag_array(
            [] if facet_tags is None else facet_tags,
            len(boundary_facets), "facets")
        self._volumes = vols
        self._check_facets()
        for arr in (self.nodes, self.elements, self.element_regions,
                    self.boundary_facets, self.facet_tags, self._volumes):
            arr.flags.writeable = False

    def _check_facets(self):
        if not len(self.boundary_facets):
            return
        (faces, declared), n = _face_groups(_sorted_faces(self.elements),
                                            self.boundary_facets)
        counts = np.bincount(faces, minlength=n)[declared]
        _, first, inverse = np.unique(declared, return_index=True,
                                      return_inverse=True)
        first = first[inverse]
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

    def element_coords(self):
        return self.nodes[self.elements]

    def centroids(self):
        return self.nodes[self.elements].mean(axis=1)

    def regions(self):
        """Region tags in first-appearance order."""
        return list(dict.fromkeys(self.element_regions.tolist()))

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
            mask = np.isin(self.facet_tags.astype(str), sorted(tags))
            facets = self.boundary_facets[mask]
        else:
            facets = self.boundary_facets
        return np.unique(facets)

    def elements_in_regions(self, tags):
        tags = {str(t) for t in tags}
        return np.flatnonzero(np.isin(self.element_regions.astype(str),
                                      sorted(tags)))

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
    X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
    # node id = (k*(ny+1) + j)*(nx+1) + i
    nodes = np.column_stack([X.transpose(2, 1, 0).ravel(),
                             Y.transpose(2, 1, 0).ravel(),
                             Z.transpose(2, 1, 0).ravel()])

    def nid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    tets = []
    for perm in _KUHN_PERMS:
        steps = np.zeros((4, 3), dtype=np.int64)
        for s, axis in enumerate(perm):
            steps[s + 1] = steps[s]
            steps[s + 1, axis] += 1
        verts = [nid(ii + st[0], jj + st[1], kk + st[2]) for st in steps]
        tets.append(np.column_stack(verts))
    # interleave so the 6 tets of a cell stay adjacent
    tets = np.stack(tets, axis=1).reshape(-1, 4)

    h = [(hi[k] - lo[k]) / divisions[k] for k in range(3)]
    centers = np.column_stack([axes[0][ii] + 0.5 * h[0],
                               axes[1][jj] + 0.5 * h[1],
                               axes[2][kk] + 0.5 * h[2]])
    cell_tags = _assign_bands(centers, axes, region, region_bands)
    regions = np.repeat(cell_tags, 6)

    facets, tags = _boundary_by_planes(nodes, tets, lo, hi)
    return Mesh(nodes, tets, regions, facets, tags)


def _boundary_by_planes(nodes, tets, lo, hi):
    """Tag faces that lie on the box sides; used for 3D generation where
    enumerating side quads by hand is error-prone. Faces come out in
    lexicographic order of their sorted node ids within each side."""
    faces = _sorted_faces(tets)
    (ids,), n = _face_groups(faces)
    single = np.flatnonzero(np.bincount(ids, minlength=n)[ids] == 1)
    bound = faces[single[np.argsort(ids[single])]]
    coords = nodes[bound]
    tol = 1e-12 * max(np.abs(np.concatenate([lo, hi])).max(), 1.0)
    facets, tags = [], []
    for axis in range(nodes.shape[1]):
        low_tag, high_tag = _SIDE_TAGS[axis]
        on_lo = np.all(np.abs(coords[..., axis] - lo[axis]) <= tol, axis=1)
        on_hi = np.all(np.abs(coords[..., axis] - hi[axis]) <= tol, axis=1)
        facets.extend(bound[on_lo])
        tags.extend([low_tag] * int(on_lo.sum()))
        facets.extend(bound[on_hi])
        tags.extend([high_tag] * int(on_hi.sum()))
    return np.array(facets, dtype=np.int64), tags


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
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
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
    """The same mesh drawn in another chart: nodes mapped, connectivity and
    tags untouched. Rejects maps that fold, collapse, or mirror elements."""
    new_nodes = chart.forward(m.nodes)
    vols = signed_volumes(new_nodes, m.elements)
    bad = np.flatnonzero(vols <= 0.0)
    if bad.size:
        kind = ("reverses the orientation of" if np.all(vols < 0.0)
                else "folds or collapses")
        raise DegenerateElement(
            f"chart {kind} element {int(bad[0])} "
            f"(mapped signed volume {vols[bad[0]]:.3e})")
    return Mesh(new_nodes, m.elements, m.element_regions,
                m.boundary_facets, m.facet_tags)


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
        B = 2.0 * (coords[:, 1:] - v0[:, None, :])
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


# ----------------------------------------------------------------- MSH I/O

# gmsh element type codes for the simplices we support
_MSH_TYPE = {2: 1, 3: 2, 4: 4}           # node count -> type
_MSH_NODES = {1: 2, 2: 3, 4: 4}          # type -> node count
_PHYS_NAME = re.compile(r'^(\d+)\s+(\d+)\s+"(.*)"\s*$')


def write_msh(m, path):
    """Gmsh MSH 2.2 ASCII with physical names for every tag. Coordinates
    carry 17 significant digits so a read-back is bit-exact."""
    tags = sorted(set(m.facet_tags.tolist()))
    tags += sorted(set(m.element_regions.tolist()))
    phys_id = {t: i + 1 for i, t in enumerate(tags)}
    n_facet_tags = len(set(m.facet_tags.tolist()))
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat"]
    lines.append("$PhysicalNames")
    lines.append(str(len(phys_id)))
    for t, i in phys_id.items():
        tag_dim = m.dim - 1 if i <= n_facet_tags else m.dim
        lines.append(f'{tag_dim} {i} "{t}"')
    lines.append("$EndPhysicalNames")
    lines.append("$Nodes")
    lines.append(str(m.n_nodes))
    for i, p in enumerate(m.nodes.tolist()):
        z = p[2] if m.dim == 3 else 0.0
        lines.append(f"{i + 1} {p[0]:.17g} {p[1]:.17g} {z:.17g}")
    lines.append("$EndNodes")
    lines.append("$Elements")
    lines.append(str(len(m.boundary_facets) + m.n_elements))
    eid = 1
    for f, t in zip(m.boundary_facets.tolist(), m.facet_tags.tolist()):
        code = _MSH_TYPE[m.dim]
        nodes = " ".join(str(n + 1) for n in f)
        lines.append(f"{eid} {code} 2 {phys_id[t]} {phys_id[t]} {nodes}")
        eid += 1
    for e, t in zip(m.elements.tolist(), m.element_regions.tolist()):
        code = _MSH_TYPE[m.dim + 1]
        nodes = " ".join(str(n + 1) for n in e)
        lines.append(f"{eid} {code} 2 {phys_id[t]} {phys_id[t]} {nodes}")
        eid += 1
    lines.append("$EndElements")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_msh(path):
    """Parse the subset written by write_msh: MSH 2.2 ASCII with 2/3/4-node
    simplices. Malformed content is reported with its line number."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as err:
        raise MalformedFile(f"{path}: not UTF-8 text: {err}") from None

    def fail(ln, msg):
        raise MalformedFile(f"{path}: line {ln}: {msg}")

    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(raw) and not raw[idx].strip():
            idx += 1
        if idx >= len(raw):
            fail(len(raw), "unexpected end of file")
        idx += 1
        return idx, raw[idx - 1].strip()

    ln, line = next_line()
    if line != "$MeshFormat":
        fail(ln, f"expected $MeshFormat, found {line!r}")
    ln, line = next_line()
    parts = line.split()
    if not parts or parts[0] != "2.2":
        raise UnsupportedVersion(
            f"{path}: line {ln}: MSH version {parts[0] if parts else '?'}; "
            "only 2.2 ASCII is supported")
    if len(parts) > 1 and parts[1] != "0":
        raise UnsupportedVersion(f"{path}: line {ln}: binary MSH is not supported")
    ln, line = next_line()
    if line != "$EndMeshFormat":
        fail(ln, "expected $EndMeshFormat")

    names = {}
    nodes = []
    node_ids = {}
    raw_elements = []  # (type, phys, node ids)

    while idx < len(raw):
        start = idx
        while idx < len(raw) and not raw[idx].strip():
            idx += 1
        if idx >= len(raw):
            break
        ln, header = next_line()
        if header == "$PhysicalNames":
            ln, count = next_line()
            try:
                count = int(count)
            except ValueError:
                fail(ln, f"bad physical-name count {count!r}")
            for _ in range(count):
                ln, entry = next_line()
                match = _PHYS_NAME.match(entry)
                if not match:
                    fail(ln, f"bad physical name entry {entry!r}")
                names[int(match.group(2))] = match.group(3)
            ln, end = next_line()
            if end != "$EndPhysicalNames":
                fail(ln, "expected $EndPhysicalNames")
        elif header == "$Nodes":
            ln, count = next_line()
            try:
                count = int(count)
            except ValueError:
                fail(ln, f"bad node count {count!r}")
            for _ in range(count):
                ln, entry = next_line()
                parts = entry.split()
                if len(parts) != 4:
                    fail(ln, f"node line needs 'id x y z', found {entry!r}")
                try:
                    nid = int(parts[0])
                    xyz = [float(v) for v in parts[1:]]
                except ValueError:
                    fail(ln, f"unparseable node line {entry!r}")
                node_ids[nid] = len(nodes)
                nodes.append(xyz)
            ln, end = next_line()
            if end != "$EndNodes":
                fail(ln, "expected $EndNodes")
        elif header == "$Elements":
            ln, count = next_line()
            try:
                count = int(count)
            except ValueError:
                fail(ln, f"bad element count {count!r}")
            for _ in range(count):
                ln, entry = next_line()
                parts = entry.split()
                try:
                    values = [int(v) for v in parts]
                except ValueError:
                    fail(ln, f"unparseable element line {entry!r}")
                if len(values) < 3:
                    fail(ln, f"element line too short: {entry!r}")
                etype, ntags = values[1], values[2]
                if etype not in _MSH_NODES:
                    raise UnsupportedVersion(
                        f"{path}: line {ln}: element type {etype} is not "
                        "supported (2-node lines, 3-node triangles and "
                        "4-node tetrahedra only)")
                want = _MSH_NODES[etype]
                conn = values[3 + ntags:]
                if len(conn) != want:
                    fail(ln, f"element type {etype} needs {want} nodes, "
                             f"found {len(conn)}")
                phys = values[3] if ntags >= 1 else 0
                raw_elements.append((etype, phys, conn))
            ln, end = next_line()
            if end != "$EndElements":
                fail(ln, "expected $EndElements")
        else:
            # skip unknown sections (comments, periodic data, ...)
            closer = "$End" + header.lstrip("$")
            while True:
                ln, entry = next_line()
                if entry == closer:
                    break
        if idx == start:
            break

    if not nodes:
        raise MalformedFile(f"{path}: no $Nodes section found")
    if not raw_elements:
        raise MalformedFile(f"{path}: no $Elements section found")

    nodes = np.asarray(nodes, dtype=float)
    types = {etype for etype, _, _ in raw_elements}
    dim = 3 if 4 in types else 2
    if dim == 2:
        nodes = nodes[:, :2]
    cell_type = _MSH_TYPE[dim + 1]
    facet_type = _MSH_TYPE[dim]

    def tag_of(phys):
        return names.get(phys, str(phys))

    elements, regions, facets, ftags = [], [], [], []
    for etype, phys, conn in raw_elements:
        try:
            conn = [node_ids[c] for c in conn]
        except KeyError as e:
            raise MalformedFile(f"{path}: element references unknown node {e}")
        if etype == cell_type:
            elements.append(conn)
            regions.append(tag_of(phys))
        elif etype == facet_type:
            facets.append(conn)
            ftags.append(tag_of(phys))
        # lower-dimensional entities (points/lines in 3D) are ignored
    return Mesh(nodes, np.asarray(elements), regions,
                np.asarray(facets) if facets else None,
                ftags if facets else None)


# ----------------------------------------------------------------- VTK out

_VTK_CELL = {2: 5, 3: 10}  # dim -> triangle / tetra


def write_vtk(m, path, point_data=None, cell_data=None, title="tripletfem"):
    """Legacy ASCII unstructured-grid file. point_data/cell_data map names
    to (N,) scalars or (N, dim) vectors; lengths are checked up front."""

    def check(data, want, kind):
        for name, arr in (data or {}).items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape[0] != want:
                raise LengthMismatch(
                    f"{kind} field {name!r} has {arr.shape[0]} entries, "
                    f"mesh has {want}")
            if arr.ndim > 2 or (arr.ndim == 2 and arr.shape[1] not in (2, 3)):
                raise DimensionMismatch(
                    f"{kind} field {name!r} must be scalar or vector")
            yield name, arr

    point_data = dict(check(point_data, m.n_nodes, "point"))
    cell_data = dict(check(cell_data, m.n_elements, "cell"))

    out = [f"# vtk DataFile Version 3.0", title, "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {m.n_nodes} double"]
    for p in m.nodes.tolist():
        z = p[2] if m.dim == 3 else 0.0
        out.append(f"{p[0]:.17g} {p[1]:.17g} {z:.17g}")
    k = m.dim + 1
    out.append(f"CELLS {m.n_elements} {m.n_elements * (k + 1)}")
    for e in m.elements.tolist():
        out.append(f"{k} " + " ".join(str(n) for n in e))
    out.append(f"CELL_TYPES {m.n_elements}")
    out.extend([str(_VTK_CELL[m.dim])] * m.n_elements)

    def emit(data, count, keyword):
        if not data:
            return
        out.append(f"{keyword} {count}")
        for name, arr in data.items():
            if arr.ndim == 1:
                out.append(f"SCALARS {name} double 1")
                out.append("LOOKUP_TABLE default")
                out.extend(f"{v:.17g}" for v in arr.tolist())
            else:
                out.append(f"VECTORS {name} double")
                for row in arr.tolist():
                    z = row[2] if arr.shape[1] == 3 else 0.0
                    out.append(f"{row[0]:.17g} {row[1]:.17g} {z:.17g}")

    emit(point_data, m.n_nodes, "POINT_DATA")
    emit(cell_data, m.n_elements, "CELL_DATA")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


# ----------------------------------------------------------------- CSV out


def write_probe_csv(path, points, values, value_name="value"):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    if len(values) != len(points):
        raise LengthMismatch("one value per probe point required")
    cols = ["x", "y", "z"][: points.shape[1]] + [value_name]
    rows = [",".join(cols)]
    for p, v in zip(points.tolist(), values.tolist()):
        rows.append(",".join(f"{c:.17g}" for c in p) + f",{v:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")

