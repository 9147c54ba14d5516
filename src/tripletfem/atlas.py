"""Several charts covering one domain.

Each region carries its own chart and a mesh drawn in that chart's
coordinates; regions touch only along shared boundaries. The region chart
maps universal coordinates to region coordinates, so interface matching
happens after pulling every boundary node back to the universal chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .errors import InterfaceMismatch
from .mesh import _TopologySlot

# node matching tolerance relative to the bounding-box diagonal
DEDUP_RTOL = 1e-9


def number_components(n, pairs):
    """Glue n nodes along the given index pairs. Returns each node's
    component number and each component's lowest node; components are
    numbered in order of their lowest node."""
    # loaded only where meshes are glued
    from scipy.sparse.csgraph import connected_components

    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, lowest, inverse = np.unique(labels, return_index=True,
                                   return_inverse=True)
    lowest, number = np.unique(lowest[inverse], return_inverse=True)
    return number, lowest


@dataclass(frozen=True)
class AtlasRegion:
    """One patch of the domain.

    chart: universal coordinates -> this region's coordinates. metric is
    the metric tensor field expressed in region coordinates (None means
    Euclidean).
    """

    region_id: str
    chart: object
    mesh: object
    metric: object = None

    def universal_nodes(self):
        """Mesh nodes expressed in the universal chart."""
        return self.chart.inverse(self.mesh.nodes)


class Atlas:
    """Regions plus declared interfaces: ((id_a, id_b), (tag_a, tag_b))
    marks the boundary facets tag_a of region id_a as glued to the facets
    tag_b of region id_b. Like a Mesh, an atlas keeps one slot for what
    assembly derives from its topology (its stitched dof numbering is a
    function of the regions and interfaces, which do not change)."""

    def __init__(self, regions, interfaces=()):
        regs = []
        for r in regions:
            if not isinstance(r, AtlasRegion):
                r = AtlasRegion(*r)
            regs.append(r)
        ids = [r.region_id for r in regs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate region ids in {ids}")
        self.regions = tuple(regs)
        self._by_id = {r.region_id: r for r in regs}

        checked = []
        for pair, tags in interfaces:
            ra, rb = pair
            for rid in (ra, rb):
                if rid not in self._by_id:
                    raise ValueError(f"interface references unknown region {rid!r}")
            checked.append(((ra, rb), (str(tags[0]), str(tags[1]))))
        self.interfaces = tuple(checked)
        self._assembly_record = _TopologySlot()

    def region(self, region_id):
        try:
            return self._by_id[region_id]
        except KeyError:
            raise ValueError(f"no region {region_id!r}; have "
                             f"{[r.region_id for r in self.regions]}") from None

    def interface_sides(self):
        """(region_id, facet tag) pairs glued to another region.

        These facets are interior to the assembled domain; boundary
        conditions do not apply to them even when an outer boundary
        elsewhere reuses the same tag string."""
        sides = set()
        for (ra, rb), (ta, tb) in self.interfaces:
            sides.add((ra, ta))
            sides.add((rb, tb))
        return sides

    def dedup_tolerance(self):
        """Matching tolerance: relative to the universal bounding box."""
        pts = np.concatenate([r.universal_nodes() for r in self.regions])
        diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        return DEDUP_RTOL * max(diag, 1.0)

    def __repr__(self):
        return (f"Atlas(regions={[r.region_id for r in self.regions]}, "
                f"interfaces={len(self.interfaces)})")


@dataclass(frozen=True)
class GlobalIndex:
    """Region-local node index -> global dof, one array per region."""

    maps: dict
    n_dofs: int

    def dofs(self, region_id):
        return self.maps[region_id]


def _match_interface(atlas, pair, tags, tol):
    """Aligned node index arrays (side a, side b) for one interface."""
    side_a = atlas.region(pair[0])
    side_b = atlas.region(pair[1])
    ia = side_a.mesh.boundary_nodes(tags[0])
    ib = side_b.mesh.boundary_nodes(tags[1])
    ua = side_a.chart.inverse(side_a.mesh.nodes[ia])
    ub = side_b.chart.inverse(side_b.mesh.nodes[ib])

    if len(ia) != len(ib):
        raise InterfaceMismatch(
            f"interface {pair}: side {pair[0]} has {len(ia)} boundary nodes "
            f"({tags[0]!r}), side {pair[1]} has {len(ib)} ({tags[1]!r})")

    from scipy.spatial import cKDTree  # loaded only where meshes are glued

    dist, j = cKDTree(ub).query(ua)
    bad = np.flatnonzero(dist > tol)
    if bad.size:
        worst = bad[np.argsort(dist[bad])[::-1]][:5]
        details = "; ".join(
            f"node {int(ia[k])} at {ua[k].round(12).tolist()} "
            f"(nearest partner {dist[k]:.3e} away)"
            for k in worst)
        raise InterfaceMismatch(
            f"interface {pair}: {bad.size} node(s) on side {pair[0]} have no "
            f"partner within {tol:.3e}: {details}")
    if len(np.unique(j)) != len(j):
        raise InterfaceMismatch(
            f"interface {pair}: matching is not one-to-one; two nodes of "
            f"side {pair[0]} share the same partner on side {pair[1]}")
    return ia, ib[j]


def build_global_index(atlas):
    """Deterministic stitched dof numbering.

    Regions are visited in declaration order and nodes in index order;
    a node glued to an already-numbered partner adopts that dof.
    """
    tol = atlas.dedup_tolerance()
    # region-local node n of region i is node offsets[i] + n of one graph
    offsets = np.cumsum([0] + [r.mesh.n_nodes for r in atlas.regions])
    start = {r.region_id: offsets[i] for i, r in enumerate(atlas.regions)}
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for pair, tags in atlas.interfaces:
        ia, ib = _match_interface(atlas, pair, tags, tol)
        pairs.append(np.column_stack([ia + start[pair[0]], ib + start[pair[1]]]))
    dofs, lowest = number_components(offsets[-1], np.concatenate(pairs))
    dofs.flags.writeable = False
    maps = {r.region_id: dofs[offsets[i]:offsets[i + 1]]
            for i, r in enumerate(atlas.regions)}
    return GlobalIndex(maps=maps, n_dofs=len(lowest))

