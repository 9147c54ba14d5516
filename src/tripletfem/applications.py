"""Turnkey drivers built on the triplet algebra.

Three recipes: compressing an unbounded exterior onto a finite shell so
open-boundary problems become ordinary Dirichlet solves, pushing a whole
problem through a chart while the metric stays hardwired Euclidean, and
sweeping a deformation over one mesh where each step touches only the
matrix entries of the moving region.
"""

import itertools
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import fem
from . import solver as _solver
from .errors import (DimensionMismatch, RegionNotContained, SingularJacobian,
                     TopologyChange, UnknownTag)
from .geometry import Annulus, Box, Composite, KelvinShell, MetricField, det
from .mesh import (Mesh, _edge_matrices, generate_structured, map_mesh,
                   write_csv)
from .triplet import (Triplet, eval_entry, inverse_jacobian,
                      motion_metric_field, pull_back,
                      transform_material_euclidean)


# ----------------------------------------------------------- open boundary


@dataclass(frozen=True)
class OpenBoundarySpec:
    """Geometry of an exterior problem: sources and conductors live in
    `interior` (a Box or an Annulus), everything outside radius a is
    squeezed into the shell a <= R < b, whose outer circle is the image
    of infinity. The center has the interior's dimension."""

    interior: object
    a: float
    b: float
    center: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not 0.0 < self.a < self.b:
            raise ValueError(f"shell radii must satisfy 0 < a < b, "
                             f"got a={self.a}, b={self.b}")
        if self.b == np.inf:
            raise ValueError("the shell's outer radius b must be finite, "
                             f"got b={self.b}")
        if not isinstance(self.interior, (Box, Annulus)):
            raise TypeError("interior must be a Box or an Annulus")
        dim = self.interior.dim
        center = np.zeros(dim) if self.center is None \
            else np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.shape != (dim,):
            raise DimensionMismatch(
                f"the shell's center has {center.size} coordinates, but the "
                f"{dim}-d interior needs {dim}")
        if not np.isfinite(center).all():
            raise ValueError(
                f"the shell's center must be finite, got {center.tolist()}")
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        if not _contained_in_disc(self.interior, center, self.a):
            raise RegionNotContained(
                f"interior region {self.interior!r} is not contained in the "
                f"disc of radius {self.a} about {center.tolist()}")


def _contained_in_disc(region, center, radius):
    if isinstance(region, Box):
        corners = np.array(list(itertools.product(*zip(region.lo, region.hi))))
        return bool(np.all(np.linalg.norm(corners - center, axis=-1)
                           <= radius * (1.0 + 1e-12)))
    if not np.isfinite(region.rmax):
        return False
    offset = float(np.linalg.norm(region.center - center))
    return offset + region.rmax <= radius * (1.0 + 1e-12)


def _require_euclidean_exterior(metric, center, a, dim):
    ring = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    if dim == 2:
        dirs = np.stack([np.cos(ring), np.sin(ring)], axis=-1)
    else:
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((8, dim))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    pts = center + np.concatenate([1.5 * a * dirs, 4.0 * a * dirs])
    try:
        S = metric.eval(pts)
    except ValueError as err:
        raise ValueError(
            f"open-boundary mapping assumes a Euclidean exterior metric; "
            f"could not evaluate the metric outside radius {a}: {err}")
    if np.abs(S - np.eye(dim)).max() > 1e-10:
        raise ValueError(
            "open-boundary mapping assumes a Euclidean metric outside "
            f"radius {a}; the given metric differs by "
            f"{np.abs(S - np.eye(dim)).max():.3e}")


def open_boundary_triplet(base, ob):
    """Triplet that brings infinity to a finite radius.

    The chart composes the base chart with the fold KelvinShell(a, b),
    which leaves the disc of radius a untouched and compresses the
    exterior into a <= R < b. The material is pulled back through that
    fold, so it is unchanged inside a and the solve on the shell is the
    exterior problem. Points at R = b itself (infinity's image) are not
    evaluable; interior quadrature never lands there.
    """
    center = ob.center
    dim = center.size
    _require_euclidean_exterior(base.metric, center, ob.a, dim)
    folded = KelvinShell(ob.a, ob.b, center=center, dim=dim)
    chart = folded if base.chart.is_identity() \
        else Composite([base.chart, folded])

    # the exterior metric is Euclidean (checked above) and inside radius a
    # the fold is the identity, so the material is pulled back as Euclidean
    euclidean = MetricField.euclidean(dim)
    material = base.material.map_entries(
        lambda entry, tag: pull_back(entry, folded, euclidean, euclidean))
    return Triplet(chart=chart, metric=base.metric, material=material)


def open_boundary_bvp(ob, base, boundary_value, divisions=(64, 40),
                      grading=2.0):
    """Exterior Dirichlet problem on the shell annulus.

    Meshes a <= R <= b directly (2-d), applies boundary_value on the
    inner circle, and grounds the outer circle, which stands for
    infinity. The folded coefficient stiffens like 1/(b - R) near the
    outer rim, so rings are packed there by default (grading > 1).
    Returns the ready-to-solve problem specification.
    """
    center = ob.center
    if center.size != 2:
        raise ValueError("the open-boundary mesh driver is two-dimensional")
    tri = open_boundary_triplet(base, ob)
    m = generate_structured("annulus", divisions, radii=(ob.a, ob.b),
                            center=tuple(center), region="exterior",
                            grading=grading)
    return fem.BVPSpec(domain=m, triplet=tri,
                       dirichlet=(("inner", boundary_value), ("outer", 0.0)))


# -------------------------------------------------------- reparameterize


def reparameterize_fixed_metric(spec, g):
    """Push a whole problem through the chart g, metric staying Euclidean.

    The mesh is mapped node by node, materials are replaced by their
    pull-backs through g so the assembled operator is unchanged up to
    round-off, and boundary values keep their physical meaning: callables
    are composed with g^-1 so each boundary node receives the same number
    as before.
    """
    if not isinstance(spec.domain, Mesh):
        raise TypeError("reparameterization works on plain mesh problems")
    m = spec.domain
    mapped = map_mesh(m, g)
    t = spec.triplet
    dim = m.nodes.shape[1]
    euclidean = MetricField.euclidean(dim)

    # the default meets each metric region's own entry under that tag
    material = t.material.spread_default(t.metric.region_tags()).map_entries(
        lambda entry, tag: pull_back(entry, g, t.metric, euclidean, tag))

    chart = g if t.chart.is_identity() else Composite([t.chart, g])
    triplet = Triplet(chart=chart, metric=euclidean, material=material)

    dirichlet = []
    for tag, value in spec.dirichlet:
        if callable(value):
            dirichlet.append((tag, lambda X, _v=value: _v(g.inverse(X))))
        else:
            dirichlet.append((tag, value))
    return fem.BVPSpec(domain=mapped, triplet=triplet,
                       dirichlet=tuple(dirichlet))


# ------------------------------------------------------------ motion sweep


@dataclass(frozen=True)
class MotionSweep:
    """A deformation sequence applied to one region of one mesh.

    Each step map takes the base configuration of the moving region to
    its deformed position; regions other than moving_region stay put.
    The mesh and dof numbering are shared by every step. metric-change
    mode absorbs the deformation into the metric tensor, material-change
    mode into the material parameters; for scalar materials the two
    produce the same matrices.
    """

    base: object
    moving_region: str
    steps: tuple
    mode: str = "metric-change"

    def __post_init__(self):
        if not isinstance(self.base, fem.BVPSpec):
            raise TypeError("base must be a BVPSpec")
        if not isinstance(self.base.domain, Mesh):
            raise TypeError("motion sweeps run on plain mesh problems")
        if self.mode not in ("metric-change", "material-change"):
            raise ValueError(f"mode must be metric-change or "
                             f"material-change, got {self.mode!r}")
        object.__setattr__(self, "moving_region", str(self.moving_region))
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.moving_region not in self.base.domain.regions():
            raise UnknownTag(
                f"no region {self.moving_region!r} in the mesh; have "
                f"{self.base.domain.regions()}")
        if not self.base.triplet.metric.is_euclidean(self.moving_region):
            raise ValueError("the moving region must carry a Euclidean "
                             "metric in the base problem")

    def step_paths(self, pattern):
        """pattern.format(step=k) for each step k. A ValueError names a
        pattern with any other replacement field, or one that gives two
        steps one name."""
        try:
            paths = [pattern.format(step=k) for k in range(len(self.steps))]
        except (LookupError, AttributeError, TypeError, ValueError) as err:
            raise ValueError(f"file pattern {pattern!r} does not format "
                             f"with step alone: {err!r}") from None
        if len(set(paths)) < len(paths):
            raise ValueError(f"file pattern {pattern!r} gives two steps one "
                             "name; it needs a {step} placeholder")
        return paths


@dataclass(frozen=True)
class SweepStep:
    """One solved configuration of a motion sweep.

    timings holds the step's phases in seconds: update, guess (the
    projected start) and solve (preconditioner build on the first solve,
    and CG), whose total is wall_time; and update's parts beside it:
    topology (the topology check and the step triplet), then
    update_elements' coefficients, blocks and rebuild (the re-sum of the
    rows the moving elements touch). The parts are timed apart, inside
    update's own clock, so they sum to no more than update; the rest is
    code between them that no part times.
    """

    step: int
    solution: object
    energy: float
    iterations: int
    changed_entries: int
    wall_time: float
    timings: dict
    cold_iterations: int = -1  # -1 when the cold solve was not measured


def _step_triplet(base_triplet, moving_tag, step_map, mode, dim):
    if step_map.is_identity():
        return base_triplet
    if mode == "metric-change":
        entry = motion_metric_field(step_map, dim).entry()
        metric = base_triplet.metric.with_entry(moving_tag, entry)
        return Triplet(base_triplet.chart, metric, base_triplet.material)

    # material-change: pull the deformed region's material back into the
    # base chart; the material is carried by the matter it describes
    base_entry = base_triplet.material.entry(moving_tag)

    def entry(points):
        p = np.asarray(points, dtype=float)
        J = inverse_jacobian(step_map, p)
        return transform_material_euclidean(eval_entry(base_entry, p, dim), J)

    material = base_triplet.material.with_entry(moving_tag, entry)
    return Triplet(base_triplet.chart, base_triplet.metric, material)


# converged solutions a sweep projects each new system onto
GUESS_WINDOW = 4


def _check_topology(step_map, nodes, elements, k):
    """Raise TopologyChange unless step k's map keeps every element
    positively oriented: nodes are the moving region's node coordinates,
    elements its elements numbered into them, so each node is mapped
    once and the edge matrices come from the one edge formula."""
    dets = det(_edge_matrices(step_map.forward(nodes), elements))
    bad = int(np.count_nonzero(dets <= 0.0))
    if bad:
        raise TopologyChange(
            f"step {k}: the deformation folds or collapses {bad} "
            f"element(s) of the moving region")


def motion_sweep(ms, *, config=None, measure_cold=False):
    """Solve every configuration of the sweep on one shared system.

    Per step only the moving region's element blocks are recomputed, from
    the step's metric (or material) at their quadrature points, and only
    the matrix rows they touch are re-summed (fem.update_elements); where
    the step's Jacobian is one matrix there, its inverse, the metric (or
    material) and K are each formed once (geometry._once_if_repeated), and
    K, one matrix there, is integrated with one point, as a fresh assembly
    under the step's triplet does. From step 1 on, the solver
    starts from the Galerkin projection of the new system onto the
    solutions of the last GUESS_WINDOW steps (solver.projected_guess):
    the point of their span closest to the new solution in the energy
    norm, so never worse there than the previous solution or an
    extrapolation of the last few. A step that changes no matrix entry
    has the last step's system, entry for entry, and takes its solution
    with 0 iterations, zero solve timings and no solve. The
    preconditioner built on step 0 serves the whole sweep: with the
    projected start, a fresh build per step saves at most a few
    iterations and costs more time than they take, most of all for
    IC(0). measure_cold
    additionally runs each step cold (zero start, fresh preconditioner) to
    expose the iteration counts the guess and the reuse avoid; the extra
    solve is excluded from the reported wall time. Each SweepStep carries
    its phase timings; the library prints nothing and writes no file
    (the CLI writes per-step files to the names MotionSweep.step_paths
    gives).
    """
    spec = ms.base
    cfg = config if config is not None else _solver.SolverConfig()
    m = spec.domain
    moving = m.elements_in_regions([ms.moving_region])
    # the moving nodes, and the moving elements numbered into them
    node_ids, local = np.unique(m.elements[moving], return_inverse=True)
    moving_nodes, local = m.nodes[node_ids], local.reshape(len(moving), -1)
    system = fem.assemble(spec)
    dim = system.dim
    moving_set = fem.ElementSet(system, moving)

    results = []
    precond = None
    window = deque(maxlen=GUESS_WINDOW)
    for k, step_map in enumerate(ms.steps):
        t0 = time.perf_counter()
        try:
            if not step_map.is_identity():
                _check_topology(step_map, moving_nodes, local, k)
            tri = _step_triplet(spec.triplet, ms.moving_region, step_map,
                                ms.mode, dim)
            topology = time.perf_counter() - t0
            changed = fem.update_elements(system, tri, moving_set)
        except SingularJacobian as err:
            raise SingularJacobian(f"step {k}: {err}") from None
        parts = {"topology": topology, **system.update_timings}
        t1 = t2 = time.perf_counter()
        if changed == 0 and results:
            # the matrix and right-hand side equal the last step's, so
            # its solution is this one's; no guess and no solve
            last = results[-1].solution
            sol = replace(last, triplet=tri, solve_info=replace(
                last.solve_info, iterations=0,
                residuals=[last.solve_info.residual],
                timings={"preconditioner": 0.0, "cg": 0.0}))
        else:
            x0 = _solver.projected_guess(system.matrix, system.rhs, window)
            t2 = time.perf_counter()
            if precond is None:
                precond = _solver.build_preconditioner(system.matrix,
                                                       cfg.preconditioner)
            sol = fem.solve_bvp(spec, cfg, system=system,
                                preconditioner=precond, x0=x0)
            window.append(sol.solve_info.x)
        t3 = time.perf_counter()
        timings = {"update": t1 - t0, "guess": t2 - t1, "solve": t3 - t2,
                   **parts}

        cold_iters = -1
        if measure_cold:
            fresh = _solver.build_preconditioner(system.matrix,
                                                 cfg.preconditioner)
            cold = _solver.solve(system.matrix, system.rhs, cfg,
                                 preconditioner=fresh)
            cold_iters = cold.iterations
        results.append(SweepStep(step=k, solution=sol, energy=sol.energy,
                                 iterations=sol.solve_info.iterations,
                                 changed_entries=changed,
                                 wall_time=timings["update"]
                                 + timings["guess"] + timings["solve"],
                                 timings=timings,
                                 cold_iterations=cold_iters))
    return results


def write_sweep_csv(path, results):
    """Sweep log: step, energy, iterations, changed entries, wall time,
    through mesh.write_csv.

    The wall-time column is always 0 so reruns of a deterministic sweep
    produce identical bytes; the measured time of each step is its
    SweepStep.wall_time (the CLI report's per-step wall_time).
    """
    write_csv(path, ["step", "energy", "iterations", "changed_entries",
                     "wall_time"],
              [r.step for r in results], [r.energy for r in results],
              [r.iterations for r in results],
              [r.changed_entries for r in results], [0] * len(results))
