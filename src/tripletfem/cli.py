"""Command line front end: JSON scenarios in, solved problems out.

A scenario file declares a problem (mesh or generator, triplet, boundary
values) plus one mode; the subcommand must match the mode. Each mode's
runner hands its writers, one per output the mode can write, to one
output table (_outputs), which refuses any other declared output before
the run starts. Outputs and the always-written JSON run report land next
to the scenario file unless given as absolute paths. The mesh utilities
(gen, convert, quality) need no scenario file: each runs its arguments
as a mesh-tools scenario.

Exit codes: 0 success, 64 unknown subcommand, and otherwise one error
path (_exit_status) for scenario commands and mesh utilities alike: a
ScenarioError (a bad declaration or argument; the diagnostic names the
field or line), an UnknownTag or an OSError exits 2, and any other
library error is numerical and exits 3. Every scenario run, successful
or not, writes a machine-readable report (a mesh utility writes none).
Printed numbers, like the files' numbers, come from mesh.text_rows, so
reruns of the same scenario are byte-comparable; every report's
versions name the BLAS and its OPENBLAS_NUM_THREADS setting.
"""

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import sys
import time
from importlib import resources

import jsonschema
import numpy as np
import scipy

from . import applications as app
from . import fem
from . import geometry as geo
from . import mesh as mesh_mod
from . import solver as solver_mod
from . import triplet as tp
from . import __version__
from .atlas import Atlas, AtlasRegion
from .errors import (DegenerateElement, NotConverged, ScenarioError,
                     TripletFemError, UnknownTag)

USAGE = """\
usage: tripletfem <command> ...

scenario commands (the scenario's "mode" must match the command):
  solve              scenario.json [key=value ...] [flags]
  equivalence-check  scenario.json [key=value ...] [flags]
  open-boundary      scenario.json [key=value ...] [flags]
  motion             scenario.json [key=value ...] [flags]
  mesh-tools         scenario.json [key=value ...] [flags]

flags: --tol X  --quadrature {auto,one_point,interior}
key=value overrides use dotted paths into the scenario, values parsed
as JSON when possible: solver.tol=1e-8  quadrature=interior; the flags
are shorthands for these two and win over them

mesh utilities (no scenario file):
  mesh gen --shape {box,annulus} --div N N --out FILE [options]
  mesh convert IN.msh OUT.{msh,vtk}
  mesh quality FILE.msh

exit codes: 0 ok, 2 validation, 3 numerical failure, 64 unknown command
"""

def _fmt(x):
    return mesh_mod.text_rows([float(x)])[:-1]


# ------------------------------------------------------------ schema


def load_schema():
    """The published scenario schema, as shipped inside the package."""
    text = resources.files("tripletfem").joinpath(
        "schema/scenario.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


def _field_path(err):
    parts = [str(p) for p in err.absolute_path]
    return ".".join(parts) if parts else "(top level)"


def validate_scenario(scn):
    """Schema check plus the per-mode section requirements."""
    validator = jsonschema.Draft202012Validator(load_schema())
    err = jsonschema.exceptions.best_match(validator.iter_errors(scn))
    if err is not None:
        raise ScenarioError(err.message, field=_field_path(err))

    mode = scn["mode"]

    def need(field):
        if field not in scn:
            raise ScenarioError(
                f"mode {mode!r} needs a {field!r} section", field=field)

    if mode == "solve":
        if "mesh" not in scn and "atlas" not in scn:
            raise ScenarioError(
                "mode 'solve' needs a 'mesh' or 'atlas' section",
                field="mesh")
        if "mesh" in scn and "atlas" in scn:
            raise ScenarioError(
                "give either 'mesh' or 'atlas', not both", field="atlas")
        need("boundary")
    elif mode == "equivalence-check":
        need("mesh")
        need("triplets")
        need("boundary")
    elif mode == "open-boundary":
        need("open_boundary")
    elif mode == "motion":
        if "atlas" in scn:
            raise ScenarioError(
                "motion sweeps run on a single mesh, not an atlas",
                field="atlas")
        need("mesh")
        need("motion")
        need("boundary")
    elif mode == "mesh-tools":
        need("mesh")


# ------------------------------------------------ scenario loading


def _finite_json(text, field=None):
    """json.loads that rejects NaN and infinities, which the schema's
    numeric bounds would let through."""

    def reject(token):
        raise ScenarioError(f"non-finite number {token}; numbers must be "
                            "finite", field=field)

    def number(token):
        value = float(token)
        if not math.isfinite(value):
            reject(token)
        return value

    return json.loads(text, parse_constant=reject, parse_float=number)


def _load_scenario(path):
    if not os.path.isfile(path):
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        with open(path, encoding="utf-8") as f:
            scn = _finite_json(f.read())
    except UnicodeDecodeError as err:
        raise ScenarioError(f"scenario is not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario is not valid JSON: {err.msg}",
                            line=err.lineno) from err
    if not isinstance(scn, dict):
        raise ScenarioError("scenario must be a JSON object")
    return scn


def _apply_override(scn, key, raw):
    """Dotted-path assignment; the value is JSON if it parses, else text."""
    try:
        value = _finite_json(raw, field=key)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = scn
    for p in parts[:-1]:
        nxt = node.get(p)
        if nxt is None:
            nxt = {}
            node[p] = nxt
        if not isinstance(nxt, dict):
            raise ScenarioError(
                f"override path {key!r} descends into a non-object",
                field=key)
        node = nxt
    node[parts[-1]] = value


# flag -> the scenario path it overrides
_FLAGS = {"--tol": "solver.tol", "--quadrature": "quadrature"}


def _parse_scenario_args(cmd, args, report):
    """The overrides among the arguments. A flag is shorthand for its
    key=value override and is applied after the explicit ones, so it
    wins; both are validated with the scenario. The scenario path and
    its report's go into report once read, so a bad argument after the
    path (a ScenarioError) is reported next to it."""
    overrides = []
    flags = []
    i = 0
    while i < len(args):
        a = args[i]
        if a in _FLAGS:
            if i + 1 >= len(args):
                raise ScenarioError(f"flag {a} needs a value", field=a)
            flags.append(f"{_FLAGS[a]}={args[i + 1]}")
            i += 1
        elif a.startswith("--"):
            raise ScenarioError(f"unknown flag {a!r}", field=a)
        elif not report:
            report.update(scenario=a, path=a + ".report.json")
        elif "=" in a:
            overrides.append(a)
        else:
            raise ScenarioError(
                f"unexpected argument {a!r}; overrides look like key=value")
        i += 1
    if not report:
        raise ScenarioError(f"{cmd} needs a scenario file")
    return overrides + flags


# ------------------------------------------------------- builders


class RunContext:
    """Resolves relative paths against base_dir ("" leaves them as given)."""

    def __init__(self, base_dir):
        self.base_dir = base_dir

    def path(self, rel):
        return rel if os.path.isabs(rel) else os.path.join(self.base_dir,
                                                           rel)


@contextlib.contextmanager
def _declared(field, prefix=""):
    """Build one declared section. A library, value or type error raised
    inside is the declaration's fault and becomes a ScenarioError naming
    the field. A ScenarioError passes through untouched, and so does a
    collapsed element: the declared geometry really fails, which is
    numerical, not a typo."""
    try:
        yield
    except (ScenarioError, DegenerateElement):
        raise
    except (TripletFemError, ValueError, TypeError) as err:
        raise ScenarioError(f"{prefix}{err}", field=field) from err


def build_chart(cfg, dim):
    kind = cfg["kind"]
    with _declared("chart", f"bad {kind} chart: "):
        if kind == "identity":
            return geo.Identity(dim)
        if kind == "axis-scaling":
            return geo.AxisScaling(tuple(cfg["factors"]))
        if kind == "rotation":
            return geo.Rotation(cfg["angle"], axis=cfg.get("axis"))
        if kind == "translation":
            return geo.translation(cfg["offset"])
        if kind == "affine":
            return geo.Affine(cfg["matrix"], cfg.get("offset"))
        if kind == "polar-stretch":
            return geo.PolarStretch(scale=cfg.get("scale", 1.0),
                                    exponent=cfg.get("exponent", 1.0),
                                    center=cfg.get("center"), dim=dim)
        if kind == "kelvin-shell":
            return geo.KelvinShell(cfg["a"], cfg["b"],
                                   center=cfg.get("center"), dim=dim)
        if kind == "axis-piecewise-linear":
            return geo.AxisPiecewiseLinear(cfg["axis"], cfg["breaks"],
                                           cfg["images"], dim=dim)
        if kind == "composite":
            return geo.Composite([build_chart(c, dim)
                                  for c in cfg["members"]])
    raise ScenarioError(f"unknown chart kind {kind!r}", field="chart")


def build_metric(cfg, dim):
    if cfg is None or cfg["kind"] == "euclidean":
        return geo.MetricField.euclidean(dim)
    with _declared("metric", "bad metric: "):
        if cfg["kind"] == "constant":
            return geo.MetricField(
                dim, constant=np.asarray(cfg["matrix"], dtype=float))
        mapping = {tag: np.asarray(m, dtype=float)
                   for tag, m in cfg["regions"].items()}
        default = np.asarray(cfg["default"], dtype=float) \
            if "default" in cfg else None
        return geo.MetricField.by_region(dim, mapping, default=default)


def _material_entry(entry, dim, chart, metric, tag):
    if isinstance(entry, dict):
        # given in the standard parameterization under a Euclidean metric,
        # re-expressed in the chart under the triplet's metric
        base = tp.material_matrix(np.asarray(entry["pullback"], dtype=float),
                                  dim)
        return tp.pull_back(base, chart, geo.MetricField.euclidean(dim),
                            metric, tag)
    if isinstance(entry, list):
        return np.asarray(entry, dtype=float)
    return float(entry)


def build_material(cfg, dim, chart, metric):
    if cfg is None:
        return tp.MaterialField.uniform(1.0, dim)
    with _declared("material", "bad material: "):
        declared = tp.MaterialField(dim, regions=cfg.get("regions"),
                                    default=cfg.get("default"))
        # a pulled-back default meets each metric region's own matrix
        return declared.spread_default(metric.region_tags()).map_entries(
            lambda entry, tag: _material_entry(entry, dim, chart, metric,
                                               tag))


def build_triplet(cfg, dim):
    cfg = cfg or {}
    chart = build_chart(cfg.get("chart", {"kind": "identity"}), dim)
    metric = build_metric(cfg.get("metric"), dim)
    material = build_material(cfg.get("material"), dim, chart, metric)
    return tp.Triplet(chart=chart, metric=metric, material=material)


def build_mesh(cfg, ctx, dim=None):
    """A mesh read from cfg["file"] (any fault in the file's content is a
    mesh.file declaration error) or made by cfg["generator"], whose keys
    are generate_structured's keyword arguments. It must have dim, the
    dimension a scenario file declares; a mesh utility declares none (dim
    None), as its --div count or its file alone fixes the dimension."""
    if "file" in cfg:
        path = ctx.path(cfg["file"])
        if not os.path.isfile(path):
            raise ScenarioError(f"mesh file not found: {path}",
                                field="mesh.file")
        try:
            m = mesh_mod.read_msh(path)
        except TripletFemError as err:
            raise ScenarioError(str(err), field="mesh.file") from err
    else:
        gen = dict(cfg["generator"])
        with _declared("mesh.generator"):
            if "region_bands" in gen:
                gen["region_bands"] = [
                    (str(t), int(ax), float(lo), float(hi))
                    for t, ax, lo, hi in gen["region_bands"]]
            m = mesh_mod.generate_structured(**gen)
    if dim is not None and m.dim != dim:
        raise ScenarioError(f"the scenario declares dimension {dim}, but "
                            f"its mesh is {m.dim}-dimensional",
                            field="dimension")
    return m


def build_atlas(cfg, ctx, dim):
    regions = [AtlasRegion(rc["id"], build_chart(rc["chart"], dim),
                           build_mesh(rc["mesh"], ctx, dim))
               for rc in cfg["regions"]]
    interfaces = [((ic["regions"][0], ic["regions"][1]),
                   (ic["tags"][0], ic["tags"][1]))
                  for ic in cfg.get("interfaces", ())]
    with _declared("atlas", "atlas: "):
        return Atlas(regions, interfaces)


def _dirichlet(scn):
    return tuple((b["tag"], float(b["value"]))
                 for b in scn.get("boundary", ()))


def _make_spec(domain, triplet, scn):
    with _declared("boundary"):
        return fem.BVPSpec(domain=domain, triplet=triplet,
                           dirichlet=_dirichlet(scn),
                           quadrature=scn.get("quadrature", "auto"))


def build_bvp(scn, ctx):
    dim = scn["dimension"]
    triplet = build_triplet(scn.get("triplet"), dim)
    if "atlas" in scn:
        domain = build_atlas(scn["atlas"], ctx, dim)
    else:
        domain = build_mesh(scn["mesh"], ctx, dim)
    return _make_spec(domain, triplet, scn)


def _solver_config(scn):
    s = scn.get("solver", {})
    kw = {}
    if "tol" in s:
        kw["tol"] = float(s["tol"])
    if "max_iter" in s:
        kw["max_iter"] = int(s["max_iter"])
    if "preconditioner" in s:
        kw["preconditioner"] = s["preconditioner"]
    return solver_mod.SolverConfig(**kw)


# -------------------------------------------------------- runners


@contextlib.contextmanager
def _outputs(scn, ctx, writers):
    """The one output table of a scenario run. writers maps each output
    the run can write to a function that writes it to its resolved path
    (one that leaves several files returns their paths). Entering
    refuses a declared output without a writer, before any assembly or
    solve, and yields the declared outputs' paths; when the body returns,
    each is written, every file prints "wrote <path>", and the yielded
    map, with returned file lists in place, is the report's outputs."""
    outputs = {key: ctx.path(rel) for key, rel in
               scn.get("outputs", {}).items() if key != "report"}
    for key in outputs:
        if key not in writers:
            raise ScenarioError(
                f"this {scn['mode']} run writes no {key} output; it writes "
                f"{', '.join(writers)}", field=f"outputs.{key}")
    yield outputs
    for key, write in writers.items():
        if key in outputs:
            files = write(outputs[key])
            outputs[key] = files or outputs[key]
            for path in files or [outputs[key]]:
                print(f"wrote {path}")


def _run_solve(scn, ctx, spec=None):
    """Solve the scenario's problem, or the given spec, and export it."""
    spec = spec if spec is not None else build_bvp(scn, ctx)
    # the writers read the solution once the body below has made it
    writers = {} if not isinstance(spec.domain, mesh_mod.Mesh) else {
        "vtk": lambda path: mesh_mod.write_vtk(
            spec.domain, path, point_data={"potential": sol.u}),
        "csv": lambda path: mesh_mod.write_probe_csv(
            path, spec.domain.nodes, sol.u, value_name="potential")}
    writers["matrix_market"] = lambda path: fem.write_matrix_market(
        sol.system.full_matrix, path)
    config = _solver_config(scn)
    with _outputs(scn, ctx, writers) as outputs:
        sol = fem.solve_bvp(spec, config)
        info = sol.solve_info
        print(f"energy {_fmt(sol.energy)}")
        print(f"cg iterations {info.iterations}, "
              f"residual {_fmt(info.residual)}")
    prec = info.preconditioner
    return {"energy": float(sol.energy), "iterations": int(info.iterations),
            "residual": float(info.residual),
            "assembly": dict(sol.system.timings),
            "solve": dict(info.timings),
            "residual_history": info.residuals,
            "dofs": int(sol.u.size),
            "outputs": outputs,
            "preconditioner": {
                "requested": config.preconditioner, "built": prec.kind,
                "fallback": prec.fallback, "note": prec.note}}


def _run_equivalence(scn, ctx):
    dim = scn["dimension"]
    writers = {
        "csv": lambda path: mesh_mod.write_csv(
            path, ["matrix_rel_frobenius", "matrix_max_entry",
                   "material_max_deviation"],
            [comp.rel_frobenius], [comp.max_entry_deviation], [material_dev]),
        "matrix_market": lambda path: fem.write_matrix_market(
            systems[0].full_matrix, path)}
    with _outputs(scn, ctx, writers) as outputs:
        # the standard parameterization
        base = build_mesh(scn["mesh"], ctx, dim)
        triplets = [build_triplet(c, dim) for c in scn["triplets"]]
        systems = []
        for t in triplets:
            m = mesh_mod.map_mesh(base, t.chart)
            systems.append(fem.assemble(_make_spec(m, t, scn)))
        comp = fem.compare_matrices(systems[0].full_matrix,
                                    systems[1].full_matrix)

        centroids = base.centroids()
        material_dev = 0.0
        for tag in base.regions():
            ids = base.elements_in_regions([tag])
            rep = tp.verify_material_equivalence(triplets[0], triplets[1],
                                                 centroids[ids], region=tag)
            material_dev = max(material_dev, float(rep.max_deviation))

        print(f"matrix deviation {_fmt(comp.rel_frobenius)} "
              f"(worst entry {_fmt(comp.max_entry_deviation)})")
        print(f"material deviation {_fmt(material_dev)}")
    return {"matrix_rel_frobenius": float(comp.rel_frobenius),
            "matrix_max_entry": float(comp.max_entry_deviation),
            "material_max_deviation": material_dev,
            "assembly": [dict(s.timings) for s in systems],
            "outputs": outputs}


def _build_interior(cfg):
    if cfg["kind"] == "box":
        return geo.Box(cfg["lo"], cfg["hi"])
    center = cfg.get("center", (0.0, 0.0))
    return geo.Annulus(center, 0.0, cfg["radius"])


def _run_open_boundary(scn, ctx):
    dim = scn["dimension"]
    if dim != 2:
        raise ScenarioError("open-boundary scenarios are two dimensional",
                            field="dimension")
    cfg = scn["open_boundary"]
    base = build_triplet(scn.get("triplet"), dim)

    with _declared("open_boundary"):
        ob = app.OpenBoundarySpec(interior=_build_interior(cfg["interior"]),
                                  a=cfg["a"], b=cfg["b"],
                                  center=cfg.get("center"))

    inner = cfg["inner_value"]
    if isinstance(inner, dict):
        n = int(inner["harmonic"])
        amp = float(inner.get("amplitude", 1.0))
        cx, cy = ob.center

        def value(x):
            return amp * np.cos(n * np.arctan2(x[..., 1] - cy,
                                               x[..., 0] - cx))
    else:
        value = float(inner)

    with _declared("open_boundary"):
        spec = app.open_boundary_bvp(
            ob, base, value,
            divisions=tuple(cfg.get("divisions", (64, 40))),
            grading=float(cfg.get("grading", 2.0)))
    payload = _run_solve(scn, ctx, spec)
    payload["shell"] = {"a": ob.a, "b": ob.b,
                        "center": ob.center.tolist()}
    return payload


def _run_motion(scn, ctx):
    spec = build_bvp(scn, ctx)
    cfg = scn["motion"]
    dim = scn["dimension"]
    steps = tuple(build_chart(c, dim) for c in cfg["steps"])
    with _declared("motion"):
        ms = app.MotionSweep(base=spec, moving_region=cfg["moving_region"],
                             steps=steps,
                             mode=cfg.get("mode", "metric-change"))

    def write_steps(_):
        for r, path in zip(results, step_files):
            mesh_mod.write_vtk(spec.domain, path,
                               point_data={"potential": r.solution.u})
        return step_files

    writers = {"vtk": write_steps,
               "csv": lambda path: app.write_sweep_csv(path, results)}
    with _outputs(scn, ctx, writers) as outputs:
        # the declared pattern is formatted before it is resolved, so
        # braces in the scenario's directory stay part of the name
        with _declared("outputs.vtk"):
            step_files = [ctx.path(name) for name in
                          ms.step_paths(scn["outputs"]["vtk"])] \
                if "vtk" in outputs else []
        results = app.motion_sweep(
            ms, config=_solver_config(scn),
            measure_cold=cfg.get("measure_cold", False))
        for r in results:
            print(f"step {r.step} energy {_fmt(r.energy)} "
                  f"iterations {r.iterations} changed {r.changed_entries}")
    # a step's guess_residual is ||b - A x0|| of its starting vector
    return {"steps": [{"step": r.step, "energy": float(r.energy),
                       "iterations": int(r.iterations),
                       "guess_residual": r.solution.solve_info.residuals[0],
                       "changed_entries": int(r.changed_entries),
                       "cold_iterations": int(r.cold_iterations),
                       "wall_time": float(r.wall_time),
                       "timings": dict(r.timings)}
                      for r in results],
            "assembly": dict(results[0].solution.system.timings),
            "outputs": outputs}


def _run_mesh_tools(scn, ctx):
    writers = {
        "msh": lambda path: mesh_mod.write_msh(m, path),
        "vtk": lambda path: mesh_mod.write_vtk(
            m, path, cell_data={"quality": q.ratios}),
        "csv": lambda path: mesh_mod.write_csv(
            path, ["element", "quality"], np.arange(len(q.ratios)),
            q.ratios)}
    with _outputs(scn, ctx, writers) as outputs:
        m = build_mesh(scn["mesh"], ctx, scn.get("dimension"))
        q = mesh_mod.quality(m)
        print(f"{m.n_nodes} nodes, {m.n_elements} elements")
        print(f"quality min {_fmt(q.min)} max {_fmt(q.max)} "
              f"mean {_fmt(q.mean)} worst_element {q.worst_element}")
    return {"nodes": int(m.n_nodes), "elements": int(m.n_elements),
            "quality": {"min": float(q.min), "max": float(q.max),
                        "mean": float(q.mean),
                        "worst_element": int(q.worst_element)},
            "outputs": outputs}


_RUNNERS = {"solve": _run_solve, "equivalence-check": _run_equivalence,
            "open-boundary": _run_open_boundary, "motion": _run_motion,
            "mesh-tools": _run_mesh_tools}


# ------------------------------------------------- report and errors


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _versions():
    """Package versions, and the BLAS numpy calls with its thread
    setting."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jsonschema": importlib.metadata.version("jsonschema"),
            "tripletfem": __version__,
            "blas": {"name": blas.get("name"),
                     "version": blas.get("version")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _write_report(path, payload):
    """Write the payload as JSON, with the versions every report carries."""
    payload = dict(payload, versions=_versions())
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True,
                      default=_json_default)
            f.write("\n")
    except OSError as err:
        print(f"warning: could not write report {path}: {err}",
              file=sys.stderr)


def _error_info(err):
    info = {"type": type(err).__name__, "message": str(err)}
    if isinstance(err, NotConverged):
        info["iterations"] = int(err.iterations)
        info["residual"] = float(err.residual)
    if isinstance(err, ScenarioError):
        if err.field is not None:
            info["field"] = err.field
        if err.line is not None:
            info["line"] = err.line
    return info


def _exit_status(run, report=None):
    """The one error path and exit-code rule. run() returns 0 or raises:
    a declaration, a tag or a file exits 2, and any other library error
    is numerical and exits 3. The error is printed with its line or
    field and, once run has read a scenario path, written to its report
    (report holds "scenario" and the report's "path")."""
    try:
        return run()
    except (TripletFemError, OSError) as err:
        code = 2 if isinstance(err, (ScenarioError, UnknownTag, OSError)) \
            else 3
        info = _error_info(err)
        where = next((f" ({key} {info[key]})" for key in ("line", "field")
                      if key in info), "")
        print(f"error: {err}{where}", file=sys.stderr)
        if report:
            _write_report(report["path"], {
                "status": "error", "exit_code": code, "error": info,
                "scenario": report["scenario"]})
        return code


def run_scenario(cmd, args):
    """One scenario run: parse, validate, execute, report."""
    report = {}
    started = time.time()

    def run():
        overrides = _parse_scenario_args(cmd, args, report)
        scenario_path = report["scenario"]
        scn = _load_scenario(scenario_path)
        for kv in overrides:
            key, _, raw = kv.partition("=")
            _apply_override(scn, key, raw)
        validate_scenario(scn)
        if scn["mode"] != cmd:
            raise ScenarioError(
                f"scenario mode {scn['mode']!r} does not match "
                f"subcommand {cmd!r}", field="mode")
        ctx = RunContext(os.path.dirname(os.path.abspath(scenario_path)))
        declared = scn.get("outputs", {}).get("report")
        if declared:
            report["path"] = ctx.path(declared)
        payload = _RUNNERS[cmd](scn, ctx)
        payload.update({
            "status": "ok", "mode": cmd, "name": scn["name"],
            "scenario": scenario_path, "wall_time": time.time() - started})
        _write_report(report["path"], payload)
        return 0

    return _exit_status(run, report)


# --------------------------------------------------- mesh utilities


class _ArgumentParser(argparse.ArgumentParser):
    """The mesh utilities' argument parser: a bad or missing argument
    raises a ScenarioError, which leaves through _exit_status like any
    other bad declaration; -h still prints the help and exits 0."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


def _mesh_gen(args):
    parser = _ArgumentParser(prog="tripletfem mesh gen")
    parser.add_argument("--shape", required=True,
                        choices=("box", "annulus"))
    parser.add_argument("--div", dest="divisions", metavar="N",
                        required=True, type=int, nargs="+")
    parser.add_argument("--out", required=True)
    parser.add_argument("--bounds", type=float, nargs="+",
                        help="lo per axis then hi per axis")
    parser.add_argument("--radii", type=float, nargs=2)
    parser.add_argument("--center", type=float, nargs="+")
    parser.add_argument("--region", type=str)
    parser.add_argument("--grading", type=float)
    parser.add_argument("--band", dest="region_bands", nargs=4,
                        action="append", metavar=("TAG", "AXIS", "LO", "HI"))
    # the flags' destinations are the scenario's generator keys
    gen = {key: value for key, value in vars(parser.parse_args(args)).items()
           if value is not None}
    out = gen.pop("out")
    # float() takes NaN and infinities, which a scenario's JSON refuses; a
    # band bound that is no number at all is left to the mesh builder
    numbers = {f"--{key}": np.ravel(gen.get(key, [])).tolist()
               for key in ("bounds", "radii", "center", "grading")}
    numbers["--band"] = [x for band in gen.get("region_bands", [])
                         for x in band[2:]]
    for flag, values in numbers.items():
        for raw in values:
            with contextlib.suppress(ValueError):
                if not math.isfinite(float(raw)):
                    raise ScenarioError(f"non-finite number {raw}; numbers "
                                        "must be finite", field=flag)
    if "bounds" in gen:  # lo per axis, then hi per axis
        half = len(gen["bounds"]) // 2
        gen["bounds"] = [gen["bounds"][:half], gen["bounds"][half:]]
    return {"generator": gen}, out


def _mesh_command(args):
    """A mesh utility: its arguments become a mesh-tools scenario, with
    the output file's extension as its outputs key, run by the scenario
    runner through the one error path, without a report."""
    if not args or args[0] not in ("gen", "convert", "quality"):
        print(USAGE, file=sys.stderr)
        return 64

    def run():
        if args[0] == "gen":
            mesh, out = _mesh_gen(args[1:])
        else:
            parser = _ArgumentParser(prog=f"tripletfem mesh {args[0]}")
            parser.add_argument("input")
            if args[0] == "convert":
                parser.add_argument("output")
            ns = parser.parse_args(args[1:])
            mesh, out = {"file": ns.input}, getattr(ns, "output", None)
        key = os.path.splitext(out)[1][1:] if out else None
        if key not in (None, "msh", "vtk"):
            raise ScenarioError(f"unsupported output extension on {out!r} "
                                "(use .msh or .vtk)")
        _run_mesh_tools({"mode": "mesh-tools", "mesh": mesh,
                         "outputs": {key: out} if out else {}},
                        RunContext(""))
        return 0

    try:
        return _exit_status(run)
    except SystemExit:  # -h: argparse printed the help
        return 0


# ------------------------------------------------------------- main


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in ("-h", "--help", "help"):
        print(USAGE)
        return 0
    if not args:
        print(USAGE, file=sys.stderr)
        return 64
    cmd, rest = args[0], args[1:]
    if cmd in _RUNNERS:
        return run_scenario(cmd, rest)
    if cmd == "mesh":
        return _mesh_command(rest)
    print(f"error: unknown subcommand {cmd!r}", file=sys.stderr)
    print(USAGE, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main())
