"""Command line front end: JSON scenarios in, solved problems out.

A scenario file declares a problem (mesh or generator, triplet, boundary
values) plus one mode; the subcommand must match the mode. Outputs and
the always-written JSON run report land next to the scenario file unless
given as absolute paths. Quick mesh utilities (gen, convert, quality)
work without a scenario.

Exit codes: 0 success, 64 unknown subcommand, and otherwise one rule
(_exit_code) for scenario commands and mesh utilities alike: a
ScenarioError (a bad declaration or argument; the diagnostic names the
field or line), an UnknownTag or an OSError exits 2, and any other
library error is numerical and exits 3. Every scenario run, successful
or not, writes a machine-readable report; numbers print with 17
significant digits so reruns of the same scenario are byte-comparable.
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

_SCENARIO_COMMANDS = ("solve", "equivalence-check", "open-boundary",
                      "motion", "mesh-tools")


def _fmt(x):
    return f"{float(x):.17g}"


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


def _parse_scenario_args(cmd, args):
    """Split the arguments into the scenario path and its overrides. A
    flag is shorthand for its key=value override and is applied after
    the explicit ones, so it wins; both are validated with the scenario.

    Returns (scenario_path, overrides, error). Parsing stops at the first
    bad argument, which comes back as a ScenarioError with the path as
    far as it was read (None when no path came before it)."""
    scenario_path = None
    overrides = []
    flags = []
    i = 0
    while i < len(args):
        a = args[i]
        if a in _FLAGS:
            if i + 1 >= len(args):
                return scenario_path, [], ScenarioError(
                    f"flag {a} needs a value", field=a)
            flags.append(f"{_FLAGS[a]}={args[i + 1]}")
            i += 2
        elif a.startswith("--"):
            return scenario_path, [], ScenarioError(
                f"unknown flag {a!r}", field=a)
        elif scenario_path is None:
            scenario_path = a
            i += 1
        elif "=" in a:
            overrides.append(a)
            i += 1
        else:
            return scenario_path, [], ScenarioError(
                f"unexpected argument {a!r}; overrides look like key=value")
    if scenario_path is None:
        return None, [], ScenarioError(f"{cmd} needs a scenario file")
    return scenario_path, overrides + flags, None


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
        if kind == "piecewise-radial":
            return geo.PiecewiseRadial(cfg["split_radius"],
                                       build_chart(cfg["outer"], dim),
                                       center=cfg.get("center"))
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


def build_mesh(cfg, ctx):
    """A mesh read from cfg["file"] (any fault in the file's content is a
    mesh.file declaration error) or made by cfg["generator"], whose keys
    are generate_structured's keyword arguments."""
    if "file" in cfg:
        path = ctx.path(cfg["file"])
        if not os.path.isfile(path):
            raise ScenarioError(f"mesh file not found: {path}",
                                field="mesh.file")
        try:
            return mesh_mod.read_msh(path)
        except TripletFemError as err:
            raise ScenarioError(str(err), field="mesh.file") from err
    gen = dict(cfg["generator"])
    with _declared("mesh.generator"):
        if "region_bands" in gen:
            gen["region_bands"] = [(str(t), int(ax), float(lo), float(hi))
                                   for t, ax, lo, hi in gen["region_bands"]]
        return mesh_mod.generate_structured(**gen)


def _scenario_mesh(cfg, ctx, dim):
    """build_mesh for a scenario, whose declared dimension the mesh must
    have."""
    m = build_mesh(cfg, ctx)
    if m.dim != dim:
        raise ScenarioError(f"the scenario declares dimension {dim}, but "
                            f"its mesh is {m.dim}-dimensional",
                            field="dimension")
    return m


def build_atlas(cfg, ctx, dim):
    regions = [AtlasRegion(rc["id"], build_chart(rc["chart"], dim),
                           _scenario_mesh(rc["mesh"], ctx, dim))
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
        domain = _scenario_mesh(scn["mesh"], ctx, dim)
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


def _solve_and_export(spec, scn, ctx):
    config = _solver_config(scn)
    sol = fem.solve_bvp(spec, config)
    outputs = scn.get("outputs", {})
    written = {}
    single_mesh = isinstance(spec.domain, mesh_mod.Mesh)
    for key in ("vtk", "csv"):
        if key in outputs and not single_mesh:
            raise ScenarioError(
                f"{key} output needs a single-mesh problem, not an atlas",
                field=f"outputs.{key}")
    if "vtk" in outputs:
        path = ctx.path(outputs["vtk"])
        mesh_mod.write_vtk(spec.domain, path,
                           point_data={"potential": sol.u})
        written["vtk"] = path
    if "csv" in outputs:
        path = ctx.path(outputs["csv"])
        mesh_mod.write_probe_csv(path, spec.domain.nodes, sol.u,
                                 value_name="potential")
        written["csv"] = path
    if "matrix_market" in outputs:
        path = ctx.path(outputs["matrix_market"])
        fem.write_matrix_market(sol.system.full_matrix, path)
        written["matrix_market"] = path
    info = sol.solve_info
    iterations = info.iterations if info is not None else 0
    residual = float(info.residual) if info is not None else 0.0
    history = info.residuals if info is not None else [0.0]
    prec = info.preconditioner if info is not None else None
    print(f"energy {_fmt(sol.energy)}")
    print(f"cg iterations {iterations}, residual {_fmt(residual)}")
    for path in written.values():
        print(f"wrote {path}")
    return sol, {"energy": float(sol.energy), "iterations": int(iterations),
                 "residual": residual, "residual_history": history,
                 "dofs": int(sol.u.size),
                 "outputs": written,
                 "preconditioner": {
                     "requested": config.preconditioner,
                     "built": prec.kind if prec is not None else None,
                     "fallback": prec is not None and prec.fallback,
                     "note": prec.note if prec is not None else ""}}


def _run_solve(scn, ctx):
    spec = build_bvp(scn, ctx)
    _, payload = _solve_and_export(spec, scn, ctx)
    return payload


def _run_equivalence(scn, ctx):
    dim = scn["dimension"]
    base = _scenario_mesh(scn["mesh"], ctx, dim)  # standard parameterization
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

    outputs = scn.get("outputs", {})
    written = {}
    if "csv" in outputs:
        path = ctx.path(outputs["csv"])
        with open(path, "w", encoding="utf-8") as f:
            f.write("matrix_rel_frobenius,matrix_max_entry,"
                    "material_max_deviation\n")
            f.write(f"{_fmt(comp.rel_frobenius)},"
                    f"{_fmt(comp.max_entry_deviation)},"
                    f"{_fmt(material_dev)}\n")
        written["csv"] = path
    if "matrix_market" in outputs:
        path = ctx.path(outputs["matrix_market"])
        fem.write_matrix_market(systems[0].full_matrix, path)
        written["matrix_market"] = path
    for path in written.values():
        print(f"wrote {path}")
    return {"matrix_rel_frobenius": float(comp.rel_frobenius),
            "matrix_max_entry": float(comp.max_entry_deviation),
            "material_max_deviation": material_dev, "outputs": written}


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

    inner = cfg["inner_value"]
    if isinstance(inner, dict):
        n = int(inner["harmonic"])
        amp = float(inner.get("amplitude", 1.0))
        cx, cy = np.asarray(cfg.get("center", (0.0, 0.0)), dtype=float)

        def value(x):
            return amp * np.cos(n * np.arctan2(x[..., 1] - cy,
                                               x[..., 0] - cx))
    else:
        value = float(inner)

    with _declared("open_boundary"):
        ob = app.OpenBoundarySpec(interior=_build_interior(cfg["interior"]),
                                  a=cfg["a"], b=cfg["b"],
                                  center=cfg.get("center"))
        spec = app.open_boundary_bvp(
            ob, base, value,
            divisions=tuple(cfg.get("divisions", (64, 40))),
            grading=float(cfg.get("grading", 2.0)))
    _, payload = _solve_and_export(spec, scn, ctx)
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

    outputs = scn.get("outputs", {})
    if "matrix_market" in outputs:
        raise ScenarioError(
            "matrix_market output is not available for motion sweeps",
            field="outputs.matrix_market")
    vtk_pattern = None
    if "vtk" in outputs:
        if "{step}" not in outputs["vtk"]:
            raise ScenarioError(
                "motion vtk path needs a {step} placeholder",
                field="outputs.vtk")
        vtk_pattern = ctx.path(outputs["vtk"])

    results = app.motion_sweep(
        ms, config=_solver_config(scn),
        measure_cold=cfg.get("measure_cold", False),
        vtk_pattern=vtk_pattern)

    for r in results:
        print(f"step {r.step} energy {_fmt(r.energy)} "
              f"iterations {r.iterations} changed {r.changed_entries}")
    written = {}
    if "csv" in outputs:
        path = ctx.path(outputs["csv"])
        app.write_sweep_csv(path, results)
        written["csv"] = path
        print(f"wrote {path}")
    # a step's guess_residual is ||b - A x0|| of its starting vector
    return {"steps": [{"step": r.step, "energy": float(r.energy),
                       "iterations": int(r.iterations),
                       "guess_residual": r.solution.solve_info.residuals[0]
                       if r.solution.solve_info is not None else 0.0,
                       "changed_entries": int(r.changed_entries),
                       "cold_iterations": int(r.cold_iterations),
                       "wall_time": float(r.wall_time),
                       "timings": dict(r.timings)}
                      for r in results],
            "outputs": written}


def _run_mesh_tools(scn, ctx):
    m = _scenario_mesh(scn["mesh"], ctx, scn["dimension"])
    q = mesh_mod.quality(m)
    outputs = scn.get("outputs", {})
    written = {}
    if "msh" in outputs:
        path = ctx.path(outputs["msh"])
        mesh_mod.write_msh(m, path)
        written["msh"] = path
    if "vtk" in outputs:
        path = ctx.path(outputs["vtk"])
        mesh_mod.write_vtk(m, path, cell_data={"quality": q.ratios})
        written["vtk"] = path
    if "csv" in outputs:
        path = ctx.path(outputs["csv"])
        with open(path, "w", encoding="utf-8") as f:
            f.write("element,quality\n")
            for e, ratio in enumerate(q.ratios):
                f.write(f"{e},{_fmt(ratio)}\n")
        written["csv"] = path
    print(f"nodes {m.n_nodes}, elements {m.n_elements}")
    print(f"quality min {_fmt(q.min)} max {_fmt(q.max)} "
          f"mean {_fmt(q.mean)} worst element {q.worst_element}")
    for path in written.values():
        print(f"wrote {path}")
    return {"nodes": int(m.n_nodes), "elements": int(m.n_elements),
            "quality": {"min": float(q.min), "max": float(q.max),
                        "mean": float(q.mean),
                        "worst_element": int(q.worst_element)},
            "outputs": written}


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
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jsonschema": importlib.metadata.version("jsonschema"),
            "tripletfem": __version__}


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


def _exit_code(err):
    """The one exit-code rule: a declaration, a tag or a file exits 2;
    any other library error is numerical and exits 3."""
    return 2 if isinstance(err, (ScenarioError, UnknownTag, OSError)) else 3


def _print_error(err):
    loc = ""
    if isinstance(err, ScenarioError):
        if err.line is not None:
            loc = f" (line {err.line})"
        elif err.field is not None:
            loc = f" (field {err.field})"
    print(f"error: {err}{loc}", file=sys.stderr)


def run_scenario(cmd, args):
    """One scenario run: parse, validate, execute, report."""
    scenario_path, overrides, bad_args = _parse_scenario_args(cmd, args)
    if scenario_path is None:
        _print_error(bad_args)
        return _exit_code(bad_args)
    report_path = scenario_path + ".report.json"
    started = time.time()
    scn = None
    try:
        if bad_args is not None:
            raise bad_args
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
            report_path = ctx.path(declared)
        payload = _RUNNERS[cmd](scn, ctx)
    except (TripletFemError, OSError) as err:
        code = _exit_code(err)
        _print_error(err)
        _write_report(report_path, {
            "status": "error", "exit_code": code, "error": _error_info(err),
            "scenario": scenario_path})
        return code
    payload.update({
        "status": "ok", "mode": cmd, "name": scn["name"],
        "scenario": scenario_path, "wall_time": time.time() - started})
    _write_report(report_path, payload)
    return 0


# --------------------------------------------------- mesh utilities


def _mesh_gen(args):
    parser = argparse.ArgumentParser(prog="tripletfem mesh gen")
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
    if "bounds" in gen:
        ndim = len(gen["divisions"])
        if len(gen["bounds"]) != 2 * ndim:
            raise ScenarioError(f"--bounds needs {2 * ndim} numbers "
                                "(lo per axis, then hi per axis)",
                                field="--bounds")
        gen["bounds"] = [gen["bounds"][:ndim], gen["bounds"][ndim:]]
    _write_mesh_by_extension(build_mesh({"generator": gen}, RunContext("")),
                             out)


def _write_mesh_by_extension(m, out):
    if out.endswith(".msh"):
        mesh_mod.write_msh(m, out)
    elif out.endswith(".vtk"):
        mesh_mod.write_vtk(m, out)
    else:
        raise ScenarioError(f"unsupported output extension on {out!r} "
                            "(use .msh or .vtk)")
    print(f"wrote {out}: {m.n_nodes} nodes, {m.n_elements} elements")


def _mesh_convert(args):
    parser = argparse.ArgumentParser(prog="tripletfem mesh convert")
    parser.add_argument("input")
    parser.add_argument("output")
    ns = parser.parse_args(args)
    _write_mesh_by_extension(build_mesh({"file": ns.input}, RunContext("")),
                             ns.output)


def _mesh_quality(args):
    parser = argparse.ArgumentParser(prog="tripletfem mesh quality")
    parser.add_argument("input")
    ns = parser.parse_args(args)
    m = build_mesh({"file": ns.input}, RunContext(""))
    q = mesh_mod.quality(m)
    print(f"elements {m.n_elements}")
    print(f"min {_fmt(q.min)}")
    print(f"max {_fmt(q.max)}")
    print(f"mean {_fmt(q.mean)}")
    print(f"worst_element {q.worst_element}")


def _mesh_command(args):
    tools = {"gen": _mesh_gen, "convert": _mesh_convert,
             "quality": _mesh_quality}
    if not args or args[0] not in tools:
        print(USAGE, file=sys.stderr)
        return 64
    try:
        tools[args[0]](args[1:])
    except SystemExit as err:  # argparse's own exits: 0 for -h, 2 for bad args
        return int(err.code or 0)
    except (TripletFemError, OSError) as err:
        _print_error(err)
        return _exit_code(err)
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
    if cmd in _SCENARIO_COMMANDS:
        return run_scenario(cmd, rest)
    if cmd == "mesh":
        return _mesh_command(rest)
    print(f"error: unknown subcommand {cmd!r}", file=sys.stderr)
    print(USAGE, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main())
