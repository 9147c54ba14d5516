"""The benchmark's workloads: inputs drawn from a seed, one op, one check.

params(seed) draws everything random; the package only ever sees the
generated inputs. setup(params, workdir) builds what a workload makes
once per process. op(state) is the timed unit of work and returns the
figures check(params, result) compares against references that do not
come from the package: u = x on the unit box, the parallel-plate law
W = 1/d, and the exterior-dipole energy pi. check returns a list of
problems, empty when the op is correct.

The package is imported inside setup and op, never at module level, so
a worker's set-up time includes the import and run.py never loads it.
"""

import json
import math
import os

import numpy as np


class Equivalence3D:
    """Mesh, chart and assemble the same 3-D problem under two triplets."""

    name = "equivalence-3d"
    divisions = (24, 24, 24)
    warm_up = True

    @staticmethod
    def params(seed):
        rng = np.random.default_rng(seed)
        axis = rng.standard_normal(3)
        return {"angle": float(rng.uniform(0.0, 2.0 * math.pi)),
                "axis": (axis / np.linalg.norm(axis)).tolist(),
                "factors": (10.0 ** rng.uniform(-2.0, 3.0, size=3)).tolist()}

    @staticmethod
    def setup(params, workdir):
        from tripletfem import geometry as geo, solver, triplet as tp
        chart = geo.Composite([geo.Rotation(params["angle"], params["axis"]),
                               geo.AxisScaling(params["factors"])])
        eps = tp.transform_material_euclidean(np.eye(3),
                                              chart.jacobian(np.zeros(3)))
        identity = tp.Triplet(chart=geo.Identity(3),
                              metric=geo.MetricField.euclidean(3),
                              material=tp.MaterialField.uniform(1.0, 3))
        charted = tp.Triplet(chart=chart,
                             metric=geo.MetricField.euclidean(3),
                             material=tp.MaterialField.uniform(eps, 3))
        return {"chart": chart, "identity": identity, "charted": charted,
                "config": solver.SolverConfig(tol=1e-10)}

    @classmethod
    def op(cls, state):
        from tripletfem import fem, mesh
        bc = (("left", 0.0), ("right", 1.0))
        m = mesh.generate_structured("box", cls.divisions)
        mapped = mesh.map_mesh(m, state["chart"])
        plain = fem.assemble(fem.BVPSpec(m, state["identity"], bc))
        spec = fem.BVPSpec(mapped, state["charted"], bc)
        charted = fem.assemble(spec)
        comp = fem.compare_matrices(plain.full_matrix, charted.full_matrix)
        sol = fem.solve_bvp(spec, state["config"], system=charted)
        return {"rel_frobenius": comp.rel_frobenius, "energy": sol.energy}

    @staticmethod
    def check(params, result):
        problems = []
        if not result["rel_frobenius"] <= 1e-12:
            problems.append(f"rel_frobenius {result['rel_frobenius']:.3e} "
                            "> 1e-12")
        # u = x is exact in P1 and stores energy 1 on the unit box
        if not abs(result["energy"] - 1.0) <= 1e-9:
            problems.append(f"energy {result['energy']!r} is not 1 "
                            "within 1e-9")
        return problems


class Motion2D:
    """A 12-step plate sweep absorbed into the metric of the gap band."""

    name = "motion-2d"
    divisions = (128, 128)
    steps = 12
    warm_up = True

    @classmethod
    def params(cls, seed):
        rng = np.random.default_rng(seed)
        end = float(rng.uniform(1.9, 2.1))
        return {"separations": np.linspace(1.0, end, cls.steps).tolist()}

    @classmethod
    def setup(cls, params, workdir):
        from tripletfem import applications as app, fem
        from tripletfem import geometry as geo, mesh, triplet as tp
        m = mesh.generate_structured("box", cls.divisions,
                                     region_bands=[("gap", 1, 0.5, 1.0)])
        base = tp.Triplet(chart=geo.Identity(2),
                          metric=geo.MetricField.euclidean(2),
                          material=tp.MaterialField.uniform(1.0, 2))
        spec = fem.BVPSpec(m, base, (("bottom", 0.0), ("top", 1.0)))
        # stretch the band y in [0.5, 1] so the top plate sits at y = d
        steps = [geo.AxisPiecewiseLinear(1, (0.0, 0.5, 1.0), (0.0, 0.5, d))
                 for d in params["separations"]]
        return {"sweep": app.MotionSweep(base=spec, moving_region="gap",
                                         steps=steps, mode="metric-change")}

    @staticmethod
    def op(state):
        from tripletfem import applications as app
        steps = app.motion_sweep(state["sweep"])
        return {"energies": [s.energy for s in steps]}

    @staticmethod
    def check(params, result):
        seps = params["separations"]
        energies = result["energies"]
        if len(energies) != len(seps):
            return [f"{len(energies)} steps solved, {len(seps)} expected"]
        # parallel plates with unit permittivity: W = 1/d
        return [f"step {k}: |W d - 1| = {abs(w * d - 1.0):.3e} > 1e-8"
                for k, (w, d) in enumerate(zip(energies, seps))
                if not abs(w * d - 1.0) <= 1e-8]


class CliOpenBoundary:
    """One open-boundary scenario through the command line front end."""

    name = "cli-open-boundary"
    divisions = (256, 96)
    warm_up = False  # users pay the first-run costs on every CLI call

    @staticmethod
    def params(seed):
        return {}

    @classmethod
    def scenario(cls):
        return {
            "name": "bench-open-boundary",
            "dimension": 2,
            "mode": "open-boundary",
            "open_boundary": {
                "a": 1.0, "b": 2.0,
                "interior": {"kind": "disc", "radius": 1.0},
                "divisions": list(cls.divisions),
                "grading": 2.0,
                "inner_value": {"harmonic": 1},
            },
            "solver": {"preconditioner": "ic0", "tol": 1e-10},
            "outputs": {"vtk": "ob.vtk", "csv": "ob.csv",
                        "report": "ob.report.json"},
        }

    @classmethod
    def prepare(cls, workdir):
        """Write the scenario; needs no import of the package."""
        path = os.path.join(workdir, "open_boundary.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cls.scenario(), f)
        return {"scenario": path, "workdir": workdir}

    @classmethod
    def setup(cls, params, workdir):
        import tripletfem.cli  # noqa: F401  (set-up is this import)
        return cls.prepare(workdir)

    @staticmethod
    def argv(state):
        return ["open-boundary", state["scenario"]]

    @classmethod
    def op(cls, state):
        """In-process run, as the traced run drives it."""
        from tripletfem import cli
        return {"exit_code": cli.main(cls.argv(state)),
                "workdir": state["workdir"]}

    @classmethod
    def read_outputs(cls, workdir):
        """Report and declared VTK point count of the last run, after
        which the outputs are removed so the next run starts clean."""
        report, points = None, None
        paths = {key: os.path.join(workdir, name)
                 for key, name in cls.scenario()["outputs"].items()}
        if os.path.isfile(paths["report"]):
            with open(paths["report"], encoding="utf-8") as f:
                report = json.load(f)
        if os.path.isfile(paths["vtk"]):
            with open(paths["vtk"], encoding="utf-8") as f:
                for line in f:
                    if line.startswith("POINTS "):
                        points = int(line.split()[1])
                        break
        for path in paths.values():
            if os.path.exists(path):
                os.remove(path)
        return report, points

    @classmethod
    def check(cls, params, result):
        report, points = cls.read_outputs(result["workdir"])
        if result["exit_code"] != 0:
            return [f"exit code {result['exit_code']}"]
        if report is None or report.get("status") != "ok":
            return [f"report status is not ok: {report!r}"]
        problems = []
        rel = abs(report["energy"] - math.pi) / math.pi
        # the exterior dipole cos(theta)/r stores energy pi
        if not rel <= 2e-3:
            problems.append(f"energy {report['energy']!r} is {rel:.2e} "
                            "from pi, more than 2e-3")
        n_theta, n_r = cls.divisions
        if points != n_theta * (n_r + 1):
            problems.append(f"vtk declares {points} points, "
                            f"the annulus has {n_theta * (n_r + 1)} nodes")
        return problems


WORKLOADS = {w.name: w for w in (Equivalence3D, Motion2D, CliOpenBoundary)}
