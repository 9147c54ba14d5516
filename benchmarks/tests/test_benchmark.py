"""Tests of the benchmark itself: span arithmetic, patching, checks."""

import json
import math
import os

import pytest

import run
import spans
import workloads
from worker import run_ops

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def span(layer, start, end, parent, op=0):
    return spans.Span(layer, layer, start, end, parent, op)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]; second op d
    tree = [span("cli.self", 0.0, 10.0, -1),
            span("fem.post", 1.0, 5.0, 0),
            span("solver.cg", 2.0, 3.0, 1),
            span("fem.post", 6.0, 9.0, 0),
            span("solver.cg", 0.0, 2.0, -1, op=1)]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 1.0, 3.0, 2.0])
    assert spans.layer_self_times(tree) == {
        0: pytest.approx({"cli.self": 3.0, "fem.post": 6.0, "solver.cg": 1.0}),
        1: pytest.approx({"solver.cg": 2.0})}
    med = spans.per_op_medians(tree, {0: {"solver.cg_iters": 7}},
                               {0: 10.0, 1: 4.0})
    assert med["solver.cg_s"] == pytest.approx(1.5)
    assert med["fem.post_s"] == pytest.approx(3.0)   # 0 on op 1
    assert med["mesh.map_s"] == 0.0
    assert med["solver.cg_iters"] == pytest.approx(3.5)
    assert med["trace.covered_frac"] == pytest.approx(0.75)  # 1 and 0.5


def test_wrappers_are_installed_where_looked_up_and_restored(tmp_path):
    from tripletfem import applications as app, cli, fem, mesh, solver
    from tripletfem import geometry as geo, triplet as tp
    names = [(app, "generate_structured"), (app, "map_mesh"),
             (app, "write_vtk"), (mesh, "generate_structured"),
             (solver, "solve"), (fem._solver, "solve"), (fem, "assemble"),
             (cli, "main")]
    before = {(m, n): getattr(m, n) for m, n in names}
    init = mesh.Mesh.__init__
    apply = solver.Preconditioner.__dict__["apply"]

    tracer = spans.Tracer()
    seen = {}

    def op():
        seen["wrapped"] = [getattr(m, n) is not fn
                           for (m, n), fn in before.items()]
        seen["init"] = mesh.Mesh.__init__ is not init
        # a small open-boundary solve reaches every layer the CLI uses
        ob = app.OpenBoundarySpec(interior=geo.Annulus((0, 0), 0, 1),
                                  a=1.0, b=2.0)
        unit = tp.Triplet(chart=geo.Identity(2),
                          metric=geo.MetricField.euclidean(2),
                          material=tp.MaterialField.uniform(1.0, 2))
        spec = app.open_boundary_bvp(ob, unit, 1.0, divisions=(12, 4))
        sol = fem.solve_bvp(spec, solver.SolverConfig(preconditioner="ic0"))
        mesh.write_vtk(spec.domain, str(tmp_path / "u.vtk"),
                       point_data={"u": sol.u})
        return sol

    records = run_ops(op, lambda r: [], 0.0, tracer)
    assert [r["traced"] for r in records] == [False, True]
    assert seen["init"] and all(seen["wrapped"])
    for (mod, name), fn in before.items():
        assert getattr(mod, name) is fn
    assert mesh.Mesh.__init__ is init
    assert solver.Preconditioner.__dict__["apply"] is apply

    layers = {s.layer for s in tracer.spans}
    assert {"applications.self", "mesh.generate", "mesh.construct",
            "triplet.coeff", "fem.assemble", "fem.post", "solver.cg",
            "solver.precond_build", "solver.precond_apply",
            "mesh.export"} <= layers
    counts = tracer.counts[1]
    assert counts["mesh.construct_calls"] == 2
    assert counts["solver.precond_applies"] == counts["solver.cg_iters"] > 0
    assert counts["mesh.export_bytes"] == os.path.getsize(tmp_path / "u.vtk")
    # applications calls generate_structured through its own imported name
    gen = next(s for s in tracer.spans if s.layer == "mesh.generate")
    assert tracer.spans[gen.parent].layer == "applications.self"


def test_a_corrupted_result_is_a_failed_op():
    wl = workloads.Equivalence3D
    params = wl.params(0)
    good = {"rel_frobenius": 1e-15, "energy": 1.0}
    ops = []
    for result in (good, dict(good, energy=1.0 + 1e-6),
                   dict(good, rel_frobenius=1e-9)):
        ops += run_ops(lambda: result, lambda r: wl.check(params, r), 0.0)
    assert [bool(r["problems"]) for r in ops] == [False, True, True]

    def boom():
        raise RuntimeError("solver blew up")
    raised = run_ops(boom, lambda r: [], 0.0)
    assert raised[0]["problems"] == ["RuntimeError: solver blew up"]
    assert run.tally(ops, raised[0]) == (4, 3)


def test_motion_check_uses_the_plate_law():
    wl = workloads.Motion2D
    params = wl.params(3)
    exact = [1.0 / d for d in params["separations"]]
    assert wl.check(params, {"energies": exact}) == []
    bent = list(exact)
    bent[-1] *= 1.0 + 1e-6
    assert len(wl.check(params, {"energies": bent})) == 1
    assert wl.check(params, {"energies": exact[:-1]})


def test_cli_check_reads_the_written_outputs(tmp_path):
    wl = workloads.CliOpenBoundary
    n_theta, n_r = wl.divisions

    def write(energy, points, status="ok"):
        with open(tmp_path / "ob.report.json", "w") as f:
            json.dump({"status": status, "energy": energy}, f)
        with open(tmp_path / "ob.vtk", "w") as f:
            f.write(f"# vtk\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
                    f"POINTS {points} double\n")
        return {"exit_code": 0, "workdir": str(tmp_path)}

    nodes = n_theta * (n_r + 1)
    assert wl.check({}, write(math.pi * (1 + 1e-3), nodes)) == []
    assert not (tmp_path / "ob.vtk").exists()  # cleared for the next op
    assert wl.check({}, write(math.pi * (1 + 3e-3), nodes))
    assert wl.check({}, write(math.pi, nodes - 1))
    assert wl.check({}, write(math.pi, nodes, status="error"))
    assert wl.check({}, {"exit_code": 3, "workdir": str(tmp_path)})


def test_seed_draws_the_inputs():
    for wl in (workloads.Equivalence3D, workloads.Motion2D):
        assert wl.params(5) == wl.params(5)
        assert wl.params(5) != wl.params(6)
    factors = workloads.Equivalence3D.params(7)["factors"]
    assert all(1e-2 <= f <= 1e3 for f in factors)
    seps = workloads.Motion2D.params(7)["separations"]
    assert len(seps) == 12 and seps[0] == 1.0 and 1.9 <= seps[-1] <= 2.1


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [l + "_s" for l in spans.LAYERS] + list(spans.COUNTERS) + [
        "cli.import_s", "trace.overhead_frac", "trace.covered_frac"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "run_rel", "peak_rss_mb"]
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
