"""Scenario execution, exit codes, and the quick mesh utilities."""

import json
import os
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tripletfem import cli, fem, mesh


def write_scenario(tmp_path, scn, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scn, indent=1))
    return str(path)


def report_of(scenario_path):
    return json.loads(Path(scenario_path + ".report.json").read_text())


def square_solve_scenario(outputs=None):
    """Unit square with u = x as the exact solution."""
    return {
        "name": "square",
        "dimension": 2,
        "mode": "solve",
        "mesh": {"generator": {"shape": "box", "divisions": [8, 8]}},
        "boundary": [{"tag": "left", "value": 0.0},
                     {"tag": "right", "value": 1.0}],
        "outputs": outputs or {},
    }


def motion_scenario(outputs=None):
    stretch = {"kind": "axis-piecewise-linear", "axis": 1,
               "breaks": [0.0, 0.5, 1.0]}
    return {
        "name": "sweep",
        "dimension": 2,
        "mode": "motion",
        "mesh": {"generator": {"shape": "box", "divisions": [8, 8],
                               "region_bands": [["gap", 1, 0.5, 1.0]]}},
        "boundary": [{"tag": "bottom", "value": 0.0},
                     {"tag": "top", "value": 1.0}],
        "motion": {
            "moving_region": "gap",
            "steps": [{"kind": "identity"},
                      dict(stretch, images=[0.0, 0.5, 1.25]),
                      dict(stretch, images=[0.0, 0.5, 1.5])],
        },
        "outputs": outputs or {},
    }


# ------------------------------------------------------ command surface


def test_unknown_subcommand_prints_usage_and_exits_64(capsys):
    assert cli.main(["frobnicate"]) == 64
    err = capsys.readouterr().err
    assert "usage" in err
    assert "frobnicate" in err


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 64
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_module_is_runnable_as_script(run_python):
    out = run_python("-m", "tripletfem.cli", "--help")
    assert out.returncode == 0
    assert "usage" in out.stdout


def test_only_ic0_and_atlas_gluing_load_their_scipy_modules(run_python):
    # SuperLU (with scipy.linalg) serves IC(0) alone, csgraph and cKDTree
    # atlas gluing alone; an import, the CLI's included, and a Jacobi
    # solve should not pay for them
    code = """
    import json, sys
    import tripletfem, tripletfem.cli
    from tripletfem import atlas, fem, geometry as geo, mesh, solver
    from tripletfem import triplet as tp

    def loaded():
        return [name for name in ("scipy.linalg", "scipy.sparse.linalg",
                                  "scipy.sparse.csgraph", "scipy.spatial")
                if name in sys.modules]

    stages = {"import": loaded()}
    t = tp.Triplet(chart=geo.Identity(2),
                   metric=geo.MetricField.euclidean(2),
                   material=tp.MaterialField.uniform(1.0, 2))
    sol = fem.solve_bvp(
        fem.BVPSpec(mesh.generate_structured("box", (8, 8)), t,
                    (("left", 0.0), ("right", 1.0))),
        solver.SolverConfig(preconditioner="jacobi"))
    stages["jacobi"] = loaded()
    solver.build_preconditioner(sol.system.matrix, "ic0")
    stages["ic0"] = loaded()
    right = mesh.generate_structured("box", (2, 2), bounds=([1, 0], [2, 1]))
    atlas.build_global_index(atlas.Atlas(
        [("A", geo.Identity(2), mesh.generate_structured("box", (2, 2))),
         ("B", geo.Identity(2), right)],
        [(("A", "B"), ("right", "left"))]))
    stages["atlas"] = loaded()
    print(json.dumps(stages))
    """
    out = run_python("-c", textwrap.dedent(code))
    assert out.returncode == 0, out.stderr
    stages = json.loads(out.stdout)
    assert stages["import"] == stages["jacobi"] == []
    assert "scipy.sparse.linalg" in stages["ic0"]
    assert "scipy.sparse.csgraph" not in stages["ic0"]
    assert {"scipy.sparse.csgraph", "scipy.spatial"} <= set(stages["atlas"])


# ------------------------------------------------------- mesh utilities


def test_mesh_gen_box_8x8_writes_128_triangles(tmp_path, capsys):
    out = tmp_path / "box.msh"
    rc = cli.main(["mesh", "gen", "--shape", "box", "--div", "8", "8",
                   "--out", str(out)])
    assert rc == 0
    assert "128 elements" in capsys.readouterr().out
    m = mesh.read_msh(str(out))
    assert m.n_elements == 128
    assert m.n_nodes == 81


def test_mesh_gen_rejects_unknown_extension(tmp_path, capsys):
    rc = cli.main(["mesh", "gen", "--shape", "box", "--div", "2", "2",
                   "--out", str(tmp_path / "box.xyz")])
    assert rc == 2
    assert "extension" in capsys.readouterr().err


def test_mesh_quality_echoes_report_fields(tmp_path, capsys):
    out = tmp_path / "box.msh"
    cli.main(["mesh", "gen", "--shape", "box", "--div", "4", "4",
              "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["mesh", "quality", str(out)]) == 0
    text = capsys.readouterr().out
    for field in ("min", "max", "mean", "worst_element"):
        assert field in text


def test_mesh_convert_to_vtk(tmp_path):
    src = tmp_path / "box.msh"
    dst = tmp_path / "box.vtk"
    cli.main(["mesh", "gen", "--shape", "box", "--div", "3", "3",
              "--out", str(src)])
    assert cli.main(["mesh", "convert", str(src), str(dst)]) == 0
    assert dst.read_text().startswith("# vtk DataFile")


def test_mesh_convert_rejects_unknown_extension(tmp_path, capsys):
    src = tmp_path / "box.msh"
    mesh.write_msh(mesh.generate_structured("box", (2, 2)), src)
    assert cli.main(["mesh", "convert", str(src),
                     str(tmp_path / "box.xyz")]) == 2
    assert "extension" in capsys.readouterr().err
    assert not (tmp_path / "box.xyz").exists()


def test_mesh_convert_to_vtk_writes_the_cell_quality(tmp_path):
    """convert runs as a mesh-tools scenario, whose vtk output carries
    the per-element quality (the old convert wrote the bare mesh)."""
    src, dst, ref = (tmp_path / name for name in ("a.msh", "a.vtk", "r.vtk"))
    m = mesh.generate_structured("annulus", (12, 4), radii=(1.0, 2.0))
    mesh.write_msh(m, src)
    assert cli.main(["mesh", "convert", str(src), str(dst)]) == 0
    read = mesh.read_msh(str(src))
    mesh.write_vtk(read, ref, cell_data={"quality": mesh.quality(read).ratios})
    assert dst.read_bytes() == ref.read_bytes()
    assert "quality" in dst.read_text()


def test_mesh_quality_prints_what_a_mesh_tools_scenario_prints(tmp_path,
                                                               capsys):
    """One printout: the utility and the scenario on one file print the
    same bytes (the utility once printed its own five lines)."""
    mesh.write_msh(mesh.generate_structured("annulus", (12, 4),
                                            radii=(1.0, 2.0)),
                   tmp_path / "f.msh")
    assert cli.main(["mesh", "quality", str(tmp_path / "f.msh")]) == 0
    utility = capsys.readouterr().out
    path = write_scenario(tmp_path, {"name": "q", "dimension": 2,
                                     "mode": "mesh-tools",
                                     "mesh": {"file": "f.msh"}})
    assert cli.main(["mesh-tools", path]) == 0
    assert capsys.readouterr().out == utility
    assert "worst_element" in utility


def test_mesh_unknown_tool_exits_64(capsys):
    assert cli.main(["mesh", "frobnicate"]) == 64
    assert "usage" in capsys.readouterr().err


def test_mesh_gen_annulus_with_band_flags(tmp_path):
    out = tmp_path / "ring.msh"
    rc = cli.main(["mesh", "gen", "--shape", "annulus", "--div", "12", "4",
                   "--radii", "1", "2", "--grading", "2",
                   "--out", str(out)])
    assert rc == 0
    m = mesh.read_msh(str(out))
    assert m.n_elements == 12 * 4 * 2


# ----------------------------------------------------------- validation


def test_missing_scenario_file(tmp_path, capsys):
    rc = cli.main(["solve", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n "name": "x",\n "oops\n}')
    rc = cli.main(["solve", str(path)])
    assert rc == 2
    assert "line" in capsys.readouterr().err
    rep = json.loads((tmp_path / "broken.json.report.json").read_text())
    assert rep["exit_code"] == 2
    assert rep["error"]["line"] >= 2


def test_schema_violation_names_the_field(tmp_path, capsys):
    scn = square_solve_scenario()
    scn["mode"] = "fly"
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 2
    assert "mode" in capsys.readouterr().err
    assert report_of(path)["error"]["field"] == "mode"


def test_missing_boundary_tag_names_the_tag(tmp_path, capsys):
    scn = square_solve_scenario()
    scn["boundary"] = [{"tag": "north", "value": 1.0}]
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 2
    assert "north" in capsys.readouterr().err
    rep = report_of(path)
    assert rep["exit_code"] == 2
    assert "north" in rep["error"]["message"]


def test_subcommand_must_match_scenario_mode(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["motion", path]) == 2
    assert report_of(path)["error"]["field"] == "mode"


def test_missing_mesh_file_is_validation(tmp_path):
    scn = square_solve_scenario()
    scn["mesh"] = {"file": "ghost.msh"}
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 2
    assert report_of(path)["error"]["field"] == "mesh.file"


@pytest.mark.parametrize("flag, value, field", [
    ("--tol", "fast", "solver.tol"),
    ("--quadrature", "bogus", "quadrature"),
], ids=["tol", "quadrature"])
def test_bad_flag_value_is_validation(tmp_path, capsys, flag, value, field):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path, flag, value]) == 2
    assert f"(field {field})" in capsys.readouterr().err
    rep = report_of(path)
    assert rep["exit_code"] == 2
    assert rep["error"]["field"] == field


@pytest.mark.parametrize("extra, field", [
    (["--tol"], "--tol"),
    (["--seed", "3"], "--seed"),
    (["stray"], None),
], ids=["flag-without-value", "unknown-flag", "stray-argument"])
def test_bad_argument_after_the_scenario_writes_a_report(tmp_path, extra,
                                                         field):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path] + extra) == 2
    rep = report_of(path)
    assert rep["status"] == "error"
    assert rep["exit_code"] == 2
    assert rep["error"]["type"] == "ScenarioError"
    assert rep["error"].get("field") == field


def test_bad_argument_without_a_scenario_writes_no_report(tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve", "--tol"]) == 2
    assert cli.main(["solve"]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("break_it", [False, True], ids=["ok", "error"])
def test_every_report_carries_the_versions(tmp_path, break_it):
    import importlib.metadata
    import platform

    import scipy

    import tripletfem
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    path = write_scenario(tmp_path, square_solve_scenario())
    extra = ["quadrature=bogus"] if break_it else []
    assert cli.main(["solve", path] + extra) == (2 if break_it else 0)
    assert report_of(path)["versions"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "tripletfem": tripletfem.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def test_flags_win_over_key_value_overrides(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path, "--tol", "1e-8", "solver.tol=fast",
                     "--quadrature", "interior", "quadrature=bogus"]) == 0
    assert report_of(path)["status"] == "ok"


def test_override_is_revalidated(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path, "quadrature=bogus"]) == 2
    assert report_of(path)["error"]["field"] == "quadrature"


def test_non_finite_override_names_the_field(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path, "solver.tol=NaN"]) == 2
    rep = report_of(path)
    assert rep["exit_code"] == 2
    assert rep["error"]["field"] == "solver.tol"


def test_non_finite_number_in_scenario_file_is_validation(tmp_path):
    scn = square_solve_scenario()
    scn["solver"] = {"tol": float("nan")}
    path = write_scenario(tmp_path, scn)  # json.dumps writes a bare NaN
    assert "NaN" in Path(path).read_text()
    assert cli.main(["solve", path]) == 2
    assert report_of(path)["exit_code"] == 2


def test_unwritable_output_writes_report(tmp_path):
    scn = square_solve_scenario(outputs={"vtk": "missing/u.vtk"})
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 2
    rep = report_of(path)
    assert rep["status"] == "error"
    assert rep["exit_code"] == 2


def write_msh_with_interior_facet(path):
    """A 2x2 box whose file also declares the interior edge between
    nodes 2 and 5 (1-based: bottom middle and centre) as a boundary."""
    mesh.write_msh(mesh.generate_structured("box", (2, 2)), path)
    lines = Path(path).read_text().splitlines()
    at = lines.index("$Elements")
    lines[at + 1] = str(int(lines[at + 1]) + 1)
    lines.insert(at + 2, "99 1 2 1 1 2 5")
    Path(path).write_text("\n".join(lines) + "\n")


def test_interior_facet_in_mesh_file_is_validation(tmp_path, capsys):
    write_msh_with_interior_facet(tmp_path / "bad.msh")
    scn = square_solve_scenario()
    scn["mesh"] = {"file": "bad.msh"}
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 2
    rep = report_of(path)
    assert rep["error"]["field"] == "mesh.file"
    assert "exactly one" in rep["error"]["message"]
    bad = str(tmp_path / "bad.msh")
    assert cli.main(["mesh", "quality", bad]) == 2
    assert cli.main(["mesh", "convert", bad, str(tmp_path / "b.vtk")]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_repeated_node_id_in_mesh_file_is_validation(tmp_path, capsys):
    """A mesh file whose $Nodes lists node 2 twice, the later line giving
    it other coordinates, is refused with both lines named."""
    bad = tmp_path / "bad.msh"
    mesh.write_msh(mesh.generate_structured("box", (2, 2)), bad)
    lines = bad.read_text().splitlines()
    at = lines.index("$Nodes")
    lines[at + 1] = str(int(lines[at + 1]) + 1)
    lines.insert(at + 4, "2 5 5 0")  # right after node 2's own line
    bad.write_text("\n".join(lines) + "\n")
    message = f"line {at + 5}: node id 2 repeats the node of line {at + 4}"
    scn = square_solve_scenario()
    scn["mesh"] = {"file": "bad.msh"}
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 2
    rep = report_of(path)
    assert rep["exit_code"] == 2 and message in rep["error"]["message"]
    assert cli.main(["mesh", "quality", str(bad)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# -------------------------------------------------------------- solve


def read_vtk_potential(path):
    lines = Path(path).read_text().splitlines()
    n = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
    start = lines.index("LOOKUP_TABLE default") + 1
    values = [float(v) for v in lines[start:start + n]]
    pts_at = next(i for i, l in enumerate(lines) if l.startswith("POINTS"))
    pts = [tuple(map(float, l.split())) for l in
           lines[pts_at + 1:pts_at + 1 + n]]
    return np.array(pts), np.array(values)


def test_solve_writes_vtk_with_nodal_potential(tmp_path):
    scn = square_solve_scenario(outputs={"vtk": "u.vtk", "csv": "u.csv",
                                         "matrix_market": "A.mtx"})
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 0
    pts, u = read_vtk_potential(tmp_path / "u.vtk")
    assert np.max(np.abs(u - pts[:, 0])) <= 1e-10  # u = x exactly
    assert (tmp_path / "u.csv").read_text().startswith("x,y,potential")
    assert (tmp_path / "A.mtx").read_text().startswith("%%MatrixMarket")
    rep = report_of(path)
    assert rep["status"] == "ok"
    assert rep["energy"] == pytest.approx(1.0, rel=1e-12)


def test_a_solve_with_every_dof_fixed_reports_its_solve(tmp_path):
    """A 1x1 box with all four sides Dirichlet has no free dof; its
    report names the preconditioner built for the 0 x 0 system (once
    null, as the solution carried no solve result)."""
    scn = {"name": "fixed", "dimension": 2, "mode": "solve",
           "mesh": {"generator": {"shape": "box", "divisions": [1, 1]}},
           "boundary": [{"tag": tag, "value": float(i)} for i, tag in
                        enumerate(("left", "right", "bottom", "top"))]}
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 0
    rep = report_of(path)
    assert rep["dofs"] == 4 and rep["iterations"] == 0
    assert rep["preconditioner"] == {"requested": "jacobi",
                                     "built": "jacobi", "fallback": False,
                                     "note": ""}
    assert rep["residual_history"] == [0.0] and rep["residual"] == 0.0


def test_solver_overrides_reach_the_run(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    rc = cli.main(["solve", path, "solver.max_iter=1",
                   "solver.preconditioner=none"])
    assert rc == 3
    rep = report_of(path)
    assert rep["exit_code"] == 3
    assert rep["error"]["type"] == "MaxIterExceeded"


def test_max_iter_failure_report_carries_solver_state(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path, "solver.max_iter=1"]) == 3
    err = report_of(path)["error"]
    assert err["type"] == "MaxIterExceeded"
    assert err["iterations"] == 1
    assert np.isfinite(err["residual"]) and err["residual"] > 0


def test_report_names_the_preconditioner_built(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path, "solver.preconditioner=ic0"]) == 0
    assert report_of(path)["preconditioner"] == {
        "requested": "ic0", "built": "ic0", "fallback": False, "note": ""}
    assert cli.main(["solve", path]) == 0
    assert report_of(path)["preconditioner"]["built"] == "jacobi"


def test_report_carries_the_residual_history(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path]) == 0
    rep = report_of(path)
    history = rep["residual_history"]
    # the start, one recurrence residual per iteration, the true residual
    assert len(history) == rep["iterations"] + 2
    assert history[-1] == rep["residual"]
    assert history[0] > history[-1]


def test_report_shows_an_ic0_fallback(tmp_path, monkeypatch):
    from tripletfem import solver
    from tripletfem.errors import BreakdownIC

    def breaks_down(A):
        raise BreakdownIC("incomplete Cholesky pivot -1.000e+00 at row 0")

    monkeypatch.setattr(solver, "ic0_factor", breaks_down)
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path, "solver.preconditioner=ic0"]) == 0
    rep = report_of(path)
    assert rep["preconditioner"] == {
        "requested": "ic0", "built": "jacobi", "fallback": True,
        "note": "incomplete Cholesky pivot -1.000e+00 at row 0"}
    assert rep["energy"] == pytest.approx(1.0, rel=1e-12)


def test_by_region_metric_with_default_solves(tmp_path):
    scn = square_solve_scenario()
    scn["mesh"]["generator"]["region_bands"] = [["slab", 1, 0.25, 0.5]]
    scn["triplet"] = {"metric": {"kind": "by-region",
                                 "regions": {"slab": [[1, 0], [0, 1]]},
                                 "default": [[1, 0], [0, 1]]}}
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 0
    assert report_of(path)["energy"] == pytest.approx(1.0, rel=1e-12)


def test_report_path_can_be_declared(tmp_path):
    scn = square_solve_scenario(outputs={"report": "runs/out.json"})
    (tmp_path / "runs").mkdir()
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 0
    rep = json.loads((tmp_path / "runs" / "out.json").read_text())
    assert rep["status"] == "ok"


def test_matrix_market_output_is_byte_identical_across_runs(tmp_path):
    scn = square_solve_scenario(outputs={"matrix_market": "A.mtx"})
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 0
    first = (tmp_path / "A.mtx").read_bytes()
    assert cli.main(["solve", path]) == 0
    assert (tmp_path / "A.mtx").read_bytes() == first


def test_solve_on_mesh_file_roundtrip(tmp_path):
    msh = tmp_path / "grid.msh"
    cli.main(["mesh", "gen", "--shape", "box", "--div", "6", "6",
              "--out", str(msh)])
    scn = square_solve_scenario()
    scn["mesh"] = {"file": "grid.msh"}  # relative to the scenario file
    path = write_scenario(tmp_path, scn)
    assert cli.main(["solve", path]) == 0
    assert report_of(path)["energy"] == pytest.approx(1.0, rel=1e-12)


# -------------------------------------------------- equivalence check


def test_equivalence_check_against_self_is_exactly_zero(tmp_path, capsys):
    scn = {
        "name": "self",
        "dimension": 2,
        "mode": "equivalence-check",
        "mesh": {"generator": {"shape": "box", "divisions": [6, 6]}},
        "boundary": [{"tag": "left", "value": 0.0},
                     {"tag": "right", "value": 1.0}],
        "triplets": [{}, {}],
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["equivalence-check", path]) == 0
    rep = report_of(path)
    assert rep["matrix_rel_frobenius"] == 0.0
    assert rep["material_max_deviation"] == 0.0
    assert "deviation 0" in capsys.readouterr().out


def test_equivalence_check_across_a_distorting_chart(tmp_path):
    # same physics declared in a rotated, anisotropically scaled chart;
    # the pullback material keeps the assembled operators equal
    scn = {
        "name": "distorted",
        "dimension": 2,
        "mode": "equivalence-check",
        "mesh": {"generator": {"shape": "box", "divisions": [6, 6]}},
        "boundary": [{"tag": "left", "value": 0.0},
                     {"tag": "right", "value": 1.0}],
        "triplets": [
            {},
            {"chart": {"kind": "composite", "members": [
                {"kind": "rotation", "angle": 0.7},
                {"kind": "axis-scaling", "factors": [1000.0, 0.01]}]},
             "material": {"default": {"pullback": 1.0}}},
        ],
        "outputs": {"csv": "equiv.csv"},
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["equivalence-check", path]) == 0
    rep = report_of(path)
    assert rep["matrix_rel_frobenius"] <= 1e-12
    assert rep["material_max_deviation"] <= 1e-12
    header = (tmp_path / "equiv.csv").read_text().splitlines()[0]
    assert header == ("matrix_rel_frobenius,matrix_max_entry,"
                      "material_max_deviation")


@pytest.mark.parametrize("metric", [
    {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 1.0]]},
    {"kind": "by-region", "regions": {"band": [[2.0, 0.0], [0.0, 1.0]]},
     "default": [[1.0, 0.5], [0.5, 3.0]]},
    {"kind": "by-region", "regions": {"band": [[2.0, 0.0], [0.0, 1.0]],
                                      "domain": [[1.0, 0.0], [0.0, 1.0]]}},
], ids=["constant", "by-region", "by-region-no-default"])
def test_pullback_material_honours_the_declared_metric(tmp_path, metric):
    # the pullback entry is given in the standard parameterization under a
    # Euclidean metric, so any declared metric leaves the operator alone
    scn = {
        "name": "pullback-metric",
        "dimension": 2,
        "mode": "equivalence-check",
        "mesh": {"generator": {"shape": "box", "divisions": [8, 8],
                               "region_bands": [["band", 0, 0.25, 0.5]]}},
        "boundary": [{"tag": "left", "value": 0.0},
                     {"tag": "right", "value": 1.0}],
        "triplets": [
            {},
            {"chart": {"kind": "rotation", "angle": 0.7},
             "metric": metric,
             "material": {"default": {"pullback": 1.0}}},
        ],
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["equivalence-check", path]) == 0
    rep = report_of(path)
    assert rep["matrix_rel_frobenius"] <= 1e-12
    assert rep["material_max_deviation"] <= 1e-12


# ------------------------------------------------------ open boundary


def test_open_boundary_scenario_solves_exterior_problem(tmp_path):
    scn = {
        "name": "dipole",
        "dimension": 2,
        "mode": "open-boundary",
        "open_boundary": {
            "a": 1.0, "b": 2.0,
            "interior": {"kind": "disc", "radius": 1.0},
            "divisions": [20, 8],
            "inner_value": {"harmonic": 1},
        },
        "outputs": {"vtk": "dipole.vtk"},
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["open-boundary", path]) == 0
    rep = report_of(path)
    assert rep["status"] == "ok"
    assert rep["energy"] > 0.0
    assert rep["shell"] == {"a": 1.0, "b": 2.0, "center": [0.0, 0.0]}
    assert (tmp_path / "dipole.vtk").exists()
    assert solve_timings_are_well_formed(rep["solve"])


def test_open_boundary_results_do_not_depend_on_the_blas_thread_count(
        tmp_path, run_python):
    # CG's inner products went to the BLAS dot product, which OpenBLAS
    # splits across its threads on vectors of more than about 10,000
    # entries: this 256 x 96 annulus (24,832 dofs) took 172 IC(0)
    # iterations at two threads and 173 at one, and its files differed
    scn = {
        "name": "threads", "dimension": 2, "mode": "open-boundary",
        "open_boundary": {"a": 1.0, "b": 2.0,
                          "interior": {"kind": "disc", "radius": 1.0},
                          "divisions": [256, 96], "grading": 2.0,
                          "inner_value": {"harmonic": 1}},
        "solver": {"preconditioner": "ic0", "tol": 1e-10},
        "outputs": {"vtk": "ob.vtk", "csv": "ob.csv"},
    }
    runs = {}
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        path = write_scenario(tmp_path / threads, scn)
        out = run_python("-m", "tripletfem.cli", "open-boundary", path,
                         env={"OPENBLAS_NUM_THREADS": threads})
        assert out.returncode == 0, out.stderr
        rep = report_of(path)
        assert rep["versions"]["OPENBLAS_NUM_THREADS"] == threads
        runs[threads] = (rep, (tmp_path / threads / "ob.vtk").read_bytes(),
                         (tmp_path / threads / "ob.csv").read_bytes())
    (one, vtk_1, csv_1), (two, vtk_2, csv_2) = runs["1"], runs["2"]
    assert one["iterations"] == two["iterations"]
    assert one["residual_history"] == two["residual_history"]
    assert one["energy"] == two["energy"]
    assert vtk_1 == vtk_2
    assert csv_1 == csv_2


@pytest.mark.parametrize("preconditioner", ["ic0", "jacobi"])
def test_unreachable_tolerance_exits_3_with_the_solver_state(
        tmp_path, preconditioner):
    # 1e-300 * ||b|| lies below what double precision reaches: IC(0) once
    # divided by r^T z = 0 (exit 1, a traceback), Jacobi called the SPD
    # system indefinite, and, waiting for r^T z or p^T A p to underflow
    # under einsum's sums, Jacobi ran into MaxIterExceeded
    scn = {
        "name": "tiny-tol", "dimension": 2, "mode": "open-boundary",
        "open_boundary": {"a": 1.0, "b": 2.0,
                          "interior": {"kind": "disc", "radius": 1.0},
                          "divisions": [16, 6],
                          "inner_value": {"harmonic": 1}},
        "solver": {"preconditioner": preconditioner, "tol": 1e-300},
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["open-boundary", path]) == 3
    rep = report_of(path)
    assert rep["status"] == "error" and rep["exit_code"] == 3
    err = rep["error"]
    assert err["type"] == "ToleranceUnreachable"
    assert "double precision" in err["message"]
    assert err["iterations"] > 0
    assert 0 < err["residual"] < 1e-13


@pytest.mark.parametrize("inner_value", [
    1e308, {"harmonic": 1, "amplitude": 1e308},
], ids=["constant", "harmonic"])
def test_a_right_hand_side_of_no_finite_norm_exits_3(tmp_path, inner_value):
    # the squared norm of b overflowed, so the target tol * ||b|| was inf:
    # the run exited 0 with residual inf and energy inf (constant) or NaN
    scn = {
        "name": "huge", "dimension": 2, "mode": "open-boundary",
        "open_boundary": {"a": 1.0, "b": 2.0,
                          "interior": {"kind": "disc", "radius": 1.0},
                          "divisions": [16, 6],
                          "inner_value": inner_value},
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["open-boundary", path]) == 3
    rep = report_of(path)
    assert rep["status"] == "error" and rep["exit_code"] == 3
    assert rep["error"]["type"] == "NonFiniteRightHandSide"
    assert "overflows" in rep["error"]["message"]


def test_open_boundary_interior_must_fit(tmp_path):
    scn = {
        "name": "too-big",
        "dimension": 2,
        "mode": "open-boundary",
        "open_boundary": {
            "a": 1.0, "b": 2.0,
            "interior": {"kind": "box", "lo": [-3, -3], "hi": [3, 3]},
            "inner_value": 1.0,
        },
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["open-boundary", path]) == 2
    assert report_of(path)["error"]["field"] == "open_boundary"


# ------------------------------------------------------------- motion


def test_motion_csv_is_byte_identical_across_runs(tmp_path):
    path = write_scenario(tmp_path, motion_scenario({"csv": "sweep.csv"}))
    assert cli.main(["motion", path]) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    assert cli.main(["motion", path]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "step,energy,iterations,changed_entries,wall_time"


def test_motion_energies_follow_the_gap_law(tmp_path):
    # stretching the gap band to heights 1.25 and 1.5 gives plate
    # separations 1.25 and 1.5, so W = 1/d
    path = write_scenario(tmp_path, motion_scenario())
    assert cli.main(["motion", path]) == 0
    rep = report_of(path)
    energies = [s["energy"] for s in rep["steps"]]
    assert energies == pytest.approx([1.0, 1 / 1.25, 1 / 1.5], rel=1e-10)
    assert rep["steps"][0]["changed_entries"] == 0


def test_motion_report_copies_each_steps_timings(tmp_path):
    path = write_scenario(tmp_path, motion_scenario())
    assert cli.main(["motion", path]) == 0
    for step in report_of(path)["steps"]:
        timings = step["timings"]
        assert set(timings) == {"update", "guess", "solve", "topology",
                                "coefficients", "blocks", "rebuild"}
        assert all(t >= 0.0 for t in timings.values())
        parts = sum(timings[k] for k in ("topology", "coefficients",
                                         "blocks", "rebuild"))
        assert parts <= timings["update"] * (1 + 1e-12)
        assert timings["update"] + timings["guess"] + timings["solve"] \
            <= step["wall_time"] * (1 + 1e-12)


ASSEMBLY_TIMINGS = {"gradients", "coefficients", "blocks", "record",
                    "build", "record_reused"}


def assembly_timings_are_well_formed(timings):
    assert set(timings) == ASSEMBLY_TIMINGS
    assert isinstance(timings["record_reused"], bool)
    assert all(timings[k] >= 0.0 for k in ASSEMBLY_TIMINGS
               if k != "record_reused")
    return True


def solve_timings_are_well_formed(timings):
    assert set(timings) == {"preconditioner", "cg"}
    assert all(t >= 0.0 for t in timings.values())
    return True


def test_solve_report_copies_the_solve_timings(tmp_path):
    path = write_scenario(tmp_path, square_solve_scenario())
    assert cli.main(["solve", path]) == 0
    assert solve_timings_are_well_formed(report_of(path)["solve"])


def test_reports_copy_the_assembly_timings(tmp_path):
    path = write_scenario(tmp_path, motion_scenario(), "motion.json")
    assert cli.main(["motion", path]) == 0
    assert assembly_timings_are_well_formed(report_of(path)["assembly"])

    path = write_scenario(tmp_path, square_solve_scenario(), "solve.json")
    assert cli.main(["solve", path]) == 0
    timings = report_of(path)["assembly"]
    assert assembly_timings_are_well_formed(timings)
    assert timings["record_reused"] is False

    path = write_scenario(tmp_path, equivalence_scenario(), "eq.json")
    assert cli.main(["equivalence-check", path]) == 0
    first, second = report_of(path)["assembly"]
    assert assembly_timings_are_well_formed(first)
    assert assembly_timings_are_well_formed(second)
    # both triplets' meshes are map_mesh images of one scenario mesh
    assert (first["record_reused"], second["record_reused"]) == (False, True)


def test_motion_report_shows_each_steps_guess_residual(tmp_path):
    path = write_scenario(tmp_path, motion_scenario())
    assert cli.main(["motion", path]) == 0
    guesses = [s["guess_residual"] for s in report_of(path)["steps"]]
    # step 0 starts from zero, step 1 from a multiple of step 0's answer;
    # on this sweep u = A + B/d, so two earlier solutions span step 2's
    assert 0.0 < guesses[1] < guesses[0]
    assert guesses[2] <= 1e-8 * guesses[0]


@pytest.mark.parametrize("section, key, value, field", [
    ("motion", "reuse_preconditioner", False, "motion"),
    (None, "seed", 7, "(top level)"),
], ids=["reuse_preconditioner", "seed"])
def test_removed_scenario_keys_are_rejected(tmp_path, section, key, value,
                                            field):
    scn = motion_scenario()
    (scn[section] if section else scn)[key] = value
    path = write_scenario(tmp_path, scn)
    assert cli.main(["motion", path]) == 2
    rep = report_of(path)
    assert rep["exit_code"] == 2
    assert rep["error"]["field"] == field
    assert key in rep["error"]["message"]


def test_motion_vtk_needs_step_placeholder(tmp_path):
    path = write_scenario(tmp_path, motion_scenario({"vtk": "u.vtk"}))
    assert cli.main(["motion", path]) == 2
    assert report_of(path)["error"]["field"] == "outputs.vtk"


def test_motion_writes_per_step_vtk(tmp_path, capsys):
    path = write_scenario(tmp_path,
                          motion_scenario({"vtk": "u_{step}.vtk"}))
    assert cli.main(["motion", path]) == 0
    files = [str(tmp_path / f"u_{k}.vtk") for k in range(3)]
    for file in files:
        assert Path(file).exists()
    # the report and the printed lines name every step's file
    assert report_of(path)["outputs"] == {"vtk": files}
    out = capsys.readouterr().out
    assert [f"wrote {file}" for file in files] == \
        [line for line in out.splitlines() if line.startswith("wrote ")]


def test_motion_vtk_pattern_under_a_directory_with_braces(tmp_path, capsys):
    # the pattern is formatted before it is resolved against the
    # scenario's directory, whose braces are no replacement fields
    run = tmp_path / "run{x}"
    run.mkdir()
    path = write_scenario(run, motion_scenario({"vtk": "u_{step}.vtk"}))
    assert cli.main(["motion", path]) == 0
    files = [str(run / f"u_{k}.vtk") for k in range(3)]
    assert all(Path(file).exists() for file in files)
    assert report_of(path)["outputs"] == {"vtk": files}
    assert f"wrote {files[-1]}" in capsys.readouterr().out


@pytest.mark.parametrize("pattern", ["m{step}{oops}.vtk", "m{step}{0}.vtk",
                                     "m{step}{.vtk"])
def test_motion_vtk_pattern_with_another_field_exits_2(tmp_path, pattern):
    # each once raised KeyError, IndexError or ValueError after step 0's
    # solve: exit 1 with a traceback and no report
    path = write_scenario(tmp_path, motion_scenario({"vtk": pattern}))
    assert cli.main(["motion", path]) == 2
    error = report_of(path)["error"]
    assert error["field"] == "outputs.vtk"
    assert pattern in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "scenario.json", "scenario.json.report.json"]


# --------------------------------------------------------- mesh-tools


def test_mesh_tools_scenario_reports_quality(tmp_path, capsys):
    scn = {
        "name": "grid",
        "dimension": 2,
        "mode": "mesh-tools",
        "mesh": {"generator": {"shape": "box", "divisions": [4, 4]}},
        "outputs": {"msh": "grid.msh", "csv": "quality.csv"},
    }
    path = write_scenario(tmp_path, scn)
    assert cli.main(["mesh-tools", path]) == 0
    rep = report_of(path)
    assert rep["elements"] == 32
    assert rep["quality"]["min"] > 1.0  # equilateral would be 1
    assert (tmp_path / "grid.msh").exists()
    lines = (tmp_path / "quality.csv").read_text().splitlines()
    assert lines[0] == "element,quality"
    assert len(lines) == 33



# ----------------------------------------------------- one output table


def equivalence_scenario(outputs=None):
    return {"name": "self", "dimension": 2, "mode": "equivalence-check",
            "mesh": {"generator": {"shape": "box", "divisions": [4, 4]}},
            "boundary": [{"tag": "left", "value": 0.0},
                         {"tag": "right", "value": 1.0}],
            "triplets": [{}, {}], "outputs": outputs or {}}


def mesh_tools_scenario(outputs=None):
    return {"name": "grid", "dimension": 2, "mode": "mesh-tools",
            "mesh": {"generator": {"shape": "box", "divisions": [4, 4]}},
            "outputs": outputs or {}}


def atlas_solve_scenario(outputs=None):
    scn = square_solve_scenario(outputs)
    scn["atlas"] = {"regions": [{"id": "a", "chart": {"kind": "identity"},
                                 "mesh": scn.pop("mesh")}]}
    return scn


# case -> (scenario, the declared output its mode has no writer for, the
# outputs the mode writes); each but the motion and atlas cases once exited
# 0 and wrote nothing, and the atlas refusal came after the solve
REFUSED_OUTPUTS = {
    "solve-msh": (square_solve_scenario, "msh", "vtk, csv, matrix_market"),
    "atlas-vtk": (atlas_solve_scenario, "vtk", "matrix_market"),
    "equivalence-vtk": (equivalence_scenario, "vtk", "csv, matrix_market"),
    "equivalence-msh": (equivalence_scenario, "msh", "csv, matrix_market"),
    "motion-matrix-market": (motion_scenario, "matrix_market", "vtk, csv"),
    "mesh-tools-matrix-market": (mesh_tools_scenario, "matrix_market",
                                 "msh, vtk, csv"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_OUTPUTS))
def test_an_output_the_mode_cannot_write_exits_2_before_any_work(
        tmp_path, monkeypatch, case):
    scenario, key, writes = REFUSED_OUTPUTS[case]

    def no_work(*args, **kwargs):
        raise AssertionError("the run started before the refusal")

    monkeypatch.setattr(fem, "assemble", no_work)
    monkeypatch.setattr(mesh, "quality", no_work)
    scn = scenario({key: "out.file"})
    path = write_scenario(tmp_path, scn)
    assert cli.main([scn["mode"], path]) == 2
    error = report_of(path)["error"]
    assert error["field"] == f"outputs.{key}"
    assert error["message"].endswith(f"it writes {writes}")
    assert not (tmp_path / "out.file").exists()


# ------------------------------------------------- one exit-code rule


def write_exit_code_inputs(d):
    """The files the exit-code table refers to, written into d."""
    mesh.write_msh(mesh.generate_structured("box", (2, 2)), d / "box.msh")
    lines = (d / "box.msh").read_text().splitlines()
    first = lines.index("$Elements") + 2
    while lines[first].split()[1] != "2":  # skip to the first triangle
        first += 1
    parts = lines[first].split()
    parts[-1] = parts[-2]  # a triangle with a repeated node has no area
    zero = lines[:first] + [" ".join(parts)] + lines[first + 1:]
    (d / "zero.msh").write_text("\n".join(zero) + "\n")
    centre = lines.index("5 0.5 0.5 0")
    nan = lines[:centre] + ["5 nan 0.5 0"] + lines[centre + 1:]
    (d / "nan.msh").write_text("\n".join(nan) + "\n")
    start, end = lines.index("$Nodes") + 2, lines.index("$EndNodes")
    flat = [f"{i} {x} {float(y) * 1e-310!r} {z}" for i, x, y, z in
            (line.split() for line in lines[start:end])]
    subnormal = lines[:start] + flat + lines[end:]
    (d / "subnormal.msh").write_text("\n".join(subnormal) + "\n")
    thin = [f"{i} {x} {float(y) * 1e-200!r} {z}" for i, x, y, z in
            (line.split() for line in lines[start:end])]
    (d / "thin.msh").write_text("\n".join(lines[:start] + thin + lines[end:])
                                + "\n")
    latin1 = (d / "box.msh").read_text().replace('"domain"', '"caf\xe9"')
    (d / "latin1.msh").write_bytes(latin1.encode("latin-1"))

    def scenario(name, **changes):
        write_scenario(d, {**square_solve_scenario(), **changes}, name)

    box = {"shape": "box", "divisions": [8, 8]}
    scenario("square.json")
    scenario("band_collapse.json", mesh={"generator": dict(
        box, region_bands=[["thin", 1, 0.5, 0.52]])})
    scenario("band_axis.json", mesh={"generator": dict(
        box, region_bands=[["far", 7, 0.0, 1.0]])})
    scenario("zero_mesh.json", mesh={"file": "zero.msh"})
    scenario("latin1_mesh.json", mesh={"file": "latin1.msh"})
    scenario("nan_mesh.json", mesh={"file": "nan.msh"})
    scenario("subnormal_mesh.json", mesh={"file": "subnormal.msh"})
    scenario("thin_mesh.json", mesh={"file": "thin.msh"})
    scenario("dim2_box3.json", mesh={"generator": {
        "shape": "box", "divisions": [2, 2, 2]}})
    scenario("dim3_box2.json", dimension=3)
    scenario("short_bounds.json", dimension=3, mesh={"generator": dict(
        box, divisions=[2, 2, 2], bounds=[[0, 0], [1, 1]])})
    scenario("unknown_tag.json", boundary=[{"tag": "north", "value": 1.0}])
    scenario("material_miss.json",
             triplet={"material": {"regions": {"nowhere": 2.0}}})
    scenario("metric_miss.json", triplet={"metric": {
        "kind": "by-region", "regions": {"nowhere": [[1, 0], [0, 1]]}}})
    write_scenario(d, {
        "name": "ob", "dimension": 2, "mode": "open-boundary",
        "open_boundary": {"a": 1.0, "b": 2.0, "divisions": [16, 8, 2],
                          "interior": {"kind": "disc", "radius": 1.0},
                          "inner_value": 1.0}}, "ob_divisions.json")
    write_scenario(d, {
        "name": "ob", "dimension": 2, "mode": "open-boundary",
        "open_boundary": {"a": 1.0, "b": 2.0, "center": [0.0, 0.0, 0.0],
                          "interior": {"kind": "disc", "radius": 1.0},
                          "inner_value": 1.0}}, "ob_center_3d.json")
    write_scenario(d, {
        "name": "ob", "dimension": 2, "mode": "open-boundary",
        "open_boundary": {"a": 1.0, "b": 2.0, "center": [0.0, 0.0, 0.0],
                          "interior": {"kind": "disc", "radius": 1.0},
                          "inner_value": {"harmonic": 1}}},
        "ob_harmonic_center_3d.json")
    equivalence = {
        "name": "eq", "dimension": 2, "mode": "equivalence-check",
        "mesh": {"generator": box},
        "boundary": [{"tag": "left", "value": 0.0},
                     {"tag": "right", "value": 1.0}]}
    write_scenario(d, {**equivalence, "triplets": [{}, {"chart": {
        "kind": "kelvin-shell", "a": 2.0, "b": 3.0,
        "center": [0.0, 0.0, 0.0]}}]}, "shell_center_3d.json")
    write_scenario(d, {**equivalence, "triplets": [{}, {"chart": {
        "kind": "piecewise-radial", "split_radius": 2.0,
        "outer": {"kind": "kelvin-shell", "a": 2.0, "b": 3.0}}}]},
        "piecewise_radial.json")
    text = (d / "square.json").read_text().replace('"square"', '"caf\xe9"')
    (d / "latin1.json").write_bytes(text.encode("latin-1"))


# argv with {d} for the inputs' directory, exit code, and the field the
# error names (a scenario command's report carries it as error.field)
EXIT_CODE_TABLE = {
    "band-collapse-solve": (["solve", "{d}/band_collapse.json"], 3, None),
    "band-collapse-gen": (["mesh", "gen", "--shape", "box", "--div", "8", "8",
                           "--band", "thin", "1", "0.5", "0.52",
                           "--out", "{d}/x.msh"], 3, None),
    "zero-volume-solve": (["solve", "{d}/zero_mesh.json"], 2, "mesh.file"),
    "zero-volume-quality": (["mesh", "quality", "{d}/zero.msh"], 2,
                            "mesh.file"),
    # exited 3 from assembly, and quality printed max nan
    "nan-node-solve": (["solve", "{d}/nan_mesh.json"], 2, "mesh.file"),
    "nan-node-quality": (["mesh", "quality", "{d}/nan.msh"], 2, "mesh.file"),
    # exited 3 from CG on a NaN matrix (residual nan)
    "subnormal-volume-solve": (["solve", "{d}/subnormal_mesh.json"], 2,
                               "mesh.file"),
    # raised "assembled matrix asymmetry nan" after an overflow, exit 3
    "thin-element-solve": (["solve", "{d}/thin_mesh.json"], 2, "mesh.file"),
    "unknown-dirichlet-tag": (["solve", "{d}/unknown_tag.json"], 2,
                              "boundary"),
    "max-iter": (["solve", "{d}/square.json", "solver.max_iter=1"], 3, None),
    # exited 3 with DimensionMismatch from assembly
    "dimension-2-mesh-3": (["solve", "{d}/dim2_box3.json"], 2, "dimension"),
    "dimension-3-mesh-2": (["solve", "{d}/dim3_box2.json"], 2, "dimension"),
    # exited 3 while the open-boundary builder caught only ValueError
    "open-boundary-divisions": (["open-boundary", "{d}/ob_divisions.json"],
                                2, "open_boundary"),
    # exited 2 with numpy's "operands could not be broadcast together"
    "open-boundary-center-length": (["open-boundary", "{d}/ob_center_3d.json"],
                                    2, "open_boundary"),
    # the harmonic inner value unpacked the center before the spec checked
    # it: a ValueError traceback, exit code 1
    "open-boundary-harmonic-center-length": (
        ["open-boundary", "{d}/ob_harmonic_center_3d.json"], 2,
        "open_boundary"),
    # each of these once ended in a traceback with exit code 1
    "gen-out-missing-dir": (["mesh", "gen", "--shape", "box", "--div", "2",
                             "2", "--out", "{d}/missing/x.msh"], 2, None),
    "convert-out-missing-dir": (["mesh", "convert", "{d}/box.msh",
                                 "{d}/missing/b.vtk"], 2, None),
    "band-axis-solve": (["solve", "{d}/band_axis.json"], 2,
                        "mesh.generator"),
    "band-axis-gen": (["mesh", "gen", "--shape", "box", "--div", "4", "4",
                       "--band", "far", "7", "0", "1",
                       "--out", "{d}/x.msh"], 2, "mesh.generator"),
    "material-region-miss": (["solve", "{d}/material_miss.json"], 2, None),
    "metric-region-miss": (["solve", "{d}/metric_miss.json"], 2, None),
    "non-utf8-msh-solve": (["solve", "{d}/latin1_mesh.json"], 2,
                           "mesh.file"),
    "non-utf8-msh-quality": (["mesh", "quality", "{d}/latin1.msh"], 2,
                             "mesh.file"),
    "non-utf8-msh-convert": (["mesh", "convert", "{d}/latin1.msh",
                              "{d}/b.vtk"], 2, "mesh.file"),
    "non-utf8-scenario": (["solve", "{d}/latin1.json"], 2, None),
    # float() took them: the NaN band tagged every element and exited 0,
    # and the infinite bound warned from numpy before its error
    "nan-band-gen": (["mesh", "gen", "--shape", "box", "--div", "2", "2",
                      "--band", "a", "1", "nan", "1", "--out", "{d}/x.msh"],
                     2, "--band"),
    "inf-bounds-gen": (["mesh", "gen", "--shape", "box", "--div", "2", "2",
                        "--bounds", "0", "0", "inf", "1",
                        "--out", "{d}/x.msh"], 2, "--bounds"),
    # bounds of fewer entries than axes ended in an IndexError traceback
    # from the scenario; the utility kept a count check of its own
    "short-bounds-solve": (["solve", "{d}/short_bounds.json"], 2,
                           "mesh.generator"),
    "long-bounds-gen": (["mesh", "gen", "--shape", "box", "--div", "2", "2",
                         "--bounds", "0", "0", "0", "1", "1", "1",
                         "--out", "{d}/x.msh"], 2, "mesh.generator"),
    # a 3-d center in a 2-d chart exited 3: "expected points with 3
    # coordinates, got 2"
    "shell-center-length": (["equivalence-check", "{d}/shell_center_3d.json"],
                            2, "chart"),
    # the kind is gone: KelvinShell is the identity inside its radius a
    "piecewise-radial-kind": (["equivalence-check",
                               "{d}/piecewise_radial.json"], 2,
                              "triplets.1.chart"),
    # argparse's own exit: code 2, but its "usage: ... error: ..." text
    "quality-no-input": (["mesh", "quality"], 2, None),
    "gen-div-not-a-number": (["mesh", "gen", "--shape", "box", "--div", "x",
                              "2", "--out", "{d}/x.msh"], 2, None),
}


@pytest.mark.parametrize("case", sorted(EXIT_CODE_TABLE))
def test_exit_code_table(tmp_path, capsys, case):
    argv, code, field = EXIT_CODE_TABLE[case]
    write_exit_code_inputs(tmp_path)
    argv = [a.format(d=tmp_path) for a in argv]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (f"(field {field})" in err) == (field is not None)
    if argv[0] != "mesh":
        rep = report_of(argv[1])
        assert rep["status"] == "error"
        assert rep["exit_code"] == code
        assert rep["error"].get("field") == field


@pytest.mark.parametrize("tool", ["gen", "convert", "quality"])
def test_a_mesh_utility_prints_its_help_and_exits_0(capsys, tool):
    assert cli.main(["mesh", tool, "-h"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith(f"usage: tripletfem mesh {tool}")
    assert not out.err

