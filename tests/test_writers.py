"""Every written byte holds: the writers, all on mesh.text_rows, against
the per-row formatting they replaced.

The reference functions below format one row at a time with f-strings,
as the writers once did. Each case writes one file with the package and
compares its bytes with the reference text. Values include -0.0,
subnormals, +-1e300, large integers and node ids, a mesh without
boundary facets and empty data.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from tripletfem import applications as app
from tripletfem import cli, fem, geometry as geo, mesh, triplet as tp

SPECIAL = np.array([-0.0, 1e-310, 5e-324, -1e300, 1e300, 0.1, -1.0 / 3.0,
                    2.0 ** 60, 0.0, 7.0, -2.5e-17])

# ------------------------------------------------------------ references


def xyz(row):
    z = row[2] if len(row) == 3 else 0.0
    return f"{row[0]:.17g} {row[1]:.17g} {z:.17g}"


def ref_msh(m):
    tags = sorted(set(m.facet_tags.tolist()))
    tags += sorted(set(m.element_regions.tolist()))
    phys_id = {t: i + 1 for i, t in enumerate(tags)}
    n_facet_tags = len(set(m.facet_tags.tolist()))
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$PhysicalNames",
             str(len(phys_id))]
    for t, i in phys_id.items():
        lines.append(f'{m.dim - 1 if i <= n_facet_tags else m.dim} {i} "{t}"')
    lines += ["$EndPhysicalNames", "$Nodes", str(m.n_nodes)]
    for i, p in enumerate(m.nodes.tolist()):
        lines.append(f"{i + 1} {xyz(p)}")
    lines += ["$EndNodes", "$Elements",
              str(len(m.boundary_facets) + m.n_elements)]
    rows = [(f, t, {2: 1, 3: 2}[m.dim]) for f, t in
            zip(m.boundary_facets.tolist(), m.facet_tags.tolist())]
    rows += [(e, t, {2: 2, 3: 4}[m.dim]) for e, t in
             zip(m.elements.tolist(), m.element_regions.tolist())]
    for eid, (nodes, t, code) in enumerate(rows, start=1):
        ids = " ".join(str(n + 1) for n in nodes)
        lines.append(f"{eid} {code} 2 {phys_id[t]} {phys_id[t]} {ids}")
    lines.append("$EndElements")
    return "\n".join(lines) + "\n"


def ref_vtk(m, point_data=None, cell_data=None, title="tripletfem"):
    k = m.dim + 1
    out = ["# vtk DataFile Version 3.0", title, "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {m.n_nodes} double"]
    out += [xyz(p) for p in m.nodes.tolist()]
    out.append(f"CELLS {m.n_elements} {m.n_elements * (k + 1)}")
    out += [f"{k} " + " ".join(str(n) for n in e) for e in m.elements.tolist()]
    out.append(f"CELL_TYPES {m.n_elements}")
    out += [str({2: 5, 3: 10}[m.dim])] * m.n_elements
    for keyword, count, data in (("POINT_DATA", m.n_nodes, point_data),
                                 ("CELL_DATA", m.n_elements, cell_data)):
        if not data:
            continue
        out.append(f"{keyword} {count}")
        for name, arr in data.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim == 1:
                out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
                out += [f"{v:.17g}" for v in arr.tolist()]
            else:
                out.append(f"VECTORS {name} double")
                out += [xyz(row) for row in arr.tolist()]
    return "\n".join(out) + "\n"


def ref_probe_csv(points, values, value_name):
    rows = [",".join(["x", "y", "z"][: points.shape[1]] + [value_name])]
    for p, v in zip(points.tolist(), values.tolist()):
        rows.append(",".join(f"{c:.17g}" for c in p) + f",{v:.17g}")
    return "\n".join(rows) + "\n"


def ref_matrix_market(A):
    A = sp.csr_matrix(A).copy()
    A.sum_duplicates()
    A.sort_indices()
    coo = A.tocoo()
    text = "%%MatrixMarket matrix coordinate real general\n"
    text += f"{A.shape[0]} {A.shape[1]} {A.nnz}\n"
    for i, j, v in zip(coo.row, coo.col, coo.data):
        text += f"{i + 1} {j + 1} {v:.17g}\n"
    return text


def ref_sweep_csv(results):
    text = "step,energy,iterations,changed_entries,wall_time\n"
    for r in results:
        text += (f"{r.step},{r.energy:.17g},{r.iterations},"
                 f"{r.changed_entries},0\n")
    return text


# ----------------------------------------------------------------- cases


def meshes():
    box = mesh.generate_structured("box", (6, 5),
                                   region_bands=[("band", 1, 0.3, 0.6)])
    return {
        "box-2d": box,
        "box-3d": mesh.generate_structured(
            "box", (3, 2, 4), bounds=[[1e-9, 1e-9, -3e5], [3e5, 2e5, 1e-9]]),
        "annulus": mesh.generate_structured("annulus", (24, 6),
                                            radii=(1.0, 2.0), grading=2.0),
        "no-facets": mesh.Mesh(box.nodes, box.elements, box.element_regions),
    }


def field_data(m):
    """Scalar and vector point and cell fields of the special values."""
    return ({"s": np.resize(SPECIAL, m.n_nodes),
             "v": np.resize(SPECIAL, (m.n_nodes, m.dim))[::-1],
             "v2": np.resize(SPECIAL, (m.n_nodes, 2))},
            {"q": np.resize(SPECIAL[::-1], m.n_elements),
             "w": np.resize(SPECIAL, (m.n_elements, 3))})


def sweep_results():
    m = mesh.generate_structured("box", (4, 4),
                                 region_bands=[("gap", 1, 0.5, 1.0)])
    base = tp.Triplet(chart=geo.Identity(2),
                      metric=geo.MetricField.euclidean(2),
                      material=tp.MaterialField.uniform(1.0, 2))
    spec = fem.BVPSpec(m, base, (("bottom", 0.0), ("top", 1.0)))
    steps = [geo.AxisPiecewiseLinear(1, (0.0, 0.5, 1.0), (0.0, 0.5, d))
             for d in (1.0, 1.3, 1.7)]
    return app.motion_sweep(app.MotionSweep(base=spec, moving_region="gap",
                                            steps=steps))


def matrices():
    rng = np.random.default_rng(0)
    A = sp.random(30, 20, density=0.3, random_state=rng, format="csr")
    A.data[:len(SPECIAL)] = SPECIAL
    n = 10 ** 6  # node ids past every other case's
    far = sp.csr_matrix((SPECIAL[:4], ([0, n - 1, 5, n - 2],
                                       [n - 1, 0, 5, n - 1])), shape=(n, n))
    return {"random": A, "large-ids": far, "empty": sp.csr_matrix((3, 3))}


def cases():
    """name -> (write(path), the reference text)."""
    out = {}
    for name, m in meshes().items():
        points, cells = field_data(m)
        values = np.resize(SPECIAL, m.n_nodes)
        out[f"msh-{name}"] = (lambda p, m=m: mesh.write_msh(m, p),
                              lambda m=m: ref_msh(m))
        out[f"vtk-{name}"] = (lambda p, m=m: mesh.write_vtk(m, p),
                              lambda m=m: ref_vtk(m))
        out[f"vtk-{name}-empty"] = (
            lambda p, m=m: mesh.write_vtk(m, p, {}, {}),
            lambda m=m: ref_vtk(m, {}, {}))
        out[f"vtk-{name}-data"] = (
            lambda p, m=m, a=points, b=cells: mesh.write_vtk(m, p, a, b, "t"),
            lambda m=m, a=points, b=cells: ref_vtk(m, a, b, "t"))
        out[f"probe-{name}"] = (
            lambda p, m=m, v=values: mesh.write_probe_csv(p, m.nodes, v,
                                                          "phi"),
            lambda m=m, v=values: ref_probe_csv(m.nodes, v, "phi"))
    for name, A in matrices().items():
        out[f"mtx-{name}"] = (lambda p, A=A: fem.write_matrix_market(A, p),
                              lambda A=A: ref_matrix_market(A))
    results = sweep_results()
    for name, rs in (("sweep", results), ("sweep-empty", [])):
        out[name] = (lambda p, rs=rs: app.write_sweep_csv(p, rs),
                     lambda rs=rs: ref_sweep_csv(rs))
    return out


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_bytes_equal_the_per_row_reference(tmp_path, case):
    write, reference = CASES[case]
    path = tmp_path / "out"
    write(str(path))
    assert path.read_bytes() == reference().encode()


def test_text_rows_writes_integers_whole_and_floats_in_17_digits():
    ints = np.array([0, -1, 2 ** 62, -2 ** 63, 10 ** 6], dtype=np.int64)
    floats = SPECIAL[:len(ints)]
    assert mesh.text_rows(ints, floats, sep=",") == "".join(
        f"{i},{v:.17g}\n" for i, v in zip(ints.tolist(), floats.tolist()))
    assert mesh.text_rows(np.zeros((0, 3))) == ""


# ------------------------------------------------------ the command line


def run(tmp_path, capsys, scn, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scn))
    assert cli.main([scn["mode"], str(path)]) == 0
    report = json.loads((tmp_path / f"{name}.json.report.json").read_text())
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("wrote ")]
    return report, lines


def test_cli_tables_and_printed_numbers_keep_their_bytes(tmp_path, capsys):
    f = "{:.17g}".format
    box = {"generator": {"shape": "box", "divisions": [6, 6]}}
    plates = [{"tag": "left", "value": 0.0}, {"tag": "right", "value": 1.0}]
    distorted = {"chart": {"kind": "composite", "members": [
        {"kind": "rotation", "angle": 0.7},
        {"kind": "axis-scaling", "factors": [1000.0, 0.01]}]},
        "material": {"default": {"pullback": 1.0}}}

    rep, lines = run(tmp_path, capsys, {
        "name": "e", "dimension": 2, "mode": "equivalence-check",
        "mesh": box, "boundary": plates, "triplets": [{}, distorted],
        "outputs": {"csv": "e.csv"}}, "e")
    numbers = [rep["matrix_rel_frobenius"], rep["matrix_max_entry"],
               rep["material_max_deviation"]]
    assert (tmp_path / "e.csv").read_text() == (
        "matrix_rel_frobenius,matrix_max_entry,material_max_deviation\n"
        + ",".join(map(f, numbers)) + "\n")
    assert lines == [f"matrix deviation {f(numbers[0])} "
                     f"(worst entry {f(numbers[1])})",
                     f"material deviation {f(numbers[2])}"]

    annulus = {"generator": {"shape": "annulus", "divisions": [24, 8],
                             "radii": [1.0, 2.0], "grading": 1.5}}
    rep, lines = run(tmp_path, capsys, {
        "name": "q", "dimension": 2, "mode": "mesh-tools", "mesh": annulus,
        "outputs": {"csv": "q.csv"}}, "q")
    ratios = mesh.quality(cli.build_mesh(annulus, cli.RunContext(""))).ratios
    assert (tmp_path / "q.csv").read_text() == "element,quality\n" + "".join(
        f"{e},{r:.17g}\n" for e, r in enumerate(ratios.tolist()))
    q = rep["quality"]
    assert lines == [f"{rep['nodes']} nodes, {rep['elements']} elements",
                     f"quality min {f(q['min'])} max {f(q['max'])} "
                     f"mean {f(q['mean'])} worst_element {q['worst_element']}"]

    rep, lines = run(tmp_path, capsys, {
        "name": "s", "dimension": 2, "mode": "solve", "mesh": box,
        "boundary": plates}, "s")
    assert lines == [f"energy {f(rep['energy'])}",
                     f"cg iterations {rep['iterations']}, "
                     f"residual {f(rep['residual'])}"]

    rep, lines = run(tmp_path, capsys, {
        "name": "m", "dimension": 2, "mode": "motion",
        "mesh": {"generator": {"shape": "box", "divisions": [4, 4],
                               "region_bands": [["gap", 1, 0.5, 1.0]]}},
        "boundary": [{"tag": "bottom", "value": 0.0},
                     {"tag": "top", "value": 1.0}],
        "motion": {"moving_region": "gap", "steps": [
            {"kind": "identity"},
            {"kind": "axis-piecewise-linear", "axis": 1,
             "breaks": [0.0, 0.5, 1.0], "images": [0.0, 0.5, 1.3]}]}}, "m")
    assert lines == [f"step {s['step']} energy {f(s['energy'])} iterations "
                     f"{s['iterations']} changed {s['changed_entries']}"
                     for s in rep["steps"]]

    values = [*SPECIAL.tolist(), np.float64(0.1), np.float32(0.1), 3]
    assert [cli._fmt(v) for v in values] == [f(float(v)) for v in values]
