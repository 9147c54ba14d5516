"""Seeded mutation regressions: malformed mesh files and scenarios end
in a typed error, never a traceback.

Each test replays a fixed sequence of random edits of known-good input.
A RuntimeWarning counts as an escape too (pytest turns it into an
error).
"""

import json
import random
import re
from pathlib import Path

import pytest

from tripletfem import cli, mesh
from tripletfem.errors import MalformedFile, TripletFemError

MSH_TOKENS = ["0", "-1", "1", "2", "3", "4", "15", "999", "0.5", "nan", "inf",
              "-inf", "1e308", "-1e308", "1e-310", "x", "", '"t"', "2.2",
              "$Nodes", "$EndNodes", "$Elements", "$EndElements",
              "$PhysicalNames", "$EndPhysicalNames", "$MeshFormat"]


def mutate_lines(lines, rng):
    """One random edit of a file's lines."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.randrange(8)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[rng.randrange(len(lines))])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        del lines[i:]
    elif kind == 4:
        lines.insert(i, " ".join(rng.choice(MSH_TOKENS)
                                 for _ in range(rng.randrange(1, 6))))
    else:
        parts = lines[i].split() or [""]
        parts[rng.randrange(len(parts))] = rng.choice(MSH_TOKENS)
        lines[i] = " ".join(parts)
    return lines


@pytest.mark.parametrize("divisions", [(2, 2), (2, 1, 1)])
def test_mutated_msh_files_raise_only_typed_errors(tmp_path, divisions):
    m = mesh.generate_structured("box", divisions,
                                 region_bands=[("band", 0, 0.0, 0.5)])
    mesh.write_msh(m, tmp_path / "good.msh")
    good = (tmp_path / "good.msh").read_text().splitlines()
    rng = random.Random(sum(divisions))
    path = tmp_path / "mutated.msh"
    for case in range(1000):
        lines = good
        for _ in range(rng.randrange(1, 4)):
            lines = mutate_lines(lines, rng) or ["x"]
        path.write_text("\n".join(lines) + "\n")
        try:
            mesh.read_msh(path)
        except MalformedFile as err:
            # every malformed-content message names its line, or the
            # section the file lacks
            assert re.match(rf"{re.escape(str(path))}: (line \d+: |no "
                            r"\$(Nodes|Elements) section found$)",
                            str(err)), (case, str(err))
        except TripletFemError:
            pass


# no mid-sized numbers: a mesh division of 1e4 would be a valid, slow run
SCENARIO_VALUES = [None, True, -1, 0, 1, 2, 3, 0.5, -2.5, 1e-300, 1e300, "",
                   "x", "left", "top", "ic0", "none", "annulus", [], [1, 1],
                   [0.5, 0.5], [[1, 0], [0, 1]], {}, {"kind": "x"}]


def json_slots(node, path=()):
    """Every (container path, key or index) in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from json_slots(child, path + (key,))


def mutate_json(doc, rng):
    """One random edit: drop a key or item, replace a value, or add an
    unknown key."""
    doc = json.loads(json.dumps(doc))
    path, key = rng.choice(list(json_slots(doc)))
    parent = doc
    for step in path:
        parent = parent[step]
    kind = rng.randrange(4)
    if kind == 0:
        del parent[key]
    elif kind < 3 or not isinstance(parent, dict):
        parent[key] = rng.choice(SCENARIO_VALUES)
    else:
        parent["unexpected"] = rng.choice(SCENARIO_VALUES)
    return doc


DEMO_SCENARIOS = sorted((Path(__file__).parents[1] / "demos").glob("*.json"))


@pytest.mark.parametrize("source", DEMO_SCENARIOS, ids=lambda p: p.name)
def test_mutated_demo_scenarios_exit_cleanly_with_a_report(tmp_path, capsys,
                                                           source):
    good = json.loads(source.read_text())
    rng = random.Random(source.name)
    for case in range(100):
        scn = good
        for _ in range(rng.randrange(1, 3)):
            scn = mutate_json(scn, rng)
        d = tmp_path / str(case)
        d.mkdir()
        path = d / "scenario.json"
        path.write_text(json.dumps(scn))
        code = cli.main([good["mode"], str(path)])
        capsys.readouterr()
        assert code in (0, 2, 3), (case, scn)
        outputs = scn.get("outputs") if isinstance(scn, dict) else None
        declared = outputs.get("report") if isinstance(outputs, dict) else None
        reports = [Path(str(path) + ".report.json")]
        if isinstance(declared, str) and declared:
            reports.append(d / declared)
        assert any(p.is_file() for p in reports), (case, scn)
