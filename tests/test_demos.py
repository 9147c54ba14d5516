"""Every demo script runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(run_python, script):
    out = run_python("-W", "error::RuntimeWarning", str(script))
    assert out.returncode == 0, out.stderr
