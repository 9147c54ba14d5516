"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tripletfem


def _run_python(*args, env=None):
    """A fresh interpreter that imports the tripletfem under test, with
    the variables of env added to this process's environment."""
    src = str(Path(tripletfem.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


@pytest.fixture
def run_python():
    """_run_python: run python with the given arguments (and env),
    capturing output."""
    return _run_python
