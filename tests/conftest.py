"""Child processes the tests start (``python -m smoothmax.cli`` and
``scripts/verify_iteration_formulas.py``) import the package from this
checkout's ``src/``, as the test process itself does through the
``pythonpath`` setting in pyproject.toml, and run with every warning an
error, as ``filterwarnings = ["error"]`` makes them in the test process."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def source_tree_on_child_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        mp.setenv("PYTHONWARNINGS", "error")
        yield
