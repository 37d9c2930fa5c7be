"""Child processes the tests start (``python -m smoothmax.cli``) import the
package from this checkout's ``src/``, as the test process itself does through
the ``pythonpath`` setting in pyproject.toml."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def source_tree_on_child_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
