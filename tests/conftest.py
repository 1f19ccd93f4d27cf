import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env():
    """The environment for a child Python process with `src` first on its
    PYTHONPATH: pytest's `pythonpath` setting reaches only this process."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
