"""Shared test set-up."""

import os
from pathlib import Path

import pytest

import blfkit


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Let interpreters the CLI tests start import the blfkit under test."""
    src = str(Path(blfkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield
