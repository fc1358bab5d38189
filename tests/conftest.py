"""Put the package in src/ on PYTHONPATH for interpreters the tests start
(python -m repfn), as pyproject's pythonpath reaches only this process, and
undo the gc.freeze() of each in-process cli.main call after every test."""

import gc
import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _unfreeze_after_test():
    # cli.main freezes the whole heap, pytest's included: left frozen, a
    # cycle that holds an unclosed file would never be collected, and its
    # ResourceWarning (an error here) would never be raised.
    yield
    gc.unfreeze()
