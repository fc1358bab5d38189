"""Put the package in src/ on PYTHONPATH for interpreters the tests start
(python -m repfn), as pyproject's pythonpath reaches only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
