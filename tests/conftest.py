"""Let child processes started by the tests (``python -m wproto.cli``) import
the package from ``src/``, as ``pythonpath`` in pyproject.toml does for the
test process itself."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
