"""Let child processes started by the tests (``python -m wproto.cli``, the
demos) import the package from ``src/``, as ``pythonpath`` in pyproject.toml
does for the test process itself, and run under the suite's warning policy:
pyproject's ``filterwarnings`` turns ``RuntimeWarning``, ``DeprecationWarning``
and ``FutureWarning`` into errors only in the test process, ``PYTHONWARNINGS``
does it in its children."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
# the last matching entry wins, so the suite's policy goes after any inherited one
_POLICY = ("error::RuntimeWarning", "error::DeprecationWarning", "error::FutureWarning")
os.environ["PYTHONWARNINGS"] = ",".join(
    w for w in (os.environ.get("PYTHONWARNINGS"), *_POLICY) if w
)
