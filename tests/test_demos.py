"""Every demo script runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
