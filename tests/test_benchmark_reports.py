"""The benchmark's workloads, run in-process at a fixed seed: every report
passes the benchmark's own output checks and the concatenated reports hash
to the value ``perfbench/run.py`` prints as ``reports_sha256``.  This pins
teleports up to n = 16, beyond the goldens' n <= 12."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from wproto import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 3
REPORTS_SHA256 = {
    "acceptance": "c74fcebb492684b74ab3b1d61f7b5929435c08bf7bb60b2b3f3041fb05b24f8e",
    "protocols-large": "a8e9ac847fd1b679fb90f478ebfc844cde2b8cbbc6238c344b8afb3d1dd982d4",
    "detect-large": "81545822c14b60e5de730b7cdc859763f735df1cf204ca325f5acff3fe1754df",
}


def _load(name: str):
    """Execute ``perfbench/<name>.py`` as module ``name``; registered in
    ``sys.modules`` first, since its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    saved = {name: sys.modules.get(name) for name in ("workloads", "checks")}
    yield _load("workloads"), _load("checks")
    for name, module in saved.items():
        if module is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = module


@pytest.mark.parametrize("workload", sorted(REPORTS_SHA256))
def test_workload_reports_pass_their_checks_and_hash_as_pinned(perfbench, workload):
    workloads, checks = perfbench
    digest = hashlib.sha256()
    for i, scenario in enumerate(workloads.generate(workload, SEED)):
        report = cli.emit(cli.run(cli.parse_config(scenario.doc)), "json")
        assert checks.check(report, scenario.expect) == [], (i, scenario.doc[:80])
        digest.update(report)
    assert digest.hexdigest() == REPORTS_SHA256[workload]
