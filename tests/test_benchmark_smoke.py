"""The benchmark harness end to end: one short traced run of the acceptance
workload, in a child process as the benchmark runs it, passes its output
checks and reports every per-layer metric that ``BENCHMARK.json`` declares.
The run writes its working files under the git-ignored ``.perfbench/``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_short_traced_acceptance_run_is_correct_and_reports_every_layer():
    declared = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    command = [sys.executable, "perfbench/run.py", "--workload", "acceptance",
               "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert [name for name in declared if name not in result["metrics"]] == []
