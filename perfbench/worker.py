"""Benchmark child process: one client driving wproto in a closed loop.

Reads a job (JSON) on stdin and prints one JSON result line on stdout.
``--setup <start stamp>`` only imports wproto, parses every document and
prints the wall time elapsed since the stamp, so the parent can time
set-up in a fresh process; then it prints the host factor of that moment
(``SETUP_KERNEL``, timed after the stamp was read).  Otherwise each request is one
single-scenario document sent through ``cli.parse_config`` -> ``cli.run``
-> ``cli.emit(..., "json")``, the next request starting only when the
previous one returned.  No threads; BLAS must already be pinned to one
thread in the environment, before numpy loads.

The first pass is a warm-up.  Its reports are checked against the
generator's expectations; every later pass, traced or not, must reproduce
them byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 100
#: reference kernel and samples behind the host factor of a set-up probe;
#: of the two kernels, "large" tracked set-up time best across slow spells
SETUP_KERNEL, SETUP_KERNEL_SAMPLES = "large", 5
MAX_REPORTED_PROBLEMS = 10
ROOT = Path(__file__).resolve().parent.parent


def import_wproto():
    if any(os.environ.get(var) != "1" for var in PINNED):
        raise RuntimeError(f"BLAS threads must be pinned: set {PINNED} to 1")
    sys.path.insert(0, str(ROOT / "src"))
    import wproto
    from wproto import cli

    if Path(wproto.__file__).resolve().parent != ROOT / "src" / "wproto":
        raise RuntimeError(f"wproto imported from {wproto.__file__}, not from src/")
    return cli


class Client:
    """Closed-loop client that times requests and verifies their reports."""

    def __init__(self, cli, scenarios: list[dict]):
        self.cli = cli
        self.scenarios = scenarios
        self.reports: list[bytes | None] = [None] * len(scenarios)
        self.problems: list[list[str]] = [[] for _ in scenarios]
        self.attempted = 0
        self.failed = 0
        self.reported: list[str] = []
        self.tracer = None
        #: when set, the host-speed reference kernel (``reference.py``), timed
        #: after every request; its samples are kept per pass
        self.kernel = None
        self.kernel_passes: list[list[float]] = []

    def request(self, doc: str) -> tuple[bytes | None, str | None]:
        cli = self.cli
        try:
            return cli.emit(cli.run(cli.parse_config(doc)), "json"), None
        except Exception as exc:  # a raising scenario is a failed request
            return None, f"{type(exc).__name__}: {exc}"

    def run_pass(self) -> list[float]:
        """One request per scenario, in order; returns the latencies."""
        clock = time.perf_counter
        latencies, kernel = [], []
        for i, scenario in enumerate(self.scenarios):
            if self.tracer is not None:
                self.tracer.request = self.attempted
            start = clock()
            report, error = self.request(scenario["doc"])
            latencies.append(clock() - start)
            if self.kernel is not None:
                kernel.append(self.kernel())
            self.attempted += 1
            if error is not None:
                problems = [error]
            elif self.reports[i] is None:
                self.reports[i] = report
                problems = self.problems[i] = check(report, scenario["expect"])
            elif report != self.reports[i]:
                problems = ["report bytes differ from the first pass"]
            else:
                problems = self.problems[i]
            if problems:
                self.failed += 1
                if len(self.reported) < MAX_REPORTED_PROBLEMS:
                    self.reported.append(f"scenario {i} {scenario['doc'][:80]}: {problems}")
        if self.kernel is not None:
            self.kernel_passes.append(kernel)
        return latencies

    def run_for(self, seconds: float, min_samples: int) -> list[list[float]]:
        """Warm-up pass, then timed passes until both budgets are met."""
        self.run_pass()
        start = time.perf_counter()
        passes = []
        while (len(passes) < 2 or time.perf_counter() - start < seconds
               or sum(map(len, passes)) < min_samples):
            passes.append(self.run_pass())
        return passes

    def digest(self) -> str:
        h = hashlib.sha256()
        for report in self.reports:
            h.update(report or b"<failed>")
        return h.hexdigest()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def provenance() -> dict:
    import numpy  # already loaded by wproto, after the BLAS pin was checked

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in PINNED},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def measure(client: Client, seconds: float, kernel: str) -> dict:
    """End-to-end metrics, corrected for the host's speed pass by pass.

    The host slows the same instructions by up to 2x, for seconds or for
    whole runs (see ``reference.py``).  Each pass's latencies are divided
    by that pass's host factor: the median of the reference kernel's
    samples, timed after each of its requests, over the kernel's nominal
    time.
    """
    from reference import make_kernel

    client.kernel, nominal = make_kernel(kernel)
    passes = client.run_for(seconds, MIN_SAMPLES)
    hosts = [statistics.median(k) / nominal for k in client.kernel_passes[-len(passes):]]
    corrected = [[t / h for t in p] for p, h in zip(passes, hosts)]
    latencies = [t for p in corrected for t in p]
    n = len(client.scenarios)
    return {
        "passes": len(passes),
        "samples": len(latencies),
        "host_factors": [min(hosts), statistics.median(hosts), max(hosts)],
        "uncorrected_scenarios_per_s":
            n / sum(statistics.median(s) for s in zip(*passes)),
        "scenarios_per_s": n / sum(statistics.median(s) for s in zip(*corrected)),
        "scenario_p50_s": percentile(latencies, 50),
        "scenario_p90_s": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(client: Client, seconds: float, spans_path: Path) -> dict:
    """Untraced passes, then traced passes; per-layer numbers per pass."""
    from tracer import Tracer

    untraced = [sum(p) for p in client.run_for(seconds / 2, 0)]
    tracer = client.tracer = Tracer()
    tracer.install()
    traced, aggregates, first_spans = [], [], None
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds / 2:
        traced.append(sum(client.run_pass()))
        spans, agg = tracer.take_pass()
        if first_spans is None:
            first_spans = spans
        aggregates.append(agg)
    counts, *later = [{k: v for k, v in a.items() if not k.endswith("self_s")}
                      for a in aggregates]
    repeat = all(c == counts for c in later)
    layer = {k: statistics.median(a[k] for a in aggregates)
             for k in aggregates[0] if k.endswith("self_s")}
    layer.update(counts)
    teleports = sum(s["expect"]["task"] == "teleport" for s in client.scenarios)
    families = counts["teleport.one_qubit_measurement_family.calls"]
    layer["teleport.plans_per_scenario"] = families / teleports if teleports else 0.0
    layer["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({
        "names": tracer.names,
        "columns": ["name", "start", "end", "parent", "request"],
        "spans": first_spans,
    }))
    return {
        "layer": layer,
        "counts_repeat": repeat,
        "counts_sha256": hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()).hexdigest(),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
    }


def main() -> int:
    cli = import_wproto()
    job = json.load(sys.stdin)
    if sys.argv[1:2] == ["--setup"]:
        for scenario in job["scenarios"]:
            cli.parse_config(scenario["doc"])
        ready = time.time() - float(sys.argv[2])
        from reference import make_kernel

        kernel, nominal = make_kernel(SETUP_KERNEL)
        host = statistics.median(kernel() for _ in range(SETUP_KERNEL_SAMPLES)) / nominal
        print(f"ready {ready!r} host {host!r}")
        return 0
    client = Client(cli, job["scenarios"])
    if job["trace"]:
        result = trace(client, job["seconds"], ROOT / job["spans_path"])
    else:
        result = measure(client, job["seconds"], job["kernel"])
    result.update(
        attempted=client.attempted,
        failed=client.failed,
        problems=client.reported,
        reports_sha256=client.digest(),
        provenance=provenance(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
