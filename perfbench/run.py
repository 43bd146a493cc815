"""wproto benchmark: config in, verified verdict out, one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

Generates the workload's scenarios from ``--seed``, times set-up in fresh
processes, then runs the requests in a child process (see ``worker.py``)
for ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (see
``tracer.py``).  It prints a summary, then one JSON result as the last
line, and exits 1 if any output check failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import os

from worker import PINNED

# BLAS is pinned before numpy loads, here and in every child process.
for _var in PINNED:
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_p50_s": "s",
    "scenario_p90_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s") or name == "trace_overhead_s":
        return "s"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("bytes"):
        return "B"
    if name == "teleport.plans_per_scenario":
        return "plans/scenario"
    return "count"


def child(args: list[str], job: dict, deadline: float) -> str:
    """Run the worker on the job; return its stdout.  Killed at the deadline."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], input=json.dumps(job),
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds(scenarios: list[dict], deadline: float,
                  probes: int) -> list[tuple[float, float]]:
    """Fresh-process start until wproto is imported and every document parsed.

    The child measures against the wall-clock stamp taken just before it was
    started.  Returns (seconds, host factor) per probe.
    """
    job = {"scenarios": scenarios}
    out = []
    for _ in range(probes):
        _, ready, _, host = child(["--setup", repr(time.time())], job, deadline).split()
        out.append((float(ready), float(host)))
    return out


def corrected_setup(setup: list[tuple[float, float]]) -> float:
    """Median over the probes of set-up time divided by its host factor."""
    return statistics.median(t / host for t, host in setup)


def summary_lines(args, result: dict, setup: list[tuple[float, float]] | None) -> list[str]:
    prov = result["provenance"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
        f"  trace {args.trace}",
        f"provenance: python {prov['python']}, numpy {prov['numpy']},"
        f" BLAS {prov['blas']} threads {prov['blas_threads']},"
        f" nproc {prov['nproc']}, cpu {prov['cpu']}",
        f"reports_sha256 {result['reports_sha256']}",
        f"failed_fraction {result['failed'] / result['attempted']:.6g}"
        f" ({result['failed']}/{result['attempted']} requests)",
    ]
    if setup is not None:
        lines.append(f"setup_s {corrected_setup(setup):.6g} s"
                     f" (median of {len(setup)} fresh processes); uncorrected"
                     f" {statistics.median(t for t, _ in setup):.6g} s")
        low, mid, high = result["host_factors"]
        lines.append(f"host factor per pass {mid:.4g} (median; {low:.4g} to {high:.4g});"
                     f" uncorrected scenarios_per_s"
                     f" {result['uncorrected_scenarios_per_s']:.6g} 1/s")
        lines.append(f"scenarios_per_s {result['scenarios_per_s']:.6g} 1/s"
                     f" (from each scenario's median latency over {result['passes']}"
                     f" timed passes)")
        for name in ("scenario_p50_s", "scenario_p90_s"):
            lines.append(f"{name} {result[name]:.6g} s (n={result['samples']})")
        lines.append(f"peak_rss_mb {result['peak_rss_mb']:.6g} MiB (worker process)")
    else:
        lines.append(f"counts_sha256 {result['counts_sha256']} (repeat exactly:"
                     f" {result['counts_repeat']}); {result['untraced_passes']}"
                     f" untraced, {result['traced_passes']} traced passes")
        layer = result["layer"]
        spans = sorted((k for k in layer if k.endswith(".self_s") and k.count(".") >= 2),
                       key=layer.get, reverse=True)
        lines.append("top self time per pass: " + ", ".join(
            f"{k[: -len('.self_s')]} {layer[k]:.4g} s" for k in spans[:5]))
        for name, value in layer.items():
            note = " (computed)" if name.endswith("flops") or name.endswith("bytes") else ""
            lines.append(f"  {name} {value:.6g} {per_layer_unit(name)}{note}")
    lines += [f"problem: {p}" for p in result["problems"]]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wproto" / "__init__.py").is_file():
        print(f"no wproto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    scenarios = [asdict(s) for s in workloads.generate(args.workload, args.seed)]
    job = {"scenarios": scenarios, "seconds": args.seconds, "trace": bool(args.trace),
           "kernel": workloads.KERNEL[args.workload],
           "spans_path": f".perfbench/spans-{args.workload}-seed{args.seed}.json"}
    try:
        setup = None
        if not args.trace:
            setup_seconds(scenarios, deadline, 1)  # writes the bytecode cache; discarded
            setup = setup_seconds(scenarios, deadline, SETUP_PROBES // 2)
        out = child([], job, deadline)
        if not args.trace:
            # Probes on both sides of the timed run, so a slow spell of the
            # host at either end moves the median less.
            setup += setup_seconds(scenarios, deadline, SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in result["layer"].items()}
        correct = result["failed"] == 0 and result["counts_repeat"]
    else:
        values = {k: result[k] for k in END_TO_END_UNITS if k != "setup_s"}
        values["setup_s"] = corrected_setup(setup)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        correct = result["failed"] == 0
    for line in summary_lines(args, result, setup):
        print(line)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
