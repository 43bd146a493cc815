"""Scenario runner: JSON config in, verified protocol reports out.

One JSON document describes a list of scenarios (or a single scenario
object); each scenario names a task — ``teleport``, ``sdc``, ``scan`` or
``entropy`` — a resource state, and its expectations.  The runner executes
every scenario deterministically (unknown-state grids are seed-derived and
echoed back), renders the results as machine-readable JSON or an aligned
text table, and exits 0 only when every scenario's verdict matches its
declared expectation.

JSON output is byte-stable: keys are sorted, reals carry 12 significant
digits, complex numbers appear as two-element [re, im] arrays, and nothing
time-dependent is included (wall time shows up in the table format only).

Flags: ``--config <path>``, ``--format json|table``, ``--out <path>``,
``--demo-sample --seed <u64>``.  Exit codes: 0 all expectations met,
1 verdict mismatch, 2 config error (including a resource larger than
``qsim.MAX_QUBITS``), 3 internal error: an exception escaped, and its
traceback is on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import __version__
from .qsim import MAX_QUBITS, STRUCTURAL_TOL, reduced_spectrum, spectrum_entropy
from .sdc import (
    EncodingSet,
    capacity_check,
    general_encoding_set,
    pauli_product_set,
    pauli_set,
    w4_multiunary_set,
)
from .teleport import (
    STRATEGIES,
    run_teleport_grid,
    run_teleport_one_qubit,
    unknown_state_grid,
)
from .wstates import (
    CoefficientVector,
    ConditionReport,
    UnsuitableResourceError,
    binary_entropy,
    cut_entropy,
    generalized_ghz,
    generalized_w,
    ghz_suitability_scan,
    modified_w_coefficients,
    suitability_scan,
    w_coefficients,
)

TASKS = ("teleport", "sdc", "scan", "entropy")
SDC_SETS = ("pauli", "w4", "generated", "full-products")
NAMED_STATES = ("w", "ghz", "modified-w")
DEFAULT_GRID_COUNT = 20
DEFAULT_GRID_SEED = 0
EXIT_INTERNAL_ERROR = 3


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every violated field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class Scenario:
    task: str
    state_kind: str                    # "named" | "coefficients"
    named: str | None
    n: int
    coefficients: np.ndarray | None    # complex, for W-family states
    ghz_a1: complex | None
    ghz_a2: complex | None
    m: int | None
    strategy: str | None
    set_name: str | None
    grid_count: int
    grid_seed: int
    expect: str
    echo: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    scenarios: list[Scenario]
    out: str | None


@dataclass
class RunReport:
    """Payload is the emission-ready report; wall time stays out of it so
    identical configs produce byte-identical JSON."""

    payload: dict
    wall_time_s: float
    all_matched: bool


def _as_complex(value: Any, where: str, errors: list[str]) -> complex:
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        # rejects NaN and infinities, and integer literals beyond the float range
        if all(abs(x) <= sys.float_info.max for x in value):
            return complex(value[0], value[1])
        errors.append(f"{where}: [re, im] must be finite numbers within the float range")
        return 0j
    errors.append(f"{where}: expected a two-element [re, im] array")
    return 0j


def _parse_state(obj: Any, where: str, errors: list[str]) -> dict:
    out = {"kind": None, "named": None, "n": 0, "coeffs": None, "a1": None, "a2": None}
    if not isinstance(obj, dict):
        errors.append(f"{where}: state must be an object")
        return out
    if "named" in obj:
        name = obj.get("named")
        if name not in NAMED_STATES:
            errors.append(f"{where}.named: must be one of {NAMED_STATES}")
            return out
        n = obj.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            errors.append(f"{where}.n: integer >= 2 required")
            return out
        if n > MAX_QUBITS:
            errors.append(f"{where}.n: {n} qubits exceed the qubit budget of {MAX_QUBITS}")
            return out
        out.update(kind="named", named=name, n=n)
        if name == "ghz":
            a1 = obj.get("a1")
            if a1 is None:
                out["a1"] = complex(1.0 / math.sqrt(2.0))
            else:
                out["a1"] = _as_complex(a1, f"{where}.a1", errors)
            a2 = obj.get("a2")
            if a2 is None:
                out["a2"] = complex(math.sqrt(max(0.0, 1.0 - abs(out["a1"]) ** 2)))
            else:
                out["a2"] = _as_complex(a2, f"{where}.a2", errors)
            total = abs(out["a1"]) ** 2 + abs(out["a2"]) ** 2
            if not abs(total - 1.0) <= STRUCTURAL_TOL:
                errors.append(
                    f"{where}: |a1|^2 + |a2|^2 = {total:.12g}"
                    f" (deficit {1.0 - total:.12g}); must be normalized"
                )
        elif "a1" in obj or "a2" in obj:
            errors.append(f"{where}: a1/a2 only apply to the ghz state")
        return out
    if "coefficients" in obj:
        raw = obj.get("coefficients")
        if not isinstance(raw, list) or len(raw) < 2:
            errors.append(f"{where}.coefficients: need a list of >= 2 [re, im] pairs")
            return out
        if len(raw) > MAX_QUBITS:
            errors.append(
                f"{where}.coefficients: {len(raw)} qubits exceed the qubit budget of {MAX_QUBITS}"
            )
            return out
        coeffs = np.array(
            [_as_complex(v, f"{where}.coefficients[{i}]", errors) for i, v in enumerate(raw)]
        )
        total = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(total - 1.0) <= STRUCTURAL_TOL:
            errors.append(
                f"{where}.coefficients: squared norm {total:.12g}"
                f" (deficit {1.0 - total:.12g}); must be normalized"
            )
        out.update(kind="coefficients", n=len(coeffs), coeffs=coeffs)
        return out
    errors.append(f"{where}: state needs either 'named' or 'coefficients'")
    return out


_SCENARIO_KEYS = {"task", "state", "m", "strategy", "set", "grid", "expect"}


def _parse_scenario(raw: Any, index: int, errors: list[str]) -> Scenario | None:
    where = f"scenario {index}"
    if not isinstance(raw, dict):
        errors.append(f"{where}: must be an object")
        return None
    for key in raw:
        if key not in _SCENARIO_KEYS:
            errors.append(f"{where}: unknown field {key!r}")
    task = raw.get("task")
    if task not in TASKS:
        errors.append(f"{where}.task: must be one of {TASKS}")
        return None
    before = len(errors)
    state = _parse_state(raw.get("state"), f"{where}.state", errors)
    if len(errors) > before:
        return None

    m = raw.get("m")
    strategy = raw.get("strategy")
    set_name = raw.get("set")
    grid = raw.get("grid")
    expect = raw.get("expect", "success")

    if expect not in ("success", "failure"):
        errors.append(f"{where}.expect: must be 'success' or 'failure'")
    if task in ("teleport", "sdc"):
        if state["kind"] == "named" and state["named"] == "ghz":
            errors.append(f"{where}: task {task!r} requires a W-family state")
        if not isinstance(m, int) or isinstance(m, bool) or not (1 <= m <= state["n"] - 1):
            errors.append(f"{where}.m: integer in 1..{state['n'] - 1} required")
            m = None
    elif m is not None:
        errors.append(f"{where}.m: only applies to teleport/sdc tasks")
    if task == "teleport":
        if strategy is None:
            strategy = "subspace"
        elif strategy not in STRATEGIES:
            errors.append(f"{where}.strategy: must be one of {STRATEGIES}")
    elif strategy is not None:
        errors.append(f"{where}.strategy: only applies to the teleport task")
    if task == "sdc":
        if set_name is None:
            set_name = "generated"
        elif set_name not in SDC_SETS:
            errors.append(f"{where}.set: must be one of {SDC_SETS}")
        if set_name == "pauli" and m is not None and m != 1:
            errors.append(f"{where}.set: 'pauli' encodes on one qubit (m=1)")
        if set_name in ("w4", "full-products") and m is not None and m != 2:
            errors.append(f"{where}.set: {set_name!r} encodes on two qubits (m=2)")
    elif set_name is not None:
        errors.append(f"{where}.set: only applies to the sdc task")
    grid_count, grid_seed = DEFAULT_GRID_COUNT, DEFAULT_GRID_SEED
    if task == "teleport":
        grid = {} if grid is None else grid
        if not isinstance(grid, dict):
            errors.append(f"{where}.grid: must be an object with count/seed")
        else:
            grid_count = grid.get("count", DEFAULT_GRID_COUNT)
            grid_seed = grid.get("seed", DEFAULT_GRID_SEED)
            if not isinstance(grid_count, int) or isinstance(grid_count, bool) or grid_count < 1:
                errors.append(f"{where}.grid.count: integer >= 1 required")
            if not isinstance(grid_seed, int) or isinstance(grid_seed, bool) or grid_seed < 0:
                errors.append(f"{where}.grid.seed: integer >= 0 required")
    elif grid is not None:
        errors.append(f"{where}.grid: only applies to the teleport task")

    scenario = Scenario(
        task=task,
        state_kind=state["kind"],
        named=state["named"],
        n=state["n"],
        coefficients=state["coeffs"],
        ghz_a1=state["a1"],
        ghz_a2=state["a2"],
        m=m,
        strategy=strategy if task == "teleport" else None,
        set_name=set_name if task == "sdc" else None,
        grid_count=grid_count,
        grid_seed=grid_seed,
        expect=expect,
    )
    scenario.echo = _echo_scenario(scenario)
    return scenario


def _echo_scenario(s: Scenario) -> dict:
    if s.state_kind == "named":
        state: dict[str, Any] = {"named": s.named, "n": s.n}
        if s.named == "ghz":
            state["a1"] = [s.ghz_a1.real, s.ghz_a1.imag]
            state["a2"] = [s.ghz_a2.real, s.ghz_a2.imag]
    else:
        state = {"coefficients": [[z.real, z.imag] for z in s.coefficients]}
    echo: dict[str, Any] = {"task": s.task, "state": state, "expect": s.expect}
    if s.task in ("teleport", "sdc"):
        echo["m"] = s.m
    if s.task == "teleport":
        echo["strategy"] = s.strategy
        echo["grid"] = {"count": s.grid_count, "seed": s.grid_seed}
    if s.task == "sdc":
        echo["set"] = s.set_name
    return echo


def parse_config(text: bytes | str) -> ScenarioConfig:
    """Validate a config document, aggregating every field violation."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError([f"config is not valid UTF-8: {exc}"]) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    errors: list[str] = []
    out_path = doc.get("out")
    if out_path is not None and not isinstance(out_path, str):
        errors.append("out: must be a string path")
        out_path = None
    if "scenarios" in doc:
        raw_list = doc["scenarios"]
        if not isinstance(raw_list, list):
            raise ConfigError(["scenarios: must be an array"])
        for key in doc:
            if key not in ("scenarios", "out"):
                errors.append(f"unknown top-level field {key!r}")
    else:
        raw_list = [doc]
    scenarios = []
    for i, raw in enumerate(raw_list):
        s = _parse_scenario(raw, i, errors)
        if s is not None:
            scenarios.append(s)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenarios=scenarios, out=out_path)


def _coefficient_vector(s: Scenario) -> CoefficientVector:
    if s.state_kind == "named":
        if s.named == "w":
            return w_coefficients(s.n)
        if s.named == "modified-w":
            return modified_w_coefficients(s.n)
        raise ValueError("not a W-family state")
    return CoefficientVector(s.coefficients)


def _state_label(s: Scenario) -> str:
    if s.state_kind == "named":
        return f"{s.named} (n={s.n})"
    return f"coefficients (n={s.n})"


def _split_sums(r: ConditionReport) -> dict:
    return {
        "m": r.partition_size,
        "left_sum": r.left_sum,
        "right_sum": r.right_sum,
        "residual": r.residual,
    }


def _run_scan(s: Scenario) -> tuple[dict, bool, str]:
    if s.named == "ghz":
        reports = ghz_suitability_scan(s.ghz_a1, s.ghz_a2, s.n)
    else:
        reports = suitability_scan(_coefficient_vector(s))
    rows = [{"holds": r.holds, **_split_sums(r)} for r in reports]
    holding = [r.partition_size for r in reports if r.holds]
    if holding:
        reason = f"partition(s) {holding} split half-and-half (unit entropy)"
    else:
        reason = "no partition satisfies the half-half split condition"
    return {"partitions": rows}, bool(holding), reason


def _run_teleport(s: Scenario) -> tuple[dict, bool, str]:
    c = _coefficient_vector(s)
    grid = unknown_state_grid(s.grid_count, s.grid_seed)
    results: dict[str, Any] = {
        "grid": {"count": s.grid_count, "seed": s.grid_seed},
        "strategy": s.strategy,
    }
    try:
        reports = run_teleport_grid(c, s.m, grid, s.strategy)
    except UnsuitableResourceError as exc:
        good = [r.partition_size for r in suitability_scan(c) if r.holds]
        reason = f"unsuitable resource: {exc} — " + (
            f"usable partition(s): {good}"
            if good
            else "no partition of this state satisfies the split condition"
        )
        if exc.report is not None:
            results["condition"] = _split_sums(exc.report)
        return results, False, reason
    worst = min(reports, key=lambda r: r.min_fidelity)
    results.update(
        runs=len(reports),
        min_fidelity=worst.min_fidelity,
        max_probability_deviation=max(r.probability_deviation for r in reports),
        outcome_labels=[o.label for o in reports[0].outcomes],
        classical_bits_sent=worst.classical_bits_sent,
    )
    if worst.success:
        return results, True, "every outcome of every run reproduced the input"
    return results, False, worst.reason


def _encoding_set(s: Scenario, c: CoefficientVector) -> EncodingSet:
    if s.set_name == "pauli":
        return EncodingSet.from_operators(pauli_set())
    if s.set_name == "w4":
        return w4_multiunary_set()
    if s.set_name == "full-products":
        return pauli_product_set(s.m)
    return general_encoding_set(c, s.m)


def _run_sdc(s: Scenario) -> tuple[dict, bool, str]:
    c = _coefficient_vector(s)
    results: dict[str, Any] = {"set": s.set_name}
    try:
        encoding = _encoding_set(s, c)
        capacity = capacity_check(c, s.m, encoding)
        results.update(
            set_size=capacity.set_size,
            bits=capacity.bits,
            decodable=capacity.decodable,
            subset_size=capacity.subset_size,
            exhaustive=capacity.exhaustive,
        )
        if capacity.decodable:
            reason = f"all {capacity.set_size} encoded states mutually orthogonal: {capacity.bits} cbits"
        else:
            qualifier = "exact" if capacity.exhaustive else "greedy lower bound"
            reason = (
                f"set is not fully decodable; largest orthogonal subset"
                f" {capacity.subset_size}/{capacity.set_size} ({qualifier})"
            )
        return results, capacity.decodable, reason
    except UnsuitableResourceError as exc:
        return results, False, f"unsuitable resource: {exc}"


def _run_entropy(s: Scenario) -> tuple[dict, bool, str]:
    if s.named == "ghz":
        state = generalized_ghz(s.ghz_a1, s.ghz_a2, s.n)
        closed = [binary_entropy(abs(s.ghz_a1) ** 2)] * (s.n - 1)
    else:
        c = _coefficient_vector(s)
        state = generalized_w(c)
        closed = [cut_entropy(c, x) for x in range(1, s.n)]
    rows = []
    for x, formula in enumerate(closed, 1):
        simulated = spectrum_entropy(reduced_spectrum(state, range(s.n - x + 1, s.n + 1)))
        match = abs(simulated - formula) <= STRUCTURAL_TOL
        rows.append({"x": x, "simulated": simulated, "formula": formula, "match": match})
    if all(row["match"] for row in rows):
        return {"rows": rows}, True, "simulated bipartition entropies match the closed form"
    return {"rows": rows}, False, "simulated entropy deviates from the closed form"


_RUNNERS = {
    "scan": _run_scan,
    "teleport": _run_teleport,
    "sdc": _run_sdc,
    "entropy": _run_entropy,
}


def run(config: ScenarioConfig) -> RunReport:
    """Execute every scenario; deterministic given the config."""
    start = time.perf_counter()
    entries = []
    all_matched = True
    for index, scenario in enumerate(config.scenarios):
        results, success, reason = _RUNNERS[scenario.task](scenario)
        matched = success == (scenario.expect == "success")
        all_matched = all_matched and matched
        entries.append(
            {
                "index": index,
                "task": scenario.task,
                "state": _state_label(scenario),
                "config": scenario.echo,
                "results": results,
                "verdict": {"success": success, "reason": reason},
                "matched": matched,
            }
        )
    payload = {
        "tool": {"name": "wproto", "version": __version__},
        "scenarios": entries,
        "all_matched": all_matched,
    }
    return RunReport(
        payload=payload,
        wall_time_s=time.perf_counter() - start,
        all_matched=all_matched,
    )


def _round_floats(obj: Any) -> Any:
    """Clamp reals to 12 significant digits for stable emission."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(report: RunReport, fmt: str = "json") -> bytes:
    """Render a report as stable JSON or an aligned text table."""
    if fmt == "json":
        text = json.dumps(_round_floats(report.payload), sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'table'")
    lines = [
        f"wproto {__version__} — scenario report",
        f"wall time: {report.wall_time_s:.3f} s",
        "",
    ]
    for entry in report.payload["scenarios"]:
        verdict = entry["verdict"]
        status = "SUCCESS" if verdict["success"] else "FAILURE"
        match = "as expected" if entry["matched"] else "EXPECTATION MISMATCH"
        lines.append(
            f"[{entry['index']}] {entry['task']:<8} {entry['state']:<24}"
            f" verdict: {status} ({match})"
        )
        lines.append(f"    {verdict['reason']}")
        results = entry["results"]
        for row in results.get("partitions", []):
            lines.append(
                f"    m={row['m']}  holds={str(row['holds']).lower():<5}"
                f"  left={row['left_sum']:.12f}  right={row['right_sum']:.12f}"
            )
        for row in results.get("rows", []):
            lines.append(
                f"    x={row['x']}  simulated={row['simulated']:.12f}"
                f"  formula={row['formula']:.12f}  match={str(row['match']).lower()}"
            )
        if "min_fidelity" in results:
            lines.append(
                f"    runs={results['runs']}  strategy={results['strategy']}"
                f"  min_fidelity={results['min_fidelity']:.12f}"
                f"  max_prob_dev={results['max_probability_deviation']:.3e}"
            )
        if "bits" in results:
            lines.append(
                f"    set={results['set']}  size={results['set_size']}"
                f"  bits={results['bits']}  decodable={str(results['decodable']).lower()}"
            )
        lines.append("")
    overall = "ALL EXPECTATIONS MET" if report.all_matched else "EXPECTATION MISMATCHES"
    lines.append(overall)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _demo_narration(config: ScenarioConfig, seed: int) -> str:
    """Seeded single-shot narration for humans (table output only)."""
    rng = np.random.default_rng(seed)
    lines = [f"single-shot demo (seed={seed}):"]
    sampled = False
    for index, scenario in enumerate(config.scenarios):
        if scenario.task != "teleport":
            continue
        try:
            c = _coefficient_vector(scenario)
            psi = unknown_state_grid(1, scenario.grid_seed)[0]
            report = run_teleport_one_qubit(c, scenario.m, psi, scenario.strategy)
        except UnsuitableResourceError:
            continue
        probs = np.array([o.probability for o in report.outcomes])
        pick = int(rng.choice(len(probs), p=probs / probs.sum()))
        outcome = report.outcomes[pick]
        lines.append(
            f"  scenario {index}: measured '{outcome.label}'"
            f" (p={outcome.probability:.4f}); after the correction the"
            f" receiver holds the input with fidelity"
            f" {report.fidelities[outcome.label]:.9f}"
        )
        sampled = True
    if not sampled:
        lines.append("  (no runnable teleport scenario to sample)")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wproto",
        description="Verify teleportation and superdense coding over W-class resources.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON scenario config")
    parser.add_argument("--format", choices=("json", "table"), default="table")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--demo-sample",
        action="store_true",
        help="append a seeded single-shot measurement narration (table format only)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for --demo-sample")
    args = parser.parse_args(argv)
    try:
        return _main(args)
    except Exception as exc:
        # exit 1 means "verdict mismatch"; an escaped exception is never one
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _main(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    report = run(config)
    output = emit(report, args.format)
    if args.demo_sample:
        if args.format == "table":
            output += _demo_narration(config, args.seed).encode("utf-8")
        else:
            print("demo sampling is excluded from json output", file=sys.stderr)

    out_path = args.out or config.out
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(output)
    else:
        sys.stdout.buffer.write(output)
        sys.stdout.buffer.flush()
    return 0 if report.all_matched else 1


if __name__ == "__main__":
    sys.exit(main())
