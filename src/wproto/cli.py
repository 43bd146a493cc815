"""Scenario runner: JSON config in, verified protocol reports out.

One JSON document describes a list of scenarios (or a single scenario
object); each scenario names a task — ``teleport``, ``sdc``, ``scan`` or
``entropy`` — a resource state, and its expectations.  ``TASK_FIELDS``
lists the fields each task takes and their defaults; any other field, at
the top of a scenario or inside its ``state`` or ``grid``, is a config
error.  Parsing builds each resource once and echoes the config with its
defaults filled in.  The runner executes every scenario deterministically
(unknown-state grids are seed-derived and echoed back), renders the
results as machine-readable JSON or an aligned text table, and exits 0
only when every scenario's verdict matches its declared expectation.

JSON output is byte-stable: keys are sorted, reals carry 12 significant
digits, complex numbers appear as two-element [re, im] arrays, and nothing
time-dependent is included (wall time shows up in the table format only).

Flags: ``--config <path>``, ``--format json|table``, ``--out <path>``,
``--demo-sample --seed <u64>``.  Exit codes: 0 all expectations met,
1 verdict mismatch, 2 config error (including a resource larger than
``qsim.MAX_QUBITS``, or an sdc set or teleport grid over
``MAX_SET_AMPLITUDES``), bad flag (a negative ``--seed``) or unwritable
report path, 3 internal error: an exception escaped, and its traceback is
on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from . import __version__
from .qsim import MAX_QUBITS, NormalizationError
from .sdc import ENCODING_SETS, capacity_check
from .teleport import (
    STRATEGIES,
    outcome_shape,
    require_condition,
    run_teleport_grid,
    run_teleport_one_qubit,
    unknown_state_grid,
)
from .wstates import (
    CoefficientVector,
    ConditionReport,
    UnsuitableResourceError,
    entropy_scan,
    ghz_condition,
    ghz_entropy_scan,
    ghz_suitability_scan,
    modified_w_coefficients,
    suitability_scan,
    w_coefficients,
)

TASKS = ("teleport", "sdc", "scan", "entropy")
DEFAULT_GRID_COUNT = 20
DEFAULT_GRID_SEED = 0
# The optional fields of each task and the value a missing or null field
# takes; m has no default, so a teleport or sdc scenario must give it.
TASK_FIELDS = {
    "teleport": {
        "m": None,
        "strategy": "subspace",
        "grid": {"count": DEFAULT_GRID_COUNT, "seed": DEFAULT_GRID_SEED},
    },
    "sdc": {"m": None, "set": "generated"},
    "scan": {},
    "entropy": {},
}
#: per-scenario budget: count(m) * 4**m, the entries an sdc set's operators would
#: take as dense matrices (`generated` fits up to m = 8); a capacity check holds
#: N = count(m) states of 2^(m+1) amplitudes and an N x N Gram matrix (2^19 at that
#: m).  It also bounds a teleport grid report's amplitudes, plus 32 per outcome (p, F)
MAX_SET_AMPLITUDES = 2**25
CHOICES = {"strategy": STRATEGIES, "set": tuple(ENCODING_SETS), "expect": ("success", "failure")}
W_FAMILY = {"w": w_coefficients, "modified-w": modified_w_coefficients}
NAMED_STATES = ("w", "ghz", "modified-w")
STATE_FIELDS = {"named": ("named", "n", "a1", "a2"), "coefficients": ("coefficients",)}
EXIT_INTERNAL_ERROR = 3


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every violated field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class Scenario:
    """A validated scenario.  ``resource`` is built at parse time: the
    CoefficientVector of a W-family state, or the (a1, a2) pair of a GHZ
    state.  ``echo`` is the config with every default filled in; the
    runners read the task's fields from it."""

    task: str
    n: int
    resource: CoefficientVector | tuple[complex, complex]
    label: str
    echo: dict


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


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _present(obj: dict) -> dict:
    """``obj`` without its null fields: a null field is an absent one."""
    return {key: value for key, value in obj.items() if value is not None}


def _reject_unknown(obj: dict, known, where: str, errors: list[str]) -> None:
    errors += [f"{where}: unknown field {key!r}" for key in obj if key not in known]


def _as_complex(value: Any, where: str, errors: list[str]) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        errors.append(f"{where}: expected a two-element [re, im] array")
    elif all(abs(x) <= sys.float_info.max for x in value):  # no NaN, inf or int past the float range
        return complex(value[0], value[1])
    else:
        errors.append(f"{where}: [re, im] must be finite numbers within the float range")
    return 0j


def _parse_state(obj: Any, where: str, errors: list[str]) -> tuple[Any, int, dict] | None:
    """The resource a state object names, its qubit count and its echo."""
    if not isinstance(obj, dict):
        errors.append(f"{where}: state must be an object")
        return None
    obj = _present(obj)
    kinds = [kind for kind in STATE_FIELDS if kind in obj]
    if len(kinds) != 1:
        errors.append(f"{where}: state needs exactly one of 'named' or 'coefficients'")
        return None
    _reject_unknown(obj, STATE_FIELDS[kinds[0]], where, errors)
    if kinds == ["coefficients"]:
        return _coefficient_state(obj["coefficients"], where, errors)
    name, n = obj["named"], obj.get("n")
    if name not in NAMED_STATES:
        errors.append(f"{where}.named: must be one of {NAMED_STATES}")
        return None
    if not _is_int(n) or n < 2:
        errors.append(f"{where}.n: integer >= 2 required")
        return None
    if n > MAX_QUBITS:
        errors.append(f"{where}.n: {n} qubits exceed the qubit budget of {MAX_QUBITS}")
        return None
    if name != "ghz":
        if "a1" in obj or "a2" in obj:
            errors.append(f"{where}: a1/a2 only apply to the ghz state")
        return W_FAMILY[name](n), n, {"named": name, "n": n}
    a1 = _as_complex(obj.get("a1", [1.0 / math.sqrt(2.0), 0.0]), f"{where}.a1", errors)
    r = math.hypot(a1.real, a1.imag)  # |a1|: abs(a1) raises OverflowError past the float range
    fill = [math.sqrt(1.0 - r**2) if r < 1.0 else 0.0, 0.0]
    a2 = _as_complex(obj.get("a2", fill), f"{where}.a2", errors)
    try:
        ghz_condition(a1, a2)
    except NormalizationError as exc:
        errors.append(f"{where}: {exc}")
    echo = {"named": name, "n": n, "a1": [a1.real, a1.imag], "a2": [a2.real, a2.imag]}
    return (a1, a2), n, echo


def _coefficient_state(raw: Any, where: str, errors: list[str]) -> tuple[Any, int, dict] | None:
    if not isinstance(raw, list) or len(raw) < 2:
        errors.append(f"{where}.coefficients: need a list of >= 2 [re, im] pairs")
        return None
    if len(raw) > MAX_QUBITS:
        errors.append(
            f"{where}.coefficients: {len(raw)} qubits exceed the qubit budget of {MAX_QUBITS}"
        )
        return None
    # [re, im] pairs of finite JSON numbers (no bools) in one pass; anything else item by item
    flat = [x for v in raw if type(v) is list and len(v) == 2 for x in v
            if type(x) is float or type(x) is int and abs(x) <= sys.float_info.max]
    pairs = np.array(flat, dtype=np.float64)
    if len(flat) == 2 * len(raw) and np.isfinite(pairs).all():
        coeffs = pairs.view(np.complex128)
    else:
        coeffs = [_as_complex(v, f"{where}.coefficients[{i}]", errors) for i, v in enumerate(raw)]
    try:
        c = CoefficientVector(coeffs)
    except NormalizationError as exc:
        errors.append(f"{where}.coefficients: {exc}")
        return None
    return c, c.n, {"coefficients": c.coeffs.view(np.float64).reshape(-1, 2).tolist()}


def _parse_scenario(raw: Any, index: int, errors: list[str]) -> Scenario | None:
    where = f"scenario {index}"
    if not isinstance(raw, dict):
        errors.append(f"{where}: must be an object")
        return None
    raw = _present(raw)
    task = raw.get("task")
    fields = TASK_FIELDS[task] if task in TASKS else {}
    for key in raw:
        if key in ("task", "state", "expect") or key in fields:
            continue
        users = [name for name, optional in TASK_FIELDS.items() if key in optional]
        if not users:
            errors.append(f"{where}: unknown field {key!r}")
        elif task in TASKS:
            errors.append(f"{where}.{key}: only applies to the {' or '.join(users)} task")
    if task not in TASKS:
        errors.append(f"{where}.task: must be one of {TASKS}")
        return None
    before = len(errors)
    state = _parse_state(raw.get("state"), f"{where}.state", errors)
    if len(errors) > before:
        return None
    resource, n, state_echo = state

    echo = {key: raw.get(key, value) for key, value in fields.items()}
    echo.update(task=task, state=state_echo, expect=raw.get("expect", "success"))
    for key, choices in CHOICES.items():
        if key in echo and echo[key] not in choices:
            errors.append(f"{where}.{key}: must be one of {choices}")
    if "m" in echo:
        m = echo["m"]
        if not isinstance(resource, CoefficientVector):
            errors.append(f"{where}: task {task!r} requires a W-family state")
        if not _is_int(m) or not 1 <= m <= n - 1:
            errors.append(f"{where}.m: integer in 1..{n - 1} required")
        elif echo.get("set") in CHOICES["set"]:
            arity, count, _ = ENCODING_SETS[echo["set"]]
            amplitudes = count(m) * 4**m
            if arity not in (None, m):
                errors.append(f"{where}.set: {echo['set']!r} encodes on m={arity} only")
            elif amplitudes > MAX_SET_AMPLITUDES:
                errors.append(
                    f"{where}.m: the {echo['set']!r} set at m={m} holds {count(m)}"
                    f" operators of {2**m}x{2**m} ({amplitudes} entries), over the"
                    f" operator budget of {MAX_SET_AMPLITUDES}"
                )
    if "grid" in echo:
        grid = echo["grid"]
        if not isinstance(grid, dict):
            errors.append(f"{where}.grid: must be an object with count/seed")
            return None
        grid = _present(grid)
        _reject_unknown(grid, fields["grid"], f"{where}.grid", errors)
        echo["grid"] = grid = {**fields["grid"], **grid}
        for key, low in (("count", 1), ("seed", 0)):
            if not _is_int(grid[key]) or grid[key] < low:
                errors.append(f"{where}.grid.{key}: integer >= {low} required")
        if len(errors) == before:  # the report keeps a (2^q,) state per run and outcome
            outcomes, q = outcome_shape(echo["m"], echo["strategy"])
            kept = grid["count"] * outcomes * (2**q + 32)
            if kept > MAX_SET_AMPLITUDES:
                errors.append(
                    f"{where}.grid.count: {grid['count']} runs of {outcomes} outcomes"
                    f" keep {kept} amplitudes, over the budget of {MAX_SET_AMPLITUDES}"
                )
    label = f"{state_echo.get('named', 'coefficients')} (n={n})"
    return Scenario(task=task, n=n, resource=resource, label=label, echo=echo)


def parse_config(text: bytes | str) -> ScenarioConfig:
    """Validate a config document, aggregating every field violation."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError([f"config is not valid UTF-8: {exc}"]) from None
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])
    errors: list[str] = []
    out_path = None
    if "scenarios" in doc:
        raw_list = doc["scenarios"]
        if not isinstance(raw_list, list):
            raise ConfigError(["scenarios: must be an array"])
        out_path = doc.get("out")
        if out_path is not None and not isinstance(out_path, str):
            errors.append("out: must be a string path")
            out_path = None
        _reject_unknown(doc, ("scenarios", "out"), "config", errors)
    else:  # a single scenario; only the list form carries "out"
        raw_list = [doc]
    scenarios = []
    for i, raw in enumerate(raw_list):
        s = _parse_scenario(raw, i, errors)
        if s is not None:
            scenarios.append(s)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenarios=scenarios, out=out_path)


def _split_sums(r: ConditionReport) -> dict:
    return {
        "m": r.partition_size,
        "left_sum": r.left_sum,
        "right_sum": r.right_sum,
        "residual": r.residual,
    }


def _run_scan(s: Scenario) -> tuple[dict, bool, str]:
    if isinstance(s.resource, CoefficientVector):
        reports = suitability_scan(s.resource)
    else:
        reports = ghz_suitability_scan(*s.resource, s.n)
    rows = [{"holds": r.holds, **_split_sums(r)} for r in reports]
    holding = [r.partition_size for r in reports if r.holds]
    if holding:
        reason = f"partition(s) {holding} split half-and-half (unit entropy)"
    else:
        reason = "no partition satisfies the half-half split condition"
    return {"partitions": rows}, bool(holding), reason


def _run_teleport(s: Scenario) -> tuple[dict, bool, str]:
    c, m, strategy, grid = s.resource, s.echo["m"], s.echo["strategy"], s.echo["grid"]
    results: dict[str, Any] = {"grid": dict(grid), "strategy": strategy}
    try:
        require_condition(c, m)  # before the grid is built: a refusal names the sums
        states = unknown_state_grid(grid["count"], grid["seed"])
        report = run_teleport_grid(c, m, states, strategy)
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
    results.update(
        runs=len(report.probabilities),
        min_fidelity=report.min_fidelity,
        max_probability_deviation=report.probability_deviation,
        outcome_labels=list(report.labels),
        classical_bits_sent=report.classical_bits_sent,
    )
    if report.success:
        return results, True, "every outcome of every run reproduced the input"
    return results, False, report.reason


def _run_sdc(s: Scenario) -> tuple[dict, bool, str]:
    c, m, name = s.resource, s.echo["m"], s.echo["set"]
    results: dict[str, Any] = {"set": name}
    try:
        require_condition(c, m)  # before the set is built: a refusal names the sums
        capacity = capacity_check(c, m, ENCODING_SETS[name][2](c, m))
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
    if isinstance(s.resource, CoefficientVector):
        scan = entropy_scan(s.resource)
    else:
        scan = ghz_entropy_scan(*s.resource, s.n)
    rows = [dict(zip(("x", "simulated", "formula", "match"), row)) for row in scan]
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
        matched = success == (scenario.echo["expect"] == "success")
        all_matched = all_matched and matched
        entries.append(
            {
                "index": index,
                "task": scenario.task,
                "state": scenario.label,
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


def _write_json(obj: Any, out: list[str], indent: str = "") -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(obj, sort_keys=True, indent=2)``
    writes it at depth ``indent``, each real first clamped to 12 significant digits."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        x = float(f"{obj:.12g}")
        out.append(repr(x) if math.isfinite(x) else "NaN" if x != x else "Infinity" if x > 0
                   else "-Infinity")
    elif not (isinstance(obj, (dict, list, tuple)) and obj):
        out.append(json.dumps(obj))  # an empty container, or json's TypeError for any other type
    else:
        inner, is_dict = indent + "  ", isinstance(obj, dict)
        for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
            out.append((",\n" if i else "{\n" if is_dict else "[\n") + inner)
            if is_dict:  # json's own rule converts or refuses a key that is not a str
                key, item = item
                out.append((encode_basestring_ascii(key) if isinstance(key, str)
                            else json.dumps({key: 0})[1:-4]) + ": ")
            _write_json(item, out, inner)
        out.append("\n" + indent + ("}" if is_dict else "]"))


def emit(report: RunReport, fmt: str = "json") -> bytes:
    """Render a report as stable JSON or an aligned text table."""
    if fmt == "json":
        out: list[str] = []
        _write_json(report.payload, out)
        return "".join(out + ["\n"]).encode("utf-8")
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
            echo = scenario.echo
            psi = unknown_state_grid(1, echo["grid"]["seed"])[0]
            report = run_teleport_one_qubit(scenario.resource, echo["m"], psi, echo["strategy"])
        except UnsuitableResourceError:
            continue
        probs = report.probabilities[0]
        pick = int(rng.choice(len(probs), p=probs / probs.sum()))
        lines.append(
            f"  scenario {index}: measured '{report.labels[pick]}'"
            f" (p={probs[pick]:.4f}); after the correction the"
            f" receiver holds the input with fidelity"
            f" {report.fidelities[0, pick]:.9f}"
        )
        sampled = True
    if not sampled:
        lines.append("  (no runnable teleport scenario to sample)")
    return "\n".join(lines) + "\n"


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only integers >= 0."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return int(text)


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
    parser.add_argument("--seed", type=_seed, default=0, help="seed for --demo-sample")
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
    out_path = args.out or config.out
    # fail before running; "ab" leaves an existing report's bytes alone
    if out_path and not _write_report(out_path, b"", "ab"):
        return 2

    report = run(config)
    output = emit(report, args.format)
    if args.demo_sample:
        if args.format == "table":
            output += _demo_narration(config, args.seed).encode("utf-8")
        else:
            print("demo sampling is excluded from json output", file=sys.stderr)

    if out_path:
        if not _write_report(out_path, output, "wb"):
            return 2
    else:
        sys.stdout.buffer.write(output)
        sys.stdout.buffer.flush()
    return 0 if report.all_matched else 1


def _write_report(path: str, data: bytes, mode: str) -> bool:
    """Write ``data`` to ``path``; on failure say so on stderr."""
    try:
        with open(path, mode) as fh:
            fh.write(data)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
