"""Output checks: a report passes only if it shows the work was really done.

Each check compares wproto's emitted JSON with the expectation the
generator derived on its own (see ``workloads.py``).  Emitted reals carry
12 significant digits, so sums are compared within ``VALUE_TOL``.
"""

from __future__ import annotations

import json
import math

VALUE_TOL = 1e-10
ENTROPY_TOL = 1e-9
FIDELITY_FLOOR = 1.0 - 1e-9


def check(report: bytes, expect: dict) -> list[str]:
    """Problems found in one single-scenario report; empty when it passes."""
    try:
        return _check(json.loads(report), expect)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report does not have the expected shape: {exc!r}"]


def _check(doc: dict, expect: dict) -> list[str]:
    entries = doc.get("scenarios", [])
    if len(entries) != 1:
        return [f"expected one scenario entry, got {len(entries)}"]
    entry = entries[0]
    problems = []
    success = entry["verdict"]["success"]
    if success != expect["success"]:
        problems.append(f"verdict success={success}, expected {expect['success']}")
    if not (entry["matched"] and doc["all_matched"]):
        problems.append("report says the verdict did not match the config's expect")
    problems += _TASK_CHECKS[expect["task"]](entry["results"], entry, expect)
    return problems


def _close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol


def _check_scan(results: dict, entry: dict, expect: dict) -> list[str]:
    rows = results["partitions"]
    if len(rows) != len(expect["rows"]):
        return [f"scan has {len(rows)} partitions, expected {len(expect['rows'])}"]
    problems = []
    for m, (row, (left, right, holds)) in enumerate(zip(rows, expect["rows"]), 1):
        if row["m"] != m or row["holds"] != holds:
            problems.append(f"scan m={m}: holds={row['holds']}, split sums say {holds}")
        if not (_close(row["left_sum"], left) and _close(row["right_sum"], right)):
            problems.append(f"scan m={m}: sums {row['left_sum']}/{row['right_sum']}"
                            f" differ from {left}/{right}")
    return problems


def _check_entropy(results: dict, entry: dict, expect: dict) -> list[str]:
    rows = results["rows"]
    if len(rows) != len(expect["rows"]):
        return [f"entropy has {len(rows)} rows, expected {len(expect['rows'])}"]
    return [
        f"entropy x={row['x']}: simulated {row['simulated']}, closed form {h}"
        for x, (row, h) in enumerate(zip(rows, expect["rows"]), 1)
        if row["x"] != x or not _close(row["simulated"], h, ENTROPY_TOL)
    ]


def _check_teleport(results: dict, entry: dict, expect: dict) -> list[str]:
    reason = entry["verdict"]["reason"]
    if not expect["success"]:
        problems = []
        cond = results.get("condition")
        if cond is None or not (_close(cond["left_sum"], expect["left"])
                                and _close(cond["right_sum"], expect["right"])):
            problems.append(f"rejection condition {cond} does not match the split sums")
        usable = expect["usable"]
        wanted = f"usable partition(s): {usable}" if usable else "no partition of this state"
        if wanted not in reason:
            problems.append(f"rejection reason {reason!r} lacks {wanted!r}")
        return problems
    labels = 16 if expect["strategy"] == "serial" else 4
    problems = []
    if not results.get("min_fidelity", -1.0) >= FIDELITY_FLOOR:
        problems.append(f"min_fidelity {results.get('min_fidelity')} below 1-1e-9")
    if results.get("runs") != expect["grid_count"]:
        problems.append(f"runs={results.get('runs')}, grid count {expect['grid_count']}")
    if len(results.get("outcome_labels", [])) != labels:
        problems.append(f"{len(results.get('outcome_labels', []))} outcome labels,"
                        f" expected {labels}")
    return problems


def _check_sdc(results: dict, entry: dict, expect: dict) -> list[str]:
    if not expect["holds"]:
        reason = entry["verdict"]["reason"]
        if not reason.startswith("unsuitable resource"):
            return [f"unsuitable resource not rejected as such: {reason!r}"]
        return []
    size = expect["set_size"]
    if results.get("set_size") != size:
        return [f"set_size={results.get('set_size')}, expected {size}"]
    if expect["success"]:
        if results["bits"] != int(math.log2(size)) or results["subset_size"] != size:
            return [f"decodable set of {size} reports bits={results['bits']},"
                    f" subset={results['subset_size']}"]
        return []
    subset = results["subset_size"]
    if subset > expect["rank_bound"] or results["bits"] != int(math.log2(subset)):
        return [f"undecodable set: subset {subset} exceeds rank bound"
                f" {expect['rank_bound']} or bits={results['bits']} inconsistent"]
    return []


_TASK_CHECKS = {
    "scan": _check_scan,
    "entropy": _check_entropy,
    "teleport": _check_teleport,
    "sdc": _check_sdc,
}
