"""Seeded scenario generator with independently derived expectations.

Every input is drawn here with the benchmark's own numpy code and reaches
wproto only as config text (coefficients as ``[re, im]`` pairs).  Every
expectation is derived here from split sums and closed forms computed
without wproto; draws are never filtered.  Sizes are fixed per workload, so
the seed changes the data (coefficients, grid seeds) but not the amount of
work, which keeps runs with different seeds comparable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: split-condition tolerance documented by wproto (README "Conventions")
SPLIT_TOL = 1e-10
GRID_COUNT = 20


@dataclass(frozen=True)
class Scenario:
    """One request: the config document and what its report must say."""

    doc: str
    expect: dict


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p)) - ((1.0 - p) * math.log2(1.0 - p))


def split_sums(weights: list[float], m: int) -> tuple[float, float, bool]:
    """(left, right, holds) for the cut "last m qubits vs the rest"."""
    n = len(weights)
    left = math.fsum(weights[: n - m])
    right = math.fsum(weights[n - m :])
    holds = abs(left - right) < SPLIT_TOL and abs(left - 0.5) < SPLIT_TOL
    return left, right, holds


# -- resources ------------------------------------------------------------
# A W-class resource is (state config object, squared coefficient weights).


def named_w(n: int) -> tuple[dict, list[float]]:
    return {"named": "w", "n": n}, [1.0 / n] * n


def named_modified_w(n: int) -> tuple[dict, list[float]]:
    rest = 1.0 / (2.0 * (n - 1))
    return {"named": "modified-w", "n": n}, [rest] * (n - 1) + [0.5]


def _coefficients(z: np.ndarray) -> tuple[dict, list[float]]:
    pairs = [[float(v.real), float(v.imag)] for v in z]
    return {"coefficients": pairs}, [re * re + im * im for re, im in pairs]


def balanced(rng: np.random.Generator, n: int, m: int) -> tuple[dict, list[float]]:
    """Gaussian complex coefficients, each block rescaled to squared norm 1/2."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z[: n - m] /= math.sqrt(2.0) * np.linalg.norm(z[: n - m])
    z[n - m :] /= math.sqrt(2.0) * np.linalg.norm(z[n - m :])
    return _coefficients(z)


def generic(rng: np.random.Generator, n: int) -> tuple[dict, list[float]]:
    """Gaussian complex coefficients, normalized as a whole (unbalanced)."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return _coefficients(z / np.linalg.norm(z))


# -- scenarios ------------------------------------------------------------


def _scenario(doc: dict, expect: dict) -> Scenario:
    doc["expect"] = "success" if expect["success"] else "failure"
    return Scenario(json.dumps(doc), expect)


def scan(resource: tuple[dict, list[float]]) -> Scenario:
    state, weights = resource
    rows = [split_sums(weights, m) for m in range(1, len(weights))]
    return _scenario(
        {"task": "scan", "state": state},
        {"task": "scan", "rows": rows, "success": any(r[2] for r in rows)},
    )


def ghz_scan(n: int, a1: float) -> Scenario:
    p = a1 * a1
    holds = abs(p - (1.0 - p)) < SPLIT_TOL and abs(p - 0.5) < SPLIT_TOL
    rows = [(p, 1.0 - p, holds)] * (n - 1)
    return _scenario(
        {"task": "scan", "state": {"named": "ghz", "n": n, "a1": [a1, 0.0]}},
        {"task": "scan", "rows": rows, "success": holds},
    )


def entropy(resource: tuple[dict, list[float]]) -> Scenario:
    """Entropy of the last x qubits is H(weight of the last x coefficients)."""
    state, weights = resource
    n = len(weights)
    rows = [binary_entropy(math.fsum(weights[n - x :])) for x in range(1, n)]
    return _scenario(
        {"task": "entropy", "state": state},
        {"task": "entropy", "rows": rows, "success": True},
    )


def ghz_entropy(n: int) -> Scenario:
    return _scenario(
        {"task": "entropy", "state": {"named": "ghz", "n": n}},
        {"task": "entropy", "rows": [1.0] * (n - 1), "success": True},
    )


def _usable(weights: list[float]) -> list[int]:
    return [m for m in range(1, len(weights)) if split_sums(weights, m)[2]]


def teleport(
    resource: tuple[dict, list[float]], m: int, strategy: str, grid_seed: int,
    grid_count: int = GRID_COUNT,
) -> Scenario:
    state, weights = resource
    left, right, holds = split_sums(weights, m)
    return _scenario(
        {"task": "teleport", "state": state, "m": m, "strategy": strategy,
         "grid": {"count": grid_count, "seed": grid_seed}},
        {"task": "teleport", "success": holds, "strategy": strategy,
         "grid_count": grid_count, "left": left, "right": right,
         "usable": _usable(weights)},
    )


def sdc(resource: tuple[dict, list[float]], m: int, set_name: str) -> Scenario:
    """Decodable iff the split holds at m and the set fits the rank bound.

    A W-class state has Schmidt rank 2 across any cut, so local operators on
    m qubits reach at most 2^(m+1) orthogonal states.
    """
    state, weights = resource
    holds = split_sums(weights, m)[2]
    size = {"pauli": 4, "w4": 8, "generated": 2 ** (m + 1), "full-products": 4**m}[set_name]
    return _scenario(
        {"task": "sdc", "state": state, "m": m, "set": set_name},
        {"task": "sdc", "success": holds and size <= 2 ** (m + 1),
         "holds": holds, "set_size": size, "rank_bound": 2 ** (m + 1)},
    )


# -- workloads ------------------------------------------------------------


def _grid_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def acceptance(rng: np.random.Generator) -> list[Scenario]:
    """The 16 scenarios of configs/acceptance.json, grid seeds redrawn."""
    w, modified_w = named_w, named_modified_w
    return [
        scan(modified_w(3)),
        scan(w(4)),
        scan(w(5)),
        ghz_scan(4, 0.5773502691896258),
        teleport(modified_w(3), 1, "subspace", _grid_seed(rng)),
        teleport(w(4), 2, "transfer", _grid_seed(rng)),
        teleport(w(4), 2, "serial", _grid_seed(rng)),
        teleport(w(6), 3, "serial", _grid_seed(rng), grid_count=10),
        teleport(w(5), 2, "subspace", _grid_seed(rng), grid_count=5),
        sdc(modified_w(3), 1, "pauli"),
        sdc(w(4), 2, "w4"),
        sdc(w(6), 3, "generated"),
        sdc(w(4), 2, "full-products"),
        entropy(w(6)),
        entropy(w(9)),
        ghz_entropy(5),
    ]


def protocols_large(rng: np.random.Generator) -> list[Scenario]:
    """Suitable resources only: the success path of every strategy.

    25 requests per pass, so the median and the 90th percentile fall inside
    a group of similar requests rather than on the edge between two groups.
    """
    out = []
    for n, m in ((9, 4), (10, 5), (11, 5), (12, 6), (13, 6)):
        resource = named_w(n) if n % 2 == 0 else balanced(rng, n, m)
        for strategy in ("subspace", "transfer", "serial"):
            out.append(teleport(resource, m, strategy, _grid_seed(rng)))
    # n = 14 transfer alone costs ~2.6 s; subspace and serial keep n = 14.
    out.append(teleport(named_w(14), 7, "subspace", _grid_seed(rng)))
    out.append(teleport(named_w(14), 7, "serial", _grid_seed(rng)))
    out.append(teleport(named_w(16), 8, "serial", _grid_seed(rng)))
    out.append(sdc(named_w(6), 3, "generated"))
    out.append(sdc(balanced(rng, 7, 3), 3, "generated"))
    out.append(sdc(balanced(rng, 9, 4), 4, "generated"))
    out.append(sdc(named_w(10), 5, "generated"))
    out.append(sdc(balanced(rng, 11, 5), 5, "generated"))
    out.append(sdc(balanced(rng, 13, 6), 6, "generated"))
    out.append(sdc(balanced(rng, 7, 2), 2, "full-products"))
    return out


def detect_large(rng: np.random.Generator) -> list[Scenario]:
    """Reduced-state and rejection path: entropies, scans, refused protocols.

    Six cheap requests (n <= 9 or refused sdc), six at n = 10 and three at
    n = 11, so the median and the 90th percentile fall inside a group of
    similar requests rather than on the edge between two groups.  One
    refused teleport uses a resource that is balanced at another cut, so
    its rejection must name that cut.
    """
    out = [sdc(generic(rng, 9), 1, "pauli"), sdc(generic(rng, 10), 2, "w4"),
           sdc(generic(rng, 11), 2, "full-products")]
    out += [scan(named_w(9)), entropy(generic(rng, 9)),
            teleport(generic(rng, 9), 4, "subspace", _grid_seed(rng))]
    out += [scan(named_w(10)), scan(generic(rng, 10)),
            entropy(named_w(10)), entropy(generic(rng, 10)),
            teleport(generic(rng, 10), 5, "subspace", _grid_seed(rng)),
            teleport(balanced(rng, 10, 5), 3, "transfer", _grid_seed(rng))]
    out += [scan(named_w(11)), entropy(generic(rng, 11)),
            teleport(generic(rng, 11), 5, "serial", _grid_seed(rng))]
    return out


WORKLOADS = {
    "acceptance": acceptance,
    "protocols-large": protocols_large,
    "detect-large": detect_large,
}


#: host-speed reference kernel of each workload (see ``reference.py``): the
#: one whose working set is like that of the workload's requests
KERNEL = {
    "acceptance": "small",
    "protocols-large": "large",
    "detect-large": "large",
}


def generate(workload: str, seed: int) -> list[Scenario]:
    return WORKLOADS[workload](np.random.default_rng([seed, 0x77]))
