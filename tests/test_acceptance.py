"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from wproto.qsim import (
    StateVector,
    fidelity,
    partial_trace,
    superpose,
    von_neumann_entropy,
    zero_state,
)
from wproto.sdc import (
    capacity_check,
    general_encoding_set,
    pauli_product_set,
    pauli_set,
    w4_multiunary_set,
)
from wproto.teleport import (
    encoded_state,
    raw_ghz_measurement_vectors,
    raw_measurement_vectors,
    raw_one_qubit_measurement_vectors,
    run_teleport_encoded,
    run_teleport_one_qubit,
    unknown_state_grid,
)
from wproto.wstates import (
    CoefficientVector,
    generalized_w,
    ghz_suitability_scan,
    modified_w_coefficients,
    partition_entropy_formula,
    standard_w,
    sub_w,
    suitability_scan,
    teleport_condition,
    w_coefficients,
)

from oracle_utils import gram_of, random_coefficients, random_condition_coefficients

REPO = Path(__file__).resolve().parents[1]
ACCEPTANCE_CONFIG = REPO / "configs" / "acceptance.json"

FID_TOL = 1e-9          # fidelity >= 1 - FID_TOL
PROB_TOL = 1e-10        # outcome probabilities within this of 1/4 (1/16 joint)
ENTROPY_TOL = 1e-10     # simulated vs closed-form bipartition entropy
EQUIV_TOL = 1e-9        # condition <-> unit-entropy agreement
GRAM_FLOOR = 1e-3       # forced-family Gram deviation must exceed this


def _criterion(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def _suitable_resources() -> list[tuple[CoefficientVector, int]]:
    """The named resources plus 5 random condition-satisfying vectors per n."""
    resources = [
        (modified_w_coefficients(3), 1),
        (w_coefficients(4), 2),
        (w_coefficients(6), 3),
        (w_coefficients(8), 4),
    ]
    rng = np.random.default_rng(20260810)
    for n in (4, 6, 8):
        for i in range(5):
            m = 1 + i % (n - 1)
            resources.append((random_condition_coefficients(n, m, rng), m))
    return resources


def _check_probabilities(report) -> None:
    marginals: dict[str, float] = {}
    for label, probability in zip(report.labels, report.probabilities[0].tolist()):
        if "|" in label:
            assert abs(probability - 1 / 16) <= PROB_TOL, label
            first = label.split("|")[0]
            marginals[first] = marginals.get(first, 0.0) + probability
        else:
            assert abs(probability - 0.25) <= PROB_TOL, label
    for value in marginals.values():
        assert abs(value - 0.25) <= PROB_TOL


def test_criterion_1_teleportation_success():
    def body():
        grid = unknown_state_grid(20, 424242)
        assert any(abs(psi.amplitudes[1].imag) > 1e-3 for psi in grid)
        for c, m in _suitable_resources():
            for psi in grid:
                for strategy in ("subspace", "transfer", "serial"):
                    report = run_teleport_one_qubit(c, m, psi, strategy)
                    assert report.min_fidelity >= 1 - FID_TOL, (c.n, m, strategy)
                    _check_probabilities(report)
                encoded = encoded_state(c, m, psi.amplitudes[0], psi.amplitudes[1])
                report = run_teleport_encoded(c, m, encoded)
                assert report.min_fidelity >= 1 - FID_TOL, (c.n, m, "encoded")
                _check_probabilities(report)

    _criterion(1, "teleportation succeeds when the split condition holds", body)


def test_criterion_2_teleportation_impossibility():
    def body():
        for n in (3, 5, 7):
            c = w_coefficients(n)
            assert not any(r.holds for r in suitability_scan(c))
            vectors = raw_one_qubit_measurement_vectors(c, 1)
            dev = np.abs(gram_of([v.amplitudes for v in vectors]) - np.eye(4)).max()
            assert dev > GRAM_FLOOR, (n, 1, dev)
            for m in range(1, n):
                vectors = raw_measurement_vectors(c, m)
                dev = np.abs(gram_of([v.amplitudes for v in vectors]) - np.eye(4)).max()
                assert dev > GRAM_FLOOR, (n, m, dev)
        a1, a2 = 1 / math.sqrt(3), math.sqrt(2 / 3)
        assert not any(r.holds for r in ghz_suitability_scan(a1, a2, 4))
        vectors = raw_ghz_measurement_vectors(a1, a2, 4)
        dev = np.abs(gram_of([v.amplitudes for v in vectors]) - np.eye(4)).max()
        assert dev > GRAM_FLOOR

    _criterion(2, "odd-n / skewed resources are detected as unsuitable", body)


def test_criterion_3_entropy_formula():
    def body():
        rng = np.random.default_rng(33)
        for n in range(2, 11):
            state = standard_w(n)
            for x in range(1, n):
                want = partition_entropy_formula(n, x)
                subsets = {tuple(range(n - x + 1, n + 1))}
                target = min(max(1, n // 2), math.comb(n, x))
                while len(subsets) < target:
                    subsets.add(
                        tuple(sorted(rng.permutation(np.arange(1, n + 1))[:x].tolist()))
                    )
                for keep in subsets:
                    got = von_neumann_entropy(partial_trace(state, keep))
                    assert abs(got - want) <= ENTROPY_TOL, (n, x, keep)
                if n % 2 == 0 and x == n // 2:
                    assert abs(want - 1.0) <= 1e-12
                else:
                    assert want < 1.0 - 1e-6

    _criterion(3, "bipartition entropy matches the closed form", body)


def test_criterion_4_superdense_coding():
    def body():
        result = capacity_check(modified_w_coefficients(3), 1, pauli_set())
        assert result.decodable and result.bits == 2
        result = capacity_check(w_coefficients(4), 2, w4_multiunary_set())
        assert result.decodable and result.bits == 3
        for half in (1, 2, 3, 4):
            c = w_coefficients(2 * half)
            result = capacity_check(c, half, general_encoding_set(c, half))
            assert result.decodable and result.bits == half + 1, half
        result = capacity_check(w_coefficients(4), 2, pauli_product_set(2))
        assert not result.decodable and result.bits < 4

    _criterion(4, "superdense-coding capacities are m+1 bits, never 2m", body)


def test_criterion_5_condition_entropy_equivalence():
    def body():
        rng = np.random.default_rng(55)
        pool = []
        for _ in range(120):
            n = int(rng.integers(2, 9))
            pool.append(random_coefficients(n, rng))
        for _ in range(80):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            pool.append(random_condition_coefficients(n, m, rng))
        assert len(pool) == 200
        disagreements = 0
        for c in pool:
            state = generalized_w(c)
            for m in range(1, c.n):
                holds = teleport_condition(c, m).holds
                entropy = von_neumann_entropy(
                    partial_trace(state, range(c.n - m + 1, c.n + 1))
                )
                if holds != (abs(entropy - 1.0) <= EQUIV_TOL):
                    disagreements += 1
        assert disagreements == 0

    _criterion(5, "split condition <=> unit reduced entropy, 200 random vectors", body)


def test_criterion_6_strategy_agreement():
    def body():
        rng = np.random.default_rng(66)
        resources = [
            (modified_w_coefficients(3), 1),
            (w_coefficients(4), 2),
            (w_coefficients(6), 3),
            (random_condition_coefficients(5, 2, rng), 2),
            (random_condition_coefficients(8, 4, rng), 4),
        ]
        for c, m in resources:
            back = sub_w(c, c.n - m + 1, c.n)
            wm = StateVector(m, back.amplitudes / back.norm)
            for psi in unknown_state_grid(5, 606):
                transfer = run_teleport_one_qubit(c, m, psi, "transfer")
                serial = run_teleport_one_qubit(c, m, psi, "serial")
                singles = [
                    StateVector(1, amps[:2] / np.linalg.norm(amps[:2]))
                    for amps in transfer.post_states[0]
                ] + [StateVector(1, amps) for amps in serial.post_states[0]]
                for i, a in enumerate(singles):
                    assert fidelity(a, psi) >= 1 - FID_TOL
                    for b in singles[i + 1 :]:
                        assert fidelity(a, b) >= 1 - FID_TOL
                subspace = run_teleport_one_qubit(c, m, psi, "subspace")
                target = superpose([(psi.amplitudes[0], zero_state(m)), (psi.amplitudes[1], wm)])
                for amps in subspace.post_states[0]:
                    assert fidelity(StateVector(m, amps), target) >= 1 - FID_TOL

    _criterion(6, "the three recovery strategies agree", body)


def test_criterion_7_deterministic_regression():
    def body():
        def run_once() -> bytes:
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "wproto.cli",
                    "--config",
                    str(ACCEPTANCE_CONFIG),
                    "--format",
                    "json",
                ],
                capture_output=True,
                cwd=REPO,
            )
            assert result.returncode == 0, result.stderr.decode()
            return result.stdout

        first = run_once()
        second = run_once()
        assert first == second
        assert json.loads(first)["all_matched"] is True

    _criterion(7, "acceptance config emits byte-identical JSON twice", body)
