"""The teleport pipeline's own consistency checks, and the report verdict
derived from its fidelities."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproto.teleport as teleport
from wproto.qsim import (
    DimensionError,
    InternalConsistencyError,
    NormalizationError,
    StateVector,
    Unitary,
)
from wproto.teleport import (
    FAMILY_LABELS,
    FIDELITY_THRESHOLD,
    SERIAL_LABELS,
    STRATEGIES,
    ProtocolReport,
    encoded_state,
    run_teleport_encoded,
    run_teleport_grid,
    run_teleport_one_qubit,
    unknown_state_grid,
)
from wproto.wstates import UnsuitableResourceError, w_coefficients

from oracle_utils import random_condition_coefficients

ONE_ULP_BELOW = float(np.nextafter(FIDELITY_THRESHOLD, 0.0))


def _zero_outcome(monkeypatch, label):
    """Make every measurement report probability 0 for outcome ``label``."""
    project_stack = teleport.project_stack

    def patched(rows, basis, support):
        measured = project_stack(rows, basis, support)
        return [(lab, p * 0.0 if lab == label else p, post) for lab, p, post in measured]

    monkeypatch.setattr(teleport, "project_stack", patched)


@pytest.mark.parametrize(
    "strategy, label, branch",
    [
        ("subspace", "eta-", "eta-"),
        ("transfer", "xi-", "xi-"),
        ("serial", "eta+", "eta+"),
        ("serial", "phi1+", "xi+|phi1+"),
        ("serial", "phi2-", "xi+|phi2-"),
    ],
)
def test_zero_probability_branch_is_named(monkeypatch, strategy, label, branch):
    _zero_outcome(monkeypatch, label)
    message = re.escape(f"branch {branch} has probability 0")
    with pytest.raises(InternalConsistencyError, match=message):
        run_teleport_grid(w_coefficients(4), 2, unknown_state_grid(3, 0), strategy)


def _zero_row(monkeypatch, label, row):
    """Make every measurement report probability 0 for outcome ``label`` in
    stacked row ``row`` only."""
    project_stack = teleport.project_stack

    def patched(rows, basis, support):
        measured = []
        for lab, p, post in project_stack(rows, basis, support):
            if lab == label:
                p = p.copy()
                p[row] = 0.0
            measured.append((lab, p, post))
        return measured

    monkeypatch.setattr(teleport, "project_stack", patched)


@pytest.mark.parametrize(
    "strategy, label, row, branch",
    [
        ("subspace", "eta+", 1, "eta+"),
        ("transfer", "xi-", 2, "xi-"),
        ("serial", "xi-", 1, "xi-"),
        # the relay stacks its rows sender-branch-major: row 4 is xi-, point 1
        ("serial", "phi1+", 1, "xi+|phi1+"),
        ("serial", "phi2-", 4, "xi-|phi2-"),
    ],
)
def test_zero_probability_in_one_grid_row_is_named(monkeypatch, strategy, label, row, branch):
    _zero_row(monkeypatch, label, row)
    message = re.escape(f"branch {branch} has probability 0")
    with pytest.raises(InternalConsistencyError, match=message):
        run_teleport_grid(w_coefficients(4), 2, unknown_state_grid(3, 0), strategy)


def test_zero_probability_branch_is_named_for_encoded_runs(monkeypatch):
    c = w_coefficients(4)
    _zero_outcome(monkeypatch, "xi+")
    with pytest.raises(InternalConsistencyError, match="branch xi\\+ has probability 0"):
        run_teleport_encoded(c, 2, encoded_state(c, 2, 0.6, 0.8j))


@pytest.mark.parametrize("n, m", [(4, 2), (6, 3)])
def test_transfer_without_the_pair_move_leaves_residual_entanglement(monkeypatch, n, m):
    monkeypatch.setattr(teleport, "transfer_unitary", lambda m, wm: Unitary(np.eye(2**m)))
    with pytest.raises(InternalConsistencyError, match="residual entanglement"):
        run_teleport_grid(w_coefficients(n), m, unknown_state_grid(2, 1), "transfer")


def _entry_points(c, m):
    """Every teleport entry point as (register qubits, run of one register):
    the grid per strategy (the register after a good one), the one-qubit run
    and the encoded run."""
    good = unknown_state_grid(1, 0)
    grid = [(1, lambda psi, s=s: run_teleport_grid(c, m, good + [psi], s)) for s in STRATEGIES]
    return grid + [
        (1, lambda psi: run_teleport_one_qubit(c, m, psi)),
        (m, lambda psi: run_teleport_encoded(c, m, psi)),
    ]


SPOILS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _last_basis_state(qubits):
    return StateVector(qubits, np.eye(2**qubits)[-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
    spoil=st.sampled_from(["scale", *SPOILS]),
    scale=st.floats(1e-3, 1e3).filter(lambda s: abs(s * s - 1.0) > 1e-6),
)
def test_one_register_check_serves_every_entry_point(data, n, seed, spoil, scale):
    m = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    c = random_condition_coefficients(n, m, rng)
    pair = rng.normal(size=2) + 1j * rng.normal(size=2)
    pair /= np.linalg.norm(pair)
    for q, run in _entry_points(c, m):
        psi = StateVector(1, pair) if q == 1 else encoded_state(c, m, *pair)
        run(psi)  # the register itself teleports
        wrong = data.draw(st.integers(1, 4).filter(lambda k: k != q))
        with pytest.raises(DimensionError):
            run(_last_basis_state(wrong))
        amps = psi.amplitudes * scale
        if spoil in SPOILS:
            amps[int(rng.integers(2**q))] = SPOILS[spoil]
        with pytest.raises(NormalizationError):
            run(StateVector(q, amps))
    # an unsuitable resource is refused at the split gate, before the register
    bad_m = data.draw(st.integers(1, n - 1).filter(lambda k: 2 * k != n))
    for q, run in _entry_points(w_coefficients(n), bad_m):
        for register in (StateVector(q, np.full(2**q, math.nan)), _last_basis_state(q + 1)):
            with pytest.raises(UnsuitableResourceError):
                run(register)


def _report(fidelities: dict[str, float]) -> ProtocolReport:
    """A one-row report whose branches carry ``fidelities``, label by label."""
    k = len(fidelities)
    return ProtocolReport(
        "subspace",
        tuple(fidelities),
        (),
        np.full((1, k), 1.0 / k),
        np.array([list(fidelities.values())]),
        np.zeros((1, k, 2), dtype=np.complex128),
    )


FIDELITIES = st.one_of(
    st.sampled_from([FIDELITY_THRESHOLD, ONE_ULP_BELOW, 1.0, 0.0]),
    st.floats(0.0, 1.0),
)


@given(st.dictionaries(st.sampled_from(FAMILY_LABELS + SERIAL_LABELS), FIDELITIES, min_size=1))
@example({"xi+": 1.0, "xi-": FIDELITY_THRESHOLD})
@example({"xi+": 1.0, "xi-": ONE_ULP_BELOW})
def test_verdict_derives_from_the_fidelities(fidelities):
    report = _report(fidelities)
    low = min(fidelities.values())
    assert report.min_fidelity == low
    assert report.success == (low >= FIDELITY_THRESHOLD)
    if low >= FIDELITY_THRESHOLD:
        assert report.reason == "every outcome reproduces the input exactly"
    else:
        assert report.reason == (
            f"minimum outcome fidelity {low:.12g} is below {FIDELITY_THRESHOLD:.12g}"
        )
    assert report.classical_bits_sent == 2


@pytest.mark.parametrize("field", ["success", "min_fidelity", "reason"])
def test_verdict_cannot_be_passed_in(field):
    columns = vars(_report({"xi+": 0.5}))
    with pytest.raises(TypeError):
        ProtocolReport(**columns, **{field: True})


def test_verdict_and_deviation_span_every_row():
    # the worst grid point decides the verdict, wherever it sits in the grid
    fidelities = np.array([[1.0, 1.0], [1.0, ONE_ULP_BELOW], [1.0, 1.0]])
    probabilities = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5 + 1e-3]])
    posts = np.zeros((3, 2, 2), dtype=np.complex128)
    report = ProtocolReport("subspace", ("xi+", "xi-"), (), probabilities, fidelities, posts)
    assert report.min_fidelity == ONE_ULP_BELOW and not report.success
    assert report.probability_deviation == (0.5 + 1e-3) - 0.5
