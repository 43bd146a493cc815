"""The teleport pipeline's own consistency checks, and the report verdict
derived from its fidelities."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import wproto.teleport as teleport
from wproto.qsim import InternalConsistencyError, Unitary
from wproto.teleport import (
    FAMILY_LABELS,
    FIDELITY_THRESHOLD,
    SERIAL_LABELS,
    ProtocolReport,
    encoded_state,
    run_teleport_encoded,
    run_teleport_grid,
    unknown_state_grid,
)
from wproto.wstates import w_coefficients

ONE_ULP_BELOW = float(np.nextafter(FIDELITY_THRESHOLD, 0.0))


def _zero_outcome(monkeypatch, label):
    """Make every measurement report probability 0 for outcome ``label``."""
    project_stack = teleport.project_stack

    def patched(rows, basis):
        measured = project_stack(rows, basis)
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


FIDELITIES = st.one_of(
    st.sampled_from([FIDELITY_THRESHOLD, ONE_ULP_BELOW, 1.0, 0.0]),
    st.floats(0.0, 1.0),
)


@given(st.dictionaries(st.sampled_from(FAMILY_LABELS + SERIAL_LABELS), FIDELITIES, min_size=1))
@example({"xi+": 1.0, "xi-": FIDELITY_THRESHOLD})
@example({"xi+": 1.0, "xi-": ONE_ULP_BELOW})
def test_verdict_derives_from_the_fidelities(fidelities):
    report = ProtocolReport("resource", "subspace", (), fidelities)
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
    with pytest.raises(TypeError):
        ProtocolReport("resource", None, (), {"xi+": 0.5}, **{field: True})
