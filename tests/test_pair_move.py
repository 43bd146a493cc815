"""The closed-form pair move: the transfer reflection and the bit-flip
encoding set, checked against the Gram-Schmidt completion they replace."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproto.cli as cli
import wproto.qsim as qsim
import wproto.sdc as sdc
import wproto.teleport as teleport
import wproto.wstates as wstates
from wproto.cli import parse_config, run
from wproto.qsim import StateVector, orthonormal_extension, zero_state
from wproto.sdc import capacity_check, general_encoding_set
from wproto.teleport import (
    FIDELITY_THRESHOLD,
    UnknownState,
    bob_strategy2_set,
    run_teleport_grid,
    transfer_unitary,
    unknown_state_grid,
)
from wproto.wstates import (
    CoefficientVector,
    excitation_blocks,
    modified_w_coefficients,
    random_condition_coefficients,
    w_coefficients,
)

TOL = 1e-12


def _near_last_qubit(m: int, eps: float, seed: int) -> StateVector:
    """A unit vector orthogonal to |0..0> with weight 1 - eps on |0..01>
    (complex phase included) and eps spread over the other directions;
    for m = 1 there are none, so the weight is all on |1>."""
    rng = np.random.default_rng(seed)
    eps = eps if m > 1 else 0.0
    amps = np.zeros(2**m, dtype=np.complex128)
    amps[1] = math.sqrt(1.0 - eps) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    if m > 1:
        rest = rng.normal(size=2**m - 2) + 1j * rng.normal(size=2**m - 2)
        amps[2:] = math.sqrt(eps) * rest / np.linalg.norm(rest)
    return StateVector(m, amps)


def _reference_transfer(m: int, wm: StateVector) -> np.ndarray:
    """The Gram-Schmidt construction the closed form replaces."""
    dim = 2**m
    zero, one_last = np.eye(dim)[0], np.eye(dim)[1]
    domain = orthonormal_extension([zero, wm.amplitudes], dim)
    target = orthonormal_extension([zero, one_last], dim)
    return target.T @ domain.conj()


def _plane_projector(m: int, wm: StateVector) -> np.ndarray:
    """Orthogonal projector onto span{wm, |0..01>}."""
    e1 = np.eye(2**m)[1]
    u = wm.amplitudes - e1 * wm.amplitudes[1]
    basis = [e1] + ([u / np.linalg.norm(u)] if np.linalg.norm(u) > 0 else [])
    return sum(np.outer(b, b.conj()) for b in basis)


def _check_transfer(m: int, wm: StateVector) -> None:
    t = transfer_unitary(m, wm).matrix
    ref = _reference_transfer(m, wm)
    for vec in (zero_state(m).amplitudes, wm.amplitudes):
        np.testing.assert_allclose(t @ vec, ref @ vec, atol=TOL, rtol=0)
    # the identity off the plane: T - I lives on span{wm, |0..01>} both ways
    off = np.eye(2**m) - _plane_projector(m, wm)
    np.testing.assert_allclose(off @ (t - np.eye(2**m)), 0, atol=TOL)
    np.testing.assert_allclose((t - np.eye(2**m)) @ off, 0, atol=TOL)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 7),
    exponent=st.integers(-16, -3),
    seed=st.integers(0, 2**16),
)
@example(m=1, exponent=-16, seed=0)
@example(m=2, exponent=-16, seed=1)
def test_transfer_near_the_last_qubit(m, exponent, seed):
    _check_transfer(m, _near_last_qubit(m, 10.0**exponent, seed))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_transfer_generic_complex_pair(m, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    amps[0] = 0.0
    _check_transfer(m, StateVector(m, amps / np.linalg.norm(amps)))


@pytest.mark.parametrize("m", range(1, 8))
def test_transfer_on_resource_blocks(m):
    for c in (
        w_coefficients(2 * m),
        random_condition_coefficients(2 * m + 1, m, np.random.default_rng(m)),
    ):
        _check_transfer(m, excitation_blocks(c, m)[2])


def test_transfer_with_last_coefficient_zero():
    # back block (c3, c4) = (1/sqrt2, 0): wm = |10>, no weight on |01>
    c = CoefficientVector([0.5, 0.5, math.sqrt(0.5), 0.0])
    wm = excitation_blocks(c, 2)[2]
    assert wm.amplitudes[1] == 0
    _check_transfer(2, wm)
    for report in run_teleport_grid(c, 2, unknown_state_grid(4, 3), "transfer"):
        assert report.min_fidelity >= FIDELITY_THRESHOLD


@pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-12, 1e-8, 1e-3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_transfer_teleport_near_degenerate_back_block(m, eps):
    """The back block's weight sits within eps of the receiver's last qubit;
    at m = 1 it is all on |1>, where 1 - |w1|^2 would cancel to 0."""
    back = [0.0] * (m - 1) + [math.sqrt(0.5)]
    if m > 1:
        back[0] = math.sqrt(0.5 * eps)
        back[-1] = math.sqrt(0.5 * (1 - eps))
    c = CoefficientVector([0.5, 0.5 * np.exp(0.7j)] + back)
    psi = UnknownState(0.6, 0.8j)
    (report,) = run_teleport_grid(c, m, [psi], "transfer")
    assert report.min_fidelity >= FIDELITY_THRESHOLD


@pytest.mark.parametrize(
    "c, m",
    [
        (w_coefficients(2), 1),
        (w_coefficients(6), 3),
        (modified_w_coefficients(5), 1),
        (random_condition_coefficients(9, 4, np.random.default_rng(2)), 4),
    ],
)
def test_encoding_set_is_bit_flipped_transfer_set(c, m):
    corrections = bob_strategy2_set(m, excitation_blocks(c, m)[2])
    ops = general_encoding_set(c, m).operators
    assert len(ops) == 2 ** (m + 1)
    for b in range(2 ** (m - 1)):
        flip = np.zeros((2**m, 2**m))
        for i in range(2**m):
            flip[i ^ (2 * b), i] = 1.0
        for k, u in enumerate(corrections):
            np.testing.assert_array_equal(ops[4 * b + k].matrix, flip @ u.matrix)
    assert capacity_check(c, m, general_encoding_set(c, m)).bits == m + 1


def test_no_module_binds_the_gram_schmidt_completion():
    assert not hasattr(teleport, "orthonormal_extension")
    assert not hasattr(sdc, "orthonormal_extension")


@pytest.fixture
def extensions(monkeypatch):
    """Counts every orthonormal_extension call, under any module's name."""
    calls = []
    original = qsim.orthonormal_extension

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (qsim, wstates, teleport, sdc, cli):
        if hasattr(module, "orthonormal_extension"):
            monkeypatch.setattr(module, "orthonormal_extension", counting)
    return calls


def test_counter_sees_a_direct_call(extensions):
    qsim.orthonormal_extension([np.array([1.0, 0.0])], 2)
    assert len(extensions) == 1


def test_transfer_and_generated_sdc_never_complete_a_basis(extensions):
    docs = [
        {"task": "teleport", "state": {"named": "w", "n": 6}, "m": 3,
         "strategy": "transfer", "grid": {"count": 2}},
        {"task": "teleport", "state": {"named": "modified-w", "n": 5}, "m": 1,
         "strategy": "transfer", "grid": {"count": 2}},
        {"task": "sdc", "state": {"named": "w", "n": 8}, "m": 4, "set": "generated"},
        {"task": "sdc", "state": {"named": "modified-w", "n": 3}, "m": 1},
    ]
    report = run(parse_config(json.dumps({"scenarios": docs})))
    assert report.all_matched
    assert extensions == []
