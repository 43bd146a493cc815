"""The grid engine: per-resource objects built once, one branch loop for all runs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.teleport as teleport
from wproto.qsim import (
    PAULI_FOUR,
    PAULIS,
    StateVector,
    Unitary,
    apply_unitary,
    fidelity,
    make_basis_state,
    project,
    superpose,
    tensor,
    zero_state,
)
from wproto.teleport import (
    CORRECTION_INDEX,
    FIDELITY_THRESHOLD,
    UnsuitableResourceError,
    bob_strategy1_set,
    bob_strategy2_set,
    encoded_state,
    raw_ghz_measurement_vectors,
    raw_measurement_vectors,
    one_qubit_measurement_family,
    outcome_shape,
    raw_one_qubit_measurement_vectors,
    run_teleport_encoded,
    run_teleport_grid,
    run_teleport_one_qubit,
    serial_basis,
    transfer_unitary,
    unknown_state_grid,
)
from wproto.sdc import pauli_set
from wproto.wstates import (
    excitation_blocks,
    generalized_w,
    modified_w_coefficients,
    w_coefficients,
)

from oracle_utils import random_condition_coefficients

STRATEGIES = ("subspace", "transfer", "serial")


def _counting(monkeypatch, name):
    calls = []
    original = getattr(teleport, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(teleport, name, wrapped)
    return calls


def _assert_row_is_run(report, g, single):
    """Row g of a grid report equals the one-row report ``single`` bit for
    bit, in every column."""
    assert report.labels == single.labels
    for u, v in zip(report.corrections, single.corrections, strict=True):
        assert (u.matrix == v.matrix).all()
    for column in ("probabilities", "fidelities", "post_states"):
        assert (getattr(report, column)[g] == getattr(single, column)[0]).all(), column


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_grid_reports_match_single_runs(strategy):
    c = random_condition_coefficients(5, 2, np.random.default_rng(4))
    grid = unknown_state_grid(6, 11)
    report = run_teleport_grid(c, 2, grid, strategy)
    assert len(report.probabilities) == len(grid)
    for g, psi in enumerate(grid):
        _assert_row_is_run(report, g, run_teleport_one_qubit(c, 2, psi, strategy))
    assert report.success and report.strategy == strategy


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_per_resource_objects_built_once(monkeypatch, strategy):
    families = _counting(monkeypatch, "one_qubit_measurement_family")
    corrections = _counting(monkeypatch, "bob_strategy1_set")
    seconds = _counting(monkeypatch, "serial_basis")
    transfers = _counting(monkeypatch, "transfer_unitary")
    run_teleport_grid(w_coefficients(4), 2, unknown_state_grid(7, 1), strategy)
    assert len(families) == 1
    assert len(corrections) == 1  # the transfer set reuses the subspace set
    assert len(seconds) == (strategy == "serial")
    assert len(transfers) == (strategy == "transfer")


def test_rejection_comes_before_any_construction(monkeypatch):
    families = _counting(monkeypatch, "one_qubit_measurement_family")
    corrections = _counting(monkeypatch, "bob_strategy1_set")
    with pytest.raises(UnsuitableResourceError) as err:
        run_teleport_grid(w_coefficients(5), 2, unknown_state_grid(3, 0), "serial")
    assert err.value.report.left_sum == pytest.approx(0.6, abs=1e-12)
    assert len(families) == 1 and not corrections


def test_the_four_paulis_are_built_once():
    report = run_teleport_grid(w_coefficients(4), 2, unknown_state_grid(1, 0), "serial")
    for label, correction in zip(report.labels, report.corrections, strict=True):
        inner = label.split("|")[1]
        assert correction is PAULIS[CORRECTION_INDEX[inner]]
    assert pauli_set().operators == PAULIS
    for u, sigma in zip(PAULIS, PAULI_FOUR, strict=True):
        assert (u.matrix == sigma).all()


def test_strategy_is_checked_before_the_resource():
    with pytest.raises(ValueError, match="unknown strategy"):
        run_teleport_grid(w_coefficients(5), 2, [StateVector(1, [1, 0])], "swap")



@pytest.mark.parametrize("strategy", teleport.STRATEGIES)
def test_outcome_shape_is_what_a_run_keeps(strategy):
    resources = [
        (modified_w_coefficients(3), 1),
        (w_coefficients(4), 2),
        (random_condition_coefficients(7, 3, np.random.default_rng(6)), 3),
    ]
    for c, m in resources:
        outcomes, qubits = outcome_shape(m, strategy)
        report = run_teleport_grid(c, m, unknown_state_grid(2, 4), strategy)
        assert len(report.labels) == len(report.corrections) == outcomes
        assert report.probabilities.shape == report.fidelities.shape == (2, outcomes)
        assert report.post_states.shape == (2, outcomes, 2**qubits)


@pytest.mark.parametrize("strategy", teleport.STRATEGIES)
def test_report_columns_are_read_only(strategy):
    c, m = random_condition_coefficients(6, 3, np.random.default_rng(5)), 3
    reports = [
        (run_teleport_grid(c, m, unknown_state_grid(3, 2), strategy), 3, strategy),
        (run_teleport_encoded(c, m, encoded_state(c, m, 0.6, 0.8j)), 1, "subspace"),
    ]
    for report, count, shape_of in reports:
        outcomes, qubits = outcome_shape(m, shape_of)
        shapes = [(count, outcomes), (count, outcomes), (count, outcomes, 2**qubits)]
        columns = [report.probabilities, report.fidelities, report.post_states]
        for column, shape in zip(columns, shapes, strict=True):
            assert column.shape == shape and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 0.5
        assert isinstance(report.labels, tuple) and isinstance(report.corrections, tuple)


def test_empty_grid_is_refused():
    with pytest.raises(ValueError, match="at least one state"):
        run_teleport_grid(w_coefficients(4), 2, [])


def test_probability_deviation_uses_the_branch_count():
    c = modified_w_coefficients(3)
    psi = StateVector(1, [0.6, 0.8j])
    for strategy, branches in (("subspace", 4), ("serial", 16)):
        report = run_teleport_one_qubit(c, 1, psi, strategy)
        assert len(report.labels) == branches
        assert report.probability_deviation == max(
            abs(p - 1.0 / branches) for p in report.probabilities[0].tolist()
        )
        assert report.probability_deviation < 1e-12


def test_encoded_run_shares_the_branch_loop():
    c = random_condition_coefficients(6, 3, np.random.default_rng(9))
    report = run_teleport_encoded(c, 3, encoded_state(c, 3, 0.6, 0.8j))
    assert report.strategy is None
    assert report.min_fidelity >= FIDELITY_THRESHOLD
    assert report.probability_deviation < 1e-12


def test_plus_minus_families_pair_up():
    # every family is (x + y, x - y, u + v, u - v): sums and differences
    # of consecutive vectors recover the two term pairs
    c = random_condition_coefficients(5, 2, np.random.default_rng(2))
    wm = excitation_blocks(c, 2)[2]
    families = [
        raw_measurement_vectors(c, 2),
        raw_one_qubit_measurement_vectors(c, 2),
        raw_ghz_measurement_vectors(0.6, 0.8, 3),
        serial_basis(2, wm).vectors,
    ]
    for vectors in families:
        for plus, minus in (vectors[0:2], vectors[2:4]):
            half_sum = (plus.amplitudes + minus.amplitudes) / 2
            half_diff = (plus.amplitudes - minus.amplitudes) / 2
            assert np.vdot(half_sum, half_diff) == pytest.approx(0, abs=1e-12)
            assert np.linalg.norm(half_diff) > 0


def _pm(u, v):
    return [u + v, u - v]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=3, max_value=8), seed=st.integers(0, 2**32 - 1))
def test_families_equal_their_docstring_expressions(data, n, seed):
    # each family vector, written out with np.kron of the block amplitudes
    # for a random complex resource and a random complex GHZ pair
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    c = random_condition_coefficients(n, m, rng)
    blocks = excitation_blocks(c, m)
    front, wm, back_norm = blocks[0].amplitudes, blocks[2].amplitudes, blocks[3]
    zeros_m, zeros_a = zero_state(m).amplitudes, zero_state(n - m).amplitudes
    k0, k1 = np.array([1, 0]), np.array([0, 1])
    a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    all0, all1 = zero_state(n - 1).amplitudes, make_basis_state(n - 1, [1] * (n - 1)).amplitudes
    h, serial = 1 / math.sqrt(2), serial_basis(m, blocks[2])
    kron = np.kron
    cases = [
        (  # xi+- = |0..0>|front> +- back_norm wm|0..0>, eta+- = back_norm|0..0>|0..0> +- wm|front>
            raw_measurement_vectors(c, m),
            _pm(kron(zeros_m, front), back_norm * kron(wm, zeros_a))
            + _pm(back_norm * kron(zeros_m, zeros_a), kron(wm, front)),
        ),
        (  # xi+- = |0>|front> +- back_norm|1>|0..0>, eta+- = back_norm|0>|0..0> +- |1>|front>
            raw_one_qubit_measurement_vectors(c, m),
            _pm(kron(k0, front), back_norm * kron(k1, zeros_a))
            + _pm(back_norm * kron(k0, zeros_a), kron(k1, front)),
        ),
        (  # xi+- = a1|0>|0..0> +- a2|1>|1..1>, eta+- = a2|0>|1..1> +- a1|1>|0..0>
            raw_ghz_measurement_vectors(a1, a2, n),
            _pm(a1 * kron(k0, all0), a2 * kron(k1, all1))
            + _pm(a2 * kron(k0, all1), a1 * kron(k1, all0)),
        ),
        (  # phi1+- = (|0..0>|0> +- wm|1>)/sqrt(2), phi2+- = (|0..0>|1> +- wm|0>)/sqrt(2)
            serial.vectors,
            _pm(h * kron(zeros_m, k0), h * kron(wm, k1))
            + _pm(h * kron(zeros_m, k1), h * kron(wm, k0)),
        ),
    ]
    assert serial.labels == teleport.SERIAL_LABELS
    for vectors, expected in cases:
        for vector, amplitudes in zip(vectors, expected, strict=True):
            assert np.abs(vector.amplitudes - amplitudes).max() <= 1e-15


@pytest.mark.parametrize("build", [bob_strategy1_set, transfer_unitary, serial_basis])
def test_receiver_constructions_share_the_pair_check(build):
    not_orthogonal = StateVector(2, [1, 0, 0, 0])
    with pytest.raises(ValueError, match="orthogonal"):
        build(2, not_orthogonal)
    unnormalized = StateVector(2, [0, 1, 1, 0])
    with pytest.raises(ValueError, match="normalized"):
        build(2, unnormalized)
    with pytest.raises(ValueError, match="need 3"):
        build(3, StateVector(2, [0, 1, 0, 0]))


def test_transfer_grid_lands_on_the_last_qubit():
    c = w_coefficients(6)
    grid = unknown_state_grid(4, 5)
    report = run_teleport_grid(c, 3, grid, "transfer")
    for psi, row in zip(grid, report.post_states, strict=True):
        for amps in row:
            assert np.abs(amps[2:]).max() < 1e-12
            single = StateVector(1, amps[:2] / np.linalg.norm(amps[:2]))
            assert fidelity(single, psi) >= FIDELITY_THRESHOLD


def test_subspace_grid_targets_the_encoded_state():
    c = w_coefficients(4)
    wm = excitation_blocks(c, 2)[2]
    psi = StateVector(1, [math.cos(0.3), math.sin(0.3) * 1j])
    report = run_teleport_grid(c, 2, [psi], "subspace")
    target = psi.amplitudes[0] * zero_state(2).amplitudes + psi.amplitudes[1] * wm.amplitudes
    for post in report.post_states[0]:
        assert abs(np.vdot(target, post)) ** 2 >= FIDELITY_THRESHOLD


def _one_state_loop(c, m, psi, strategy):
    """The per-state reference: one joint state, one branch at a time, through
    ``project`` and ``apply_unitary``; (label, probability, post-state,
    fidelity) per branch."""
    wm = excitation_blocks(c, m)[2]
    corrections = bob_strategy1_set(m, wm)
    if strategy == "transfer":
        corrections = bob_strategy2_set(m, wm)
    target = psi
    if strategy == "subspace":
        target = superpose([(psi.amplitudes[0], zero_state(m)), (psi.amplitudes[1], wm)])
    h = 1 / math.sqrt(2)
    bell = superpose([(h, make_basis_state(2, [0, 0])), (h, make_basis_state(2, [1, 1]))])
    joint = tensor(psi, generalized_w(c))
    branches = []
    for first in project(joint, one_qubit_measurement_family(c, m)):
        fixed = apply_unitary(
            first.post_state, corrections[CORRECTION_INDEX[first.label]], range(1, m + 1)
        )
        if strategy == "serial":
            for second in project(tensor(fixed, bell), serial_basis(m, wm)):
                pauli = Unitary(PAULI_FOUR[CORRECTION_INDEX[second.label]])
                final = apply_unitary(second.post_state, pauli, [1])
                label = first.label + "|" + second.label
                probability = first.probability * second.probability
                branches.append((label, probability, final, fidelity(final, target)))
            continue
        compared = fixed
        if strategy == "transfer":
            pair = fixed.amplitudes[:2]
            compared = StateVector(1, pair / np.linalg.norm(pair))
        branches.append((first.label, first.probability, fixed, fidelity(compared, target)))
    return branches


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=3, max_value=8),
    count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    strategy=st.sampled_from(STRATEGIES),
)
def test_grid_equals_one_state_runs_exactly(data, n, count, seed, strategy):
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    c = random_condition_coefficients(n, m, rng)
    grid = unknown_state_grid(count, int(rng.integers(2**31)))
    report = run_teleport_grid(c, m, grid, strategy)
    assert report.success and len(report.probabilities) == len(grid)
    for g, psi in enumerate(grid):
        single = run_teleport_one_qubit(c, m, psi, strategy)
        _assert_row_is_run(report, g, single)
        assert single.min_fidelity == float(report.fidelities[g].min())
        reference = _one_state_loop(c, m, psi, strategy)
        assert list(report.labels) == [b[0] for b in reference]
        assert report.fidelities[g].tolist() == [b[3] for b in reference]
        assert report.probabilities[g].tolist() == [b[1] for b in reference]
        for post, (_, _, state, _) in zip(report.post_states[g], reference, strict=True):
            assert (post == state.amplitudes).all()


def _traced_peak(c, m, grid, strategy) -> int:
    tracemalloc.start()
    try:
        run_teleport_grid(c, m, grid, strategy)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_grid_does_not_stack_the_joint_states(strategy):
    # 64 joint states of W12 (x) input would take 64 * 2^13 amplitudes (8 MiB)
    n, m, count = 12, 6, 64
    c = w_coefficients(n)
    growth = _traced_peak(c, m, unknown_state_grid(count, 3), strategy) - _traced_peak(
        c, m, unknown_state_grid(1, 3), strategy
    )
    assert growth < count * 2 ** (n + 1) * 16 / 2


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "constant, value",
    [
        # three grid points' branch rows per batch: batches of 3, 3 and 1
        ("_STACK_AMPLITUDES", 3 * 2 ** (3 + 2)),
        # the sender's 128-amplitude joint states one per stack, the relay's
        # 32-amplitude ones two per stack: both hops measure in several chunks
        ("_JOINT_AMPLITUDES", 2**6),
    ],
)
def test_batched_grid_equals_one_batch(monkeypatch, constant, value, strategy):
    c = random_condition_coefficients(6, 3, np.random.default_rng(8))
    grid = unknown_state_grid(7, 2)
    whole = run_teleport_grid(c, 3, grid, strategy)
    monkeypatch.setattr(teleport, constant, value)
    batched = run_teleport_grid(c, 3, grid, strategy)
    assert batched.labels == whole.labels
    for column in ("probabilities", "fidelities", "post_states"):
        assert (getattr(batched, column) == getattr(whole, column)).all(), column


def _per_row_work(monkeypatch, c, m, grid, strategy) -> tuple[int, int]:
    """(np.vdot calls, StateVector constructions) inside one grid run."""
    counts = [0, 0]
    vdot, init = np.vdot, StateVector.__init__

    def counted_vdot(*args, **kwargs):
        counts[0] += 1
        return vdot(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts[1] += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "vdot", counted_vdot)
        patch.setattr(StateVector, "__init__", counted_init)
        run_teleport_grid(c, m, grid, strategy)
    return tuple(counts)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_grid_checks_are_batched_not_per_row(monkeypatch, strategy):
    # norms, fidelities, targets and post-states come from the row stacks:
    # a grid of 40 makes as many np.vdot calls and StateVectors as a grid of 1
    c = w_coefficients(4)
    one, forty = unknown_state_grid(1, 3), unknown_state_grid(40, 3)
    assert _per_row_work(monkeypatch, c, 2, one, strategy) == _per_row_work(
        monkeypatch, c, 2, forty, strategy
    )
