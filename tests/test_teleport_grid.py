"""The grid engine: per-resource objects built once, one branch loop for all runs."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wproto.teleport as teleport
import wproto.wstates as wstates
from wproto.qsim import (
    PAULI_FOUR,
    ZERO_PROBABILITY,
    PAULIS,
    StateVector,
    Unitary,
    apply_unitary,
    apply_unitary_stack,
    fidelity,
    fidelity_stack,
    make_basis_state,
    project,
    project_stack,
    superpose,
    support_width,
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

from oracle_utils import random_condition_coefficients, zeroed_condition_coefficients

STRATEGIES = ("subspace", "transfer", "serial")
ROOT = Path(__file__).resolve().parent.parent


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


def _kernel_calls(monkeypatch, c, m, grid, strategy) -> dict[str, int]:
    """Calls of each stacked kernel (and the transfer split) in one grid run."""
    names = ("project_stack", "apply_unitary_stack", "fidelity_stack", "_extract_last_qubit")
    calls = {name: _counting(monkeypatch, name) for name in names}
    run_teleport_grid(c, m, grid, strategy)
    return {name: len(made) for name, made in calls.items()}


@pytest.mark.parametrize(
    "strategy, expected",
    [
        # the relay hops once over all four sender branches' rows, and each
        # hop corrects all of its branches in one call
        ("serial", (2, 2, 1, 0)),
        ("subspace", (1, 1, 1, 0)),
        ("transfer", (1, 1, 1, 1)),
    ],
)
def test_a_batch_hops_once_per_measurement(monkeypatch, strategy, expected):
    calls = _kernel_calls(monkeypatch, w_coefficients(4), 2, unknown_state_grid(20, 1), strategy)
    assert tuple(calls.values()) == expected


def test_a_large_hop_measures_its_support_form_in_few_chunks(monkeypatch):
    # W16, m = 8: each sender joint state counts 2^9 x 16 support amplitudes, so
    # the 20 rows are measured in 5 chunks of 4 (one row per chunk on all 2^17
    # amplitudes), each on the 96 of 512 measured patterns whose blocks hold
    # data; the relay's 80 rows of 2^9 x 2 in 3 chunks of 32, on 56 of 512;
    # each hop then corrects its branches in one call
    measured = _counting(monkeypatch, "project_stack")
    calls = _kernel_calls(monkeypatch, w_coefficients(16), 8, unknown_state_grid(20, 1), "serial")
    assert tuple(calls.values()) == (5 + 3, 2, 1, 0)
    shapes = [rows.shape for rows, _, _ in measured]
    assert shapes == [(4, 96, 16)] * 5 + [(32, 56, 2)] * 2 + [(16, 56, 2)]


def _per_sender_branch_relay(c, m, grid):
    """The serial relay as a loop over the sender's branches, one relay
    measurement per branch on that branch's G rows, through the stacked
    kernels: labels and (G, 16) probabilities, fidelities and post-states."""
    wm = excitation_blocks(c, m)[2]
    inputs = np.array([psi.amplitudes for psi in grid])
    joint = (inputs[:, :, None] * generalized_w(c).amplitudes).reshape(len(grid), -1)
    corrections = bob_strategy1_set(m, wm)
    h = 1 / math.sqrt(2)
    bell = np.array([h, 0, 0, h], dtype=np.complex128)
    labels, probabilities, fidelities, posts = [], [], [], []
    for outer, p, post in project_stack(joint, one_qubit_measurement_family(c, m)):
        u = corrections[CORRECTION_INDEX[outer]]
        fixed = apply_unitary_stack(post[None], [u], range(1, m + 1))[0]
        relayed = (fixed[:, :, None] * bell).reshape(len(grid), -1)
        for inner, q, final in project_stack(relayed, serial_basis(m, wm)):
            final = apply_unitary_stack(final[None], [PAULIS[CORRECTION_INDEX[inner]]], [1])[0]
            labels.append(f"{outer}|{inner}")
            probabilities.append(p * q)
            fidelities.append(fidelity_stack(final, inputs))
            posts.append(final)
    return labels, np.array(probabilities).T, np.array(fidelities).T, np.stack(posts, axis=1)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=3, max_value=8),
    count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    joint=st.sampled_from([None, 2**5, 2**7]),
)
def test_stacked_relay_equals_a_relay_per_sender_branch(data, n, count, seed, joint):
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    c = random_condition_coefficients(n, m, rng)
    grid = unknown_state_grid(count, int(rng.integers(2**31)))
    with pytest.MonkeyPatch.context() as patch:
        if joint is not None:  # several chunks per hop, straddling sender branches
            patch.setattr(teleport, "_JOINT_AMPLITUDES", joint)
        report = run_teleport_grid(c, m, grid, "serial")
    labels, probabilities, fidelities, posts = _per_sender_branch_relay(c, m, grid)
    assert list(report.labels) == labels
    assert (report.probabilities == probabilities).all()
    assert (report.fidelities == fidelities).all()
    assert (report.post_states == posts).all()


def _reference_family(zero, one, first, second):
    """The four-vector family as ``superpose`` of ``tensor`` products."""
    vectors = []
    for (p, u), (q, v) in ((first, second), (second, first)):
        u, v = tensor(zero, u), tensor(one, v)
        vectors += [superpose([(p, u), (q, v)]), superpose([(p, u), (-q, v)])]
    return vectors


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_families_built_as_arrays_equal_superposed_products_bytewise(data, n, seed):
    # down to the sign of every zero
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    c = random_condition_coefficients(n, m, rng)
    front, _, wm, back_norm = excitation_blocks(c, m)
    k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
    rest = zero_state(n - m)
    a1, a2 = (rng.normal(size=2) + 1j * rng.normal(size=2)) / 2
    all0, all1 = zero_state(n - 1), make_basis_state(n - 1, [1] * (n - 1))
    h = 1 / math.sqrt(2)
    pairs = [
        (raw_measurement_vectors(c, m), (zero_state(m), wm, (1, front), (back_norm, rest))),
        (raw_one_qubit_measurement_vectors(c, m), (k0, k1, (1, front), (back_norm, rest))),
        (raw_ghz_measurement_vectors(a1, a2, n), (k0, k1, (a1, all0), (a2, all1))),
        (serial_basis(m, wm).vectors, (zero_state(m), wm, (h, k0), (h, k1))),
    ]
    for built, args in pairs:
        for vector, reference in zip(built, _reference_family(*args), strict=True):
            assert vector.amplitudes.tobytes() == reference.amplitudes.tobytes()
            assert vector.normalized == reference.normalized


def test_no_protocol_builds_the_dense_resource(monkeypatch):
    # the hop writes the joint states from the resource's support: nothing
    # builds generalized_w(c), whose amplitudes sub_w would fill over 1..n
    ranges = []
    sub_w = wstates.sub_w
    monkeypatch.setattr(wstates, "sub_w", lambda c, a, b: ranges.append((a, b)) or sub_w(c, a, b))
    c = random_condition_coefficients(6, 3, np.random.default_rng(2))
    for strategy in STRATEGIES:
        assert run_teleport_grid(c, 3, unknown_state_grid(3, 1), strategy).success
    assert run_teleport_encoded(c, 3, encoded_state(c, 3, 0.6, 0.8j)).success
    assert ranges and (1, c.n) not in ranges


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=10),
    count=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    joint=st.sampled_from([2**5, 2**7]),
    strategy=st.sampled_from(STRATEGIES),
)
def test_zero_coefficients_and_chunked_hops_equal_the_dense_loop(
    data, n, count, seed, joint, strategy
):
    # a resource with exact zeros in both blocks, each hop split into chunks
    # of its reused joint buffer: every column equals the per-state dense run
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    c = zeroed_condition_coefficients(n, m, rng)
    grid = unknown_state_grid(count, int(rng.integers(2**31)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(teleport, "_JOINT_AMPLITUDES", joint)
        report = run_teleport_grid(c, m, grid, strategy)
    for g, psi in enumerate(grid):
        reference = _one_state_loop(c, m, psi, strategy)
        assert list(report.labels) == [b[0] for b in reference]
        assert report.probabilities[g].tolist() == [b[1] for b in reference]
        assert report.fidelities[g].tolist() == [b[3] for b in reference]
        for post, (_, _, state, _) in zip(report.post_states[g], reference, strict=True):
            assert (post == state.amplitudes).all()


def _off_span(vectors: np.ndarray, basis: np.ndarray) -> float:
    """Largest norm of a vector's part outside span(``basis`` rows, orthonormal)."""
    inside = (vectors @ basis.conj().T) @ basis
    return float(np.linalg.norm(vectors - inside, axis=-1).max())


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zeroed=st.booleans(),
)
def test_protocol_objects_stay_in_their_two_level_spans(data, n, seed, zeroed):
    # the premise a two-level account of every branch rests on: the family,
    # the corrections and the relay basis each live in two-dimensional spans
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(seed)
    draw = zeroed_condition_coefficients if zeroed else random_condition_coefficients
    c = draw(n, m, rng)
    front, _, wm, _ = excitation_blocks(c, m)
    zeros = zero_state(n - m).amplitudes
    family = np.array([v.amplitudes for v in one_qubit_measurement_family(c, m).vectors])
    # x|0>|A> + y|1>|B>: each half of a vector in span{front, |0..0>}
    halves = family.reshape(8, -1)
    assert _off_span(halves, np.array([front.amplitudes / front.norm, zeros])) <= 1e-12
    pair = np.array([zero_state(m).amplitudes, wm.amplitudes])
    for u in bob_strategy1_set(m, wm):
        assert u.order is None
        # P u P + (1 - P) on the moved indices, and the identity off them
        b = pair[:, u.moved]
        assert np.linalg.norm(b, axis=1).min() >= 1 - 1e-12  # the span lies in the block
        projector = b.T @ b.conj()
        kept = projector @ u.block @ projector + np.eye(len(b[0])) - projector
        assert float(np.abs(u.block - kept).max()) <= 1e-12
    relay = np.array([v.amplitudes for v in serial_basis(m, wm).vectors])
    # (|a>|0> + |b>|1>): both relay-qubit columns in span{|0..0>, |w>}
    columns = relay.reshape(4, 2**m, 2).swapaxes(1, 2).reshape(8, -1)
    assert _off_span(columns, pair) <= 1e-12


def _folded(array) -> bytes:
    """The bytes of ``array`` with every -0 folded into +0."""
    return (np.asarray(array) + 0.0).tobytes()


def _dense_measurement(rows, basis):
    """The (V, G) probabilities and (V, G, 2^r) post-states of a (G, 2^n)
    stack whose leading qubits ``basis`` measures, on the whole joint state:
    one overlap per family vector, a row dot for each norm, then the division.
    The columns are zero-padded to ``support_width``'s count, from which a
    threaded BLAS gives each column one thread's value."""
    psi = rows.reshape(len(rows), 2 ** len(basis.subset), -1)
    pad = support_width(psi.shape[2].bit_length() - 1, psi.shape[2]) - psi.shape[2]
    wide = np.concatenate([psi, np.zeros_like(psi[:, :, :pad])], axis=2)
    branches = np.array([vec.amplitudes.conj() @ wide for vec in basis.vectors])[..., : psi.shape[2]]
    p = np.vecdot(branches, branches).real
    kept = (p > ZERO_PROBABILITY)[:, :, None]
    return p, np.divide(branches, np.sqrt(p)[:, :, None], out=np.zeros_like(branches), where=kept)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    m=st.integers(min_value=1, max_value=11),
    count=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    zeroed=st.booleans(),
)
# the encoded hop's gemv on 2^12 rows: a threaded BLAS splits its sums when
# the block has four or fewer columns, so a width of 4 moves bytes there
@example(n=12, m=3, count=1, seed=0, zeroed=False)
# nine support columns: a width that is not a power of two moves bytes
@example(n=9, m=8, count=1, seed=1, zeroed=False)
def test_support_form_measurement_equals_the_dense_call_bytewise(n, m, count, seed, zeroed):
    # every hop's support form (the sender's, the relay's and the encoded
    # register's), scattered back into its dense joint state: the support form
    # measures each value as the dense call and the dense arithmetic do,
    # down to the sign of a zero
    assume(m < n)
    rng = np.random.default_rng(seed)
    c = (zeroed_condition_coefficients if zeroed else random_condition_coefficients)(n, m, rng)
    grid = unknown_state_grid(count, int(rng.integers(2**31)))
    calls, measure = [], teleport.project_stack

    def recorded(rows, basis, support):
        measured = measure(rows, basis, support)
        calls.append((np.array(rows), basis, support, measured))  # the buffer is reused
        return measured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(teleport, "project_stack", recorded)
        run_teleport_grid(c, m, grid, "serial")
        run_teleport_encoded(c, m, encoded_state(c, m, 0.6, 0.8j))
    assert {len(basis.subset) for _, basis, _, _ in calls} == {n - m + 1, m + 1, n}
    for compact, basis, (rest, columns, kept), measured in calls:
        joint = np.zeros((len(compact), 2 ** len(basis.subset), 2**rest), dtype=np.complex128)
        joint[:, kept[:, None], columns] = compact[:, :, : len(columns)]
        joint = joint.reshape(len(joint), -1)
        dense = project_stack(joint, basis)
        for (label, p, post), want_p, want_post, (_, dense_p, dense_post) in zip(
            measured, *_dense_measurement(joint, basis), dense, strict=True
        ):
            assert _folded(p) == _folded(want_p) == _folded(dense_p), label
            assert _folded(post) == _folded(want_post) == _folded(dense_post), label


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_w16_strategies_read_no_dense_operator_and_hold_no_joint_state(monkeypatch, strategy):
    # W16, m = 8: corrections multiply their moved rows and the hops measure
    # in support form on the kept blocks of the measured axis, so no operator's
    # 256 x 256 view is read and the peak stays under 1.4 MiB (963-1316 KiB
    # measured; 1461-1550 KiB on the whole measured axis, 2 MiB for one dense
    # joint state of 2^17 amplitudes)
    reads = []
    dense = Unitary.matrix.fget
    monkeypatch.setattr(Unitary, "matrix", property(lambda u: reads.append(u) or dense(u)))
    c, grid = w_coefficients(16), unknown_state_grid(20, 4)
    run_teleport_grid(c, 8, grid, strategy)  # warm: first-call allocations aside
    tracemalloc.start()
    try:
        report = run_teleport_grid(c, 8, grid, strategy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.success and not reads
    assert peak < 1.4 * 2**20


_THREAD_PROBE = """
import hashlib
import numpy as np
from oracle_utils import random_condition_coefficients
from wproto.teleport import encoded_state, run_teleport_encoded, run_teleport_grid, unknown_state_grid
digest, reports = hashlib.sha256(), []
for n in (12, 13, 14):
    for seed in range(3):
        c = random_condition_coefficients(n, 2, np.random.default_rng(seed))
        reports.append(run_teleport_encoded(c, 2, encoded_state(c, 2, 0.6, 0.8j)))
        reports += [run_teleport_grid(c, 2, unknown_state_grid(2, seed), s) for s in ("subspace", "serial")]
c = random_condition_coefficients(16, 8, np.random.default_rng(0))
reports.append(run_teleport_grid(c, 8, unknown_state_grid(20, 0), "serial"))
for report in reports:
    for column in (report.probabilities, report.fidelities, report.post_states):
        digest.update(column.tobytes())
print(digest.hexdigest())
"""


def test_teleport_bytes_do_not_depend_on_the_blas_thread_count():
    # the encoded hop at m = 2, n = 12..14 measures 2^n rows on r = 2 receiver
    # qubits: on four columns a threaded BLAS splits the sums, so its block is
    # padded to eight, whose values do not depend on the thread count; the
    # W16, m = 8 relay drops blocks of its measured axis under both counts
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]
