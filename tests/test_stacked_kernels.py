"""The stacked kernels: every row equals the one-state call on that row alone,
and both equal the per-state arithmetic written out below, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wproto.qsim as qsim
from wproto.qsim import (
    PAULIS,
    DimensionError,
    MeasurementBasis,
    NormalizationError,
    ProtocolViolationError,
    StateVector,
    Unitary,
    apply_unitary,
    apply_unitary_stack,
    fidelity,
    fidelity_stack,
    kept_patterns,
    make_basis_state,
    permute_rows_stack,
    project,
    project_stack,
    state_rows,
    support_width,
    zero_state,
)
from wproto.teleport import (
    bob_strategy1_set,
    bob_strategy2_set,
    one_qubit_measurement_family,
    serial_basis,
    unknown_state_grid,
)
from wproto.wstates import excitation_blocks, excitation_indices

from oracle_utils import zeroed_condition_coefficients


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_basis(rng, subset, count) -> MeasurementBasis:
    k = len(subset)
    q, _ = np.linalg.qr(_complex(rng, 2**k, 2**k))
    vectors = [StateVector(k, q[:, i]) for i in range(count)]
    return MeasurementBasis(subset, vectors)


def _in_span_rows(rng, basis, n, g) -> np.ndarray:
    """Normalized rows whose support on ``basis.subset`` lies in its span."""
    k = len(basis.subset)
    axes = [q - 1 for q in basis.subset]
    perm = axes + [ax for ax in range(n) if ax not in axes]
    family = np.array([v.amplitudes for v in basis.vectors]).T  # (2^k, count)
    rows = []
    for _ in range(g):
        grouped = family @ _complex(rng, family.shape[1], 2 ** (n - k))
        row = grouped.reshape((2,) * n).transpose(np.argsort(perm)).reshape(-1)
        rows.append(row / np.linalg.norm(row))
    return np.array(rows)


def _grouped(amplitudes, n, subset):
    axes = [q - 1 for q in subset]
    perm = axes + [ax for ax in range(n) if ax not in axes]
    return amplitudes.reshape((2,) * n).transpose(perm).reshape(2 ** len(subset), -1), perm


def _reference_project(amplitudes, n, basis):
    """Per-state projection: (probability, post-state or None) per vector."""
    psi, _ = _grouped(amplitudes, n, basis.subset)
    outcomes = []
    for vec in basis.vectors:
        branch = vec.amplitudes.conj() @ psi
        p = float(np.real(np.vdot(branch, branch)))
        keep = p > 1e-24 and n > len(basis.subset)
        outcomes.append((p, branch / math.sqrt(p) if keep else None))
    return outcomes


def _reference_apply(amplitudes, n, u, subset):
    psi, perm = _grouped(amplitudes, n, subset)
    return (u.matrix @ psi).reshape((2,) * n).transpose(np.argsort(perm)).reshape(-1)


def _subset(data, n):
    order = data.draw(st.permutations(range(1, n + 1)))
    return order[: data.draw(st.integers(min_value=1, max_value=n))]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=8),
    g=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_projection_rows_equal_single_projections(data, n, g, seed):
    rng = np.random.default_rng(seed)
    subset = _subset(data, n)
    count = data.draw(st.integers(min_value=1, max_value=2 ** len(subset)))
    basis = _random_basis(rng, subset, count)
    rows = _in_span_rows(rng, basis, n, g)
    stacked = project_stack(rows, basis)
    assert [label for label, _, _ in stacked] == list(basis.labels)
    for row_index, row in enumerate(rows):
        single = project(StateVector(n, row), basis)
        reference = _reference_project(row, n, basis)
        for (label, p, post), outcome, (ref_p, ref_post) in zip(stacked, single, reference):
            assert label == outcome.label
            assert p[row_index] == outcome.probability == ref_p
            if outcome.post_state is None:
                assert ref_post is None
                assert post is None or not post[row_index].any()
            else:
                assert (post[row_index] == outcome.post_state.amplitudes).all()
                assert (post[row_index] == ref_post).all()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=8),
    g=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    normalized=st.booleans(),
)
def test_unitary_rows_equal_single_applications(data, n, g, seed, normalized):
    rng = np.random.default_rng(seed)
    subset = _subset(data, n)
    q, _ = np.linalg.qr(_complex(rng, 2 ** len(subset), 2 ** len(subset)))
    u = Unitary(q)
    rows = _complex(rng, g, 2**n)
    if normalized:
        rows /= np.linalg.norm(rows, axis=1)[:, None]
    stacked = apply_unitary_stack(rows[None], [u], subset)[0]
    assert stacked.shape == rows.shape
    for row, out in zip(rows, stacked):
        assert (out == apply_unitary(StateVector(n, row), u, subset).amplitudes).all()
        assert (out == _reference_apply(row, n, u, subset)).all()


def _folded(array) -> bytes:
    """The bytes of ``array`` with every -0 folded into +0."""
    return (np.asarray(array) + 0.0).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    k=st.integers(min_value=1, max_value=5),
    rest=st.integers(min_value=0, max_value=3),
    g=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    flipped=st.booleans(),
)
def test_moved_row_application_equals_the_dense_product_bytewise(data, k, rest, g, seed, flipped):
    # 1, 2, ... or all of the 2^k indices moved, with or without a row order
    # (general_encoding_set's flips i -> i XOR 2b), on 0-3 rest qubits: every
    # entry is the dense u.matrix product's, up to the sign of a zero (a
    # copied identity row keeps a -0 that the dense product turns into +0)
    rng = np.random.default_rng(seed)
    dim, n = 2**k, k + rest
    count = data.draw(st.integers(min_value=1, max_value=dim))
    q, _ = np.linalg.qr(_complex(rng, count, count))
    u = Unitary.on_block(dim, np.sort(rng.choice(dim, count, replace=False)), q)
    if flipped and k > 1:
        flip = np.arange(dim) ^ 2 * int(rng.integers(1, dim // 2))
        u = permute_rows_stack([u], [flip])[0]
    subset = data.draw(st.permutations(range(1, n + 1)))[:k]
    rows = _complex(rng, g, 2**n)
    zeros = rng.random(2**n) < 0.3
    zeros[rng.integers(2**n)] = False
    rows[:, zeros] = 0.0  # exact zeros in every row, never all of it
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    stacked = apply_unitary_stack(rows[None], [u], subset)[0]
    for row, out in zip(rows, stacked, strict=True):
        assert _folded(out) == _folded(_reference_apply(row, n, u, subset))


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=12),
    rest=st.integers(min_value=0, max_value=2),
    g=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    stack=st.sampled_from(("strategy1", "strategy2", "pauli")),
)
def test_a_stacked_apply_equals_one_apply_per_operator(data, n, rest, g, seed, stack):
    # the K operators of a correction set applied in one call, each to its own
    # block of G rows with exact zeros, on its qubits among ``rest`` others:
    # each block equals a one-operator call on it, up to the sign of a zero
    m = data.draw(st.integers(min_value=1, max_value=n - 1), label="m")
    rng = np.random.default_rng(seed)
    wm = excitation_blocks(zeroed_condition_coefficients(n, m, rng), m)[2]
    ops = {"strategy1": bob_strategy1_set, "strategy2": bob_strategy2_set}.get(stack)
    ops, k = (PAULIS, 1) if ops is None else (ops(m, wm), m)
    subset = data.draw(st.permutations(range(1, k + rest + 1)), label="order")[:k]
    rows = _complex(rng, len(ops), g, 2 ** (k + rest))
    rows[:, :, rng.random(2 ** (k + rest)) < 0.3] = 0.0
    rows[:, :, 0] = 1.0  # never all zero
    rows /= np.linalg.norm(rows, axis=2)[:, :, None]
    stacked = apply_unitary_stack(rows, ops, subset)
    assert stacked.shape == rows.shape
    for block, u, out in zip(rows, ops, stacked, strict=True):
        assert _folded(out) == _folded(apply_unitary_stack(block[None], [u], subset)[0])


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_operators_on_different_indices_are_refused_in_one_call(k, seed, data):
    dim, rng = 2**k, np.random.default_rng(seed)
    size = data.draw(st.integers(min_value=1, max_value=dim), label="moved")
    first = np.sort(rng.choice(dim, size, replace=False))
    second = data.draw(st.sets(st.integers(0, dim - 1), min_size=1), label="other moved")
    ops = [Unitary.on_block(dim, idx, np.linalg.qr(_complex(rng, len(idx), len(idx)))[0])
           for idx in (first, sorted(second))]
    rows = _complex(rng, 2, 3, dim)
    rows /= np.linalg.norm(rows, axis=2)[:, :, None]
    if first.tolist() == sorted(second):
        assert apply_unitary_stack(rows, ops, range(1, k + 1)).shape == rows.shape
    else:
        with pytest.raises(ValueError, match="same indices"):
            apply_unitary_stack(rows, ops, range(1, k + 1))
    with pytest.raises(DimensionError):  # one block of rows per operator
        apply_unitary_stack(rows[:1], ops, range(1, k + 1))


def test_zero_probability_branch_has_no_post_state():
    # qubit 1 of |0>(x)|+> and of |+>(x)|+>, measured in {|0>, |1>}
    k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
    basis = MeasurementBasis([1], [k0, k1], ["0", "1"])
    h = 1 / np.sqrt(2)
    rows = np.array([[h, h, 0, 0], [0.5, 0.5, 0.5, 0.5]], dtype=complex)
    (_, p0, post0), (_, p1, post1) = project_stack(rows, basis)
    assert p1[0] == 0.0 and not post1[0].any()
    assert p1[1] == pytest.approx(0.5)
    np.testing.assert_allclose(post1[1], [h, h], rtol=0, atol=1e-15)
    np.testing.assert_allclose(post0, [[h, h], [h, h]], rtol=0, atol=1e-15)
    single = project(StateVector(2, rows[0]), basis)
    assert single[1].probability == 0.0 and single[1].post_state is None


@pytest.mark.parametrize("bad_row", [0, 2, 4])
def test_an_unnormalized_row_anywhere_raises(bad_row):
    rng = np.random.default_rng(bad_row)
    basis = _random_basis(rng, [2, 1], 4)
    rows = _in_span_rows(rng, basis, 3, 5)
    rows[bad_row] *= 1.001
    with pytest.raises(NormalizationError):
        project_stack(rows, basis)


@pytest.mark.parametrize("bad_row", [0, 3, 5])
def test_an_out_of_span_row_anywhere_raises(bad_row):
    rng = np.random.default_rng(bad_row)
    basis = _random_basis(rng, [3, 1], 2)
    rows = _in_span_rows(rng, basis, 4, 6)
    outside = _complex(rng, 16)
    rows[bad_row] = outside / np.linalg.norm(outside)
    with pytest.raises(ProtocolViolationError, match="outside the span"):
        project_stack(rows, basis)


@pytest.mark.parametrize(
    "rows", [np.zeros(4, dtype=complex), np.zeros((2, 3), dtype=complex), np.zeros((2, 1))]
)
def test_stack_shape_is_checked(rows):
    basis = MeasurementBasis([1], [make_basis_state(1, [0])])
    with pytest.raises(DimensionError):
        project_stack(rows, basis)
    with pytest.raises(DimensionError):
        apply_unitary_stack(rows[None], [Unitary(np.eye(2))], [1])


def test_support_block_shape_is_checked():
    # one block row per kept pattern: all four, or the two listed
    basis = MeasurementBasis([1, 2], [make_basis_state(2, [0, 0])])
    for block, kept in [
        (np.zeros((2, 4)), np.arange(4)),
        (np.zeros((2, 2, 4)), np.arange(4)),
        (np.zeros((1, 4, 2, 2)), np.arange(4)),
        (np.zeros((2, 4, 2)), np.arange(2)),
    ]:
        with pytest.raises(DimensionError):
            qsim._measure_block(block, basis, (2, np.arange(2), kept))


def _full_and_kept_blocks(rows, resource, k):
    """Each row (x) the ``resource`` (qubits, support, amplitudes) as the
    support block of its k leading qubits, on all 2^k patterns and on
    :func:`kept_patterns`' blocks of the occupied ones, with its (r, columns)."""
    qubits, index, amplitudes = resource
    r = rows.shape[1].bit_length() - 1 + qubits - k
    rest = index & ((1 << r) - 1)
    columns = np.unique(rest)
    width = support_width(r, len(columns))
    columns = np.arange(width) if width == 2**r else columns
    patterns = np.arange(rows.shape[1])[:, None] << (qubits - r) | index >> r
    full = np.zeros((len(rows), 2**k, width), dtype=np.complex128)
    full[:, patterns, np.searchsorted(columns, rest)] = rows[:, :, None] * amplitudes
    kept = kept_patterns(k, patterns[rows.any(axis=0)])
    return full, full[:, kept], (r, columns), kept


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    m=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=16, m=8, seed=0)  # both hops drop blocks: 96 and 56 of 512 patterns kept
def test_kept_blocks_measure_as_the_full_measured_axis_bytewise(n, m, seed):
    # the sender's hop on a W-class support with exact zeros and the relay's
    # on the Bell pair, each measured on the kept blocks of its measured axis
    # and on the whole axis: every value is the same, down to the sign of a zero
    assume(m < n)
    rng = np.random.default_rng(seed)
    c = zeroed_condition_coefficients(n, m, rng)
    wm = excitation_blocks(c, m)[2]
    inputs = np.array([psi.amplitudes for psi in unknown_state_grid(3, seed)])
    pairs = _complex(rng, 4, 2)
    pairs /= np.linalg.norm(pairs, axis=1)[:, None]
    registers = pairs[:, :1] * zero_state(m).amplitudes + pairs[:, 1:] * wm.amplitudes
    bell = np.array([0, 3]), np.full(2, 1 / math.sqrt(2), dtype=np.complex128)
    hops = [
        (inputs, (n, excitation_indices(n), c.coeffs), one_qubit_measurement_family(c, m)),
        (registers, (2, *bell), serial_basis(m, wm)),
    ]
    for rows, resource, basis in hops:
        k = len(basis.subset)
        full, compact, (r, columns), kept = _full_and_kept_blocks(rows, resource, k)
        whole = qsim._measure_block(full, basis, (r, columns, np.arange(2**k)))
        for label, p, post, want_p, want_post in zip(
            basis.labels, *qsim._measure_block(compact, basis, (r, columns, kept)), *whole, strict=True
        ):
            assert _folded(p) == _folded(want_p), label
            assert _folded(post) == _folded(want_post), label


def _dot_stacks(width):
    """A contiguous (4, width) stack, with one all-zero row and exact zeros
    in the others, and a strided view of a wider stack."""
    rng = np.random.default_rng(width)
    rows = _complex(rng, 4, width)
    rows[1] = 0.0
    rows[2, ::3] = 0.0
    rows[3, : width // 2] = 0.0
    wide = _complex(rng, 5, 2 * width)
    wide[2, ::4] = 0.0
    return [rows, wide[::2, ::2]]


@pytest.mark.parametrize("width", [2**k for k in range(1, 18)])
def test_batched_dot_equals_vdot_row_by_row(width):
    # every byte-stable report rests on this equality: norms, probabilities
    # and fidelities are batched dots, and each must equal np.vdot exactly
    for rows in _dot_stacks(width):
        other = rows[::-1]
        norms = qsim._norms_squared(rows)
        overlaps = np.vecdot(rows, other)
        for g, (a, b) in enumerate(zip(rows, other)):
            assert norms[g] == np.vdot(a, a).real
            assert overlaps[g] == np.vdot(a, b)
        # the real dots np.linalg.norm sums for a complex vector
        for part in (rows.real, rows.imag):
            dots = np.vecdot(part, part)
            assert all(dots[g] == r.dot(r) for g, r in enumerate(part))


def test_state_rows_equal_state_vectors():
    rng = np.random.default_rng(5)
    rows = _complex(rng, 4, 8)
    rows[:2] /= np.linalg.norm(rows[:2], axis=1)[:, None]
    rows[3] = 0.0
    states = state_rows(rows)
    for row, state in zip(rows, states, strict=True):
        one = StateVector(3, row)
        assert state.num_qubits == 3 and state.normalized == one.normalized
        assert (state.amplitudes == one.amplitudes).all()
        assert not state.amplitudes.flags.writeable
    assert [s.normalized for s in states] == [True, True, False, False]
    rows[0] = 0.0  # the states hold a copy
    assert states[0].normalized and states[0].amplitudes.any()


def test_fidelity_stack_rows_equal_fidelity():
    rng = np.random.default_rng(6)
    a, b = _complex(rng, 5, 4), _complex(rng, 5, 4)
    a /= np.linalg.norm(a, axis=1)[:, None]
    b /= np.linalg.norm(b, axis=1)[:, None]
    stacked = fidelity_stack(a, b)
    for g, (x, y) in enumerate(zip(a, b)):
        overlap = np.vdot(x, y)
        modulus = np.hypot(overlap.real, overlap.imag)  # abs() of a Python complex
        assert modulus == abs(complex(overlap))
        assert stacked[g] == fidelity(StateVector(2, x), StateVector(2, y)) == modulus * modulus


def test_fidelity_stack_holds_its_second_stack_against_each_block_of_the_first():
    rng = np.random.default_rng(7)
    a, b = _complex(rng, 12, 4), _complex(rng, 3, 4)
    a /= np.linalg.norm(a, axis=1)[:, None]
    b /= np.linalg.norm(b, axis=1)[:, None]
    stacked = fidelity_stack(a, b)
    assert (stacked == fidelity_stack(a, np.tile(b, (4, 1)))).all()
    for g, x in enumerate(a):
        assert stacked[g] == fidelity(StateVector(2, x), StateVector(2, b[g % 3]))
    with pytest.raises(DimensionError):
        fidelity_stack(a[:11], b)


@pytest.mark.parametrize("side", [0, 1])
def test_fidelity_stack_refuses_an_unnormalized_row_on_either_side(side):
    rng = np.random.default_rng(side)
    stacks = [_complex(rng, 3, 4), _complex(rng, 3, 4)]
    for rows in stacks:
        rows /= np.linalg.norm(rows, axis=1)[:, None]
    stacks[side][2] *= 1.001
    with pytest.raises(NormalizationError):
        fidelity_stack(*stacks)
    with pytest.raises(DimensionError):
        fidelity_stack(stacks[0], stacks[1][:, :2])
