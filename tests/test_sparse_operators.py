"""Operator work that skips exact zeros, checked against the dense rules.

``Unitary`` holds the identity plus a block on the indices it moves and an
optional row order: ``Unitary(matrix)`` finds the moved indices and checks
U†U on their block, ``Unitary.on_block`` takes the block (or a stack of
blocks) as given, ``permute_rows_stack`` checks only that each row order is a
bijection, ``bob_strategy2_set`` composes two stacks on their shared indices,
and ``capacity_check`` encodes each base block once on the resource's two
Schmidt columns and gathers every message from them.  Each is compared here with the dense computation it
replaces, and each stacked check with its one-item case.
"""

import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.qsim as qsim
import wproto.sdc as sdc
import wproto.teleport as teleport
from wproto.cli import parse_config, run
from wproto.qsim import (
    PAULI_FOUR,
    STRUCTURAL_TOL,
    Unitary,
    _block_deviation,
    apply_unitary,
    permute_rows_stack,
)
from wproto.sdc import (
    CapacityResult,
    EncodingSet,
    capacity_check,
    decode,
    general_encoding_set,
    pauli_product_set,
    pauli_set,
    w4_multiunary_set,
)
from wproto.teleport import (
    UnsuitableResourceError,
    bob_strategy1_set,
    bob_strategy2_set,
    require_condition,
    transfer_unitary,
)
from wproto.wstates import CoefficientVector, excitation_blocks, generalized_w, w_coefficients

from oracle_utils import dense_strategy1_set, dense_strategy2_set, dense_transfer

ROOT = Path(__file__).resolve().parent.parent
EPSILONS = (1e-12, 1e-9, 1e-6)


def dense_deviation(mat: np.ndarray) -> float:
    """The dense rule the block check replaces."""
    return float(np.abs(mat.conj().T @ mat - np.eye(len(mat))).max())


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def accepted(mat: np.ndarray) -> bool:
    try:
        Unitary(mat)
    except ValueError:
        return False
    return True


@st.composite
def structured_unitaries(draw):
    """(matrix, block indices): identity plus a Haar block on random indices,
    optionally row- or column-permuted, or a dense Haar unitary."""
    dim = 2 ** draw(st.integers(1, 8), label="qubits")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = draw(st.sampled_from(("block", "rows", "columns", "dense")), label="shape")
    if shape == "dense":
        return haar(rng, dim), np.arange(dim)
    k = draw(st.integers(1, dim), label="block size")
    idx = np.sort(rng.choice(dim, size=k, replace=False))
    mat = np.eye(dim, dtype=np.complex128)
    mat[idx[:, None], idx] = haar(rng, k)
    perm = rng.permutation(dim)
    if shape == "rows":
        mat = mat[perm]
    elif shape == "columns":
        mat = mat[:, perm]
    if shape != "block":  # the permutation moves every index it does not fix
        moved = (mat != np.eye(dim)).any(axis=0) | (mat != np.eye(dim)).any(axis=1)
        idx = moved.nonzero()[0]
    return mat, idx


def block_deviation(mat: np.ndarray) -> float:
    """max |B†B - I| by ``Unitary(mat)``'s block rule: read from the accepted
    operator's block, or from the refusal, which prints it to four digits."""
    try:
        return _block_deviation(Unitary(mat).block)
    except ValueError as refused:
        return float(re.search(r"deviation (\S+)\)", str(refused)).group(1))


def assert_same_verdict(mat: np.ndarray) -> None:
    block, dense = block_deviation(mat), dense_deviation(mat)
    if np.isnan(dense):
        assert np.isnan(block)
    elif accepted(mat):
        assert abs(block - dense) <= 1e-15
    else:
        assert block == pytest.approx(dense, rel=5e-4)
    assert accepted(mat) == (dense <= STRUCTURAL_TOL)
    assert (block <= STRUCTURAL_TOL) == (dense <= STRUCTURAL_TOL)


class TestBlockCheck:
    @settings(max_examples=150, deadline=None)
    @given(case=structured_unitaries())
    def test_unperturbed_matrices_match_the_dense_check(self, case):
        mat, _ = case
        assert_same_verdict(mat)
        assert accepted(mat)

    @settings(max_examples=200, deadline=None)
    @given(
        case=structured_unitaries(),
        eps=st.sampled_from(EPSILONS),
        inside=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_perturbed_entry_matches_the_dense_check(self, case, eps, inside, seed):
        mat, idx = case
        rng = np.random.default_rng(seed)
        dim = len(mat)
        outside = np.setdiff1d(np.arange(dim), idx)
        if inside or not outside.size:
            i, j = rng.choice(idx), rng.choice(idx)
        else:  # an entry whose row or column the block does not reach
            i, j = rng.choice(outside), rng.choice(np.arange(dim))
            if rng.integers(2):
                i, j = j, i
        mat = mat.copy()
        mat[i, j] += eps * np.exp(2j * np.pi * rng.random())
        assert_same_verdict(mat)
        if eps == EPSILONS[-1]:
            assert not accepted(mat)

    @settings(max_examples=100, deadline=None)
    @given(case=structured_unitaries(), seed=st.integers(0, 2**32 - 1))
    def test_a_phase_on_an_unmoved_diagonal_entry_is_still_unitary(self, case, seed):
        mat, idx = case
        outside = np.setdiff1d(np.arange(len(mat)), idx)
        if not outside.size:
            return
        rng = np.random.default_rng(seed)
        mat = mat.copy()
        mat[rng.choice(outside)] *= np.exp(1j * rng.uniform(0.1, 2 * np.pi - 0.1))
        assert_same_verdict(mat)
        assert accepted(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (3, 5), (6, 6)])
    def test_non_finite_entries_are_refused(self, bad, where):
        mat = np.eye(8, dtype=np.complex128)
        mat[:2, :2] = [[0, 1], [1, 0]]
        mat[where] = bad
        assert not accepted(mat)
        assert not accepted(mat[::-1])

    @pytest.mark.parametrize("dim", [2, 16, 256])
    def test_identity_has_an_empty_block(self, dim):
        u = Unitary(np.eye(dim, dtype=np.complex128))
        assert u.moved.size == 0 and u.block.shape == (0, 0)
        assert _block_deviation(u.block) == 0.0

    def test_a_diagonal_entry_off_one_is_in_the_block(self):
        mat = np.eye(4, dtype=np.complex128)
        mat[2, 2] = 1 + 1e-12
        u = Unitary(mat)
        assert u.moved.tolist() == [2]
        assert _block_deviation(u.block) == dense_deviation(mat) > 0
        mat[2, 2] = 1 + 1e-6
        assert block_deviation(mat) == pytest.approx(dense_deviation(mat), rel=5e-4)
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(mat)

    def test_the_strategy_corrections_move_few_indices(self):
        # at m = 8 a strategy-2 correction moves at most |0..0> and the eight
        # single-excitation indices: 9 of 256 (those built on sigma_0 and
        # sigma_3 fix |0..0>)
        encoding = general_encoding_set(CoefficientVector([0.5] * 2 + [0.25] * 8), 8)
        moved = [
            ((op.matrix != np.eye(256)).any(axis=0) | (op.matrix != np.eye(256)).any(axis=1)).sum()
            for op in encoding.operators[:4]
        ]
        assert moved == [8, 9, 9, 8]


def block_operator(rng: np.random.Generator, dim: int, k: int) -> Unitary:
    """Identity plus a Haar block on k random indices, built on the block."""
    return Unitary.on_block(dim, np.sort(rng.choice(dim, size=k, replace=False)), haar(rng, k))


class TestBlockRepresentation:
    @settings(max_examples=100, deadline=None)
    @given(case=structured_unitaries())
    def test_a_matrix_is_kept_as_its_moved_indices_and_block(self, case):
        mat, _ = case
        u = Unitary(mat)
        assert (np.diff(u.moved) > 0).all() and u.order is None
        rebuilt = Unitary.on_block(len(mat), u.moved, u.block)
        np.testing.assert_array_equal(rebuilt.matrix, mat)
        assert np.array_equal(rebuilt.moved, u.moved)

    @settings(max_examples=100, deadline=None)
    @given(qubits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_the_dense_view_is_read_only_and_the_identity_off_the_block(self, qubits, seed, data):
        dim = 2**qubits
        rng = np.random.default_rng(seed)
        u = block_operator(rng, dim, data.draw(st.integers(0, dim), label="block size"))
        perm = rng.permutation(dim)
        for op in (u, permute_rows_stack([u], [perm])[0]):
            mat = op.matrix
            assert mat is op.matrix  # built once
            assert not mat.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 2.0
            assert dense_deviation(mat) <= STRUCTURAL_TOL
        mat = u.matrix
        off = np.setdiff1d(np.arange(dim), u.moved)
        np.testing.assert_array_equal(mat[off], np.eye(dim)[off])
        np.testing.assert_array_equal(mat[:, off], np.eye(dim)[:, off])
        np.testing.assert_array_equal(mat[np.ix_(u.moved, u.moved)], u.block)
        np.testing.assert_array_equal(permute_rows_stack([u], [perm])[0].matrix, mat[perm])

    def test_a_dense_matrix_is_its_own_block(self):
        """A matrix that moves every index is stored once: its block is its matrix."""
        rng = np.random.default_rng(5)
        for matrix in (PAULI_FOUR[1], np.kron(PAULI_FOUR[2], PAULI_FOUR[1]), haar(rng, 8)):
            u = Unitary(matrix)
            assert len(u.moved) == len(matrix)
            assert u.block is u.matrix and np.shares_memory(u.block, u.matrix)
            np.testing.assert_array_equal(u.matrix, matrix)
        partial = Unitary(np.kron(np.eye(2), PAULI_FOUR[1]))  # moves all four indices too
        assert partial.block is partial.matrix
        diagonal = Unitary(np.diag([1, 1, 1, -1]))  # moves one index: a separate 1 x 1 block
        assert diagonal.block.shape == (1, 1)
        assert not np.shares_memory(diagonal.block, diagonal.matrix)

    @pytest.mark.parametrize(
        "moved, block",
        [
            ([1, 0], np.eye(2)),  # not sorted
            ([0, 0], np.eye(2)),  # repeated
            ([-1, 0], np.eye(2)),  # negative
            ([0, 4], np.eye(2)),  # out of range
            ([0.0, 1.0], np.eye(2)),  # not integers
            ([False, True], np.eye(2)),  # booleans
            ([[0, 1]], np.eye(2)),  # not one axis
        ],
    )
    def test_on_block_refuses_bad_indices(self, moved, block):
        with pytest.raises(ValueError, match="moved indices"):
            Unitary.on_block(4, moved, block)

    def test_on_block_refuses_a_bad_block_or_dimension(self):
        with pytest.raises(qsim.DimensionError, match="2x2 block"):
            Unitary.on_block(4, [0, 1], np.eye(3))
        with pytest.raises(ValueError, match="not unitary"):
            Unitary.on_block(4, [0, 1], [[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="not unitary"):
            Unitary.on_block(4, [0, 1], [[np.inf, 0], [0, 1]])
        with pytest.raises(qsim.DimensionError, match="power of two"):
            Unitary.on_block(6, [0, 1], np.eye(2))
        with pytest.raises(ValueError, match="expected an integer"):
            Unitary.on_block(True, [0], np.eye(1))
        assert Unitary.on_block(4, [], np.eye(0)).matrix.tolist() == np.eye(4).tolist()


def _refusal(call) -> type | None:
    try:
        call()
    except Exception as exc:  # the type is the verdict
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 5),
    count=st.integers(1, 4),
    flaw=st.sampled_from(("none", "not unitary", "nan", "inf", "shape", "unsorted", "range")),
    eps=st.sampled_from(EPSILONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_block_stack_refuses_what_its_blocks_refuse_alone(k, count, flaw, eps, seed):
    """One ``on_block`` call on K blocks refuses exactly when one of K calls
    on a single block refuses, with the first such call's exception type;
    otherwise it gives the same K operators."""
    rng = np.random.default_rng(seed)
    moved = np.sort(rng.choice(8, size=k, replace=False))
    blocks = np.stack([haar(rng, k) for _ in range(count)])
    j, r, c = (int(rng.integers(bound)) for bound in (count, k, k))
    if flaw == "not unitary":  # 1e-12 still passes, 1e-6 fails
        blocks[j, r, c] += eps
    elif flaw in ("nan", "inf"):
        blocks[j, r, c] = np.nan if flaw == "nan" else np.inf
    elif flaw == "shape":
        blocks = blocks[:, :, 1:]
    elif flaw == "unsorted":
        moved = moved[::-1]
    elif flaw == "range":
        moved[-1] = 8
    alone = [_refusal(lambda b=b: Unitary.on_block(8, moved, b)) for b in blocks]
    stacked = _refusal(lambda: Unitary.on_block(8, moved, blocks))
    assert stacked == next((refused for refused in alone if refused is not None), None)
    if stacked is None:
        ops = Unitary.on_block(8, moved, blocks)
        assert isinstance(ops, tuple) and len(ops) == count
        for op, block in zip(ops, blocks):
            single = Unitary.on_block(8, moved, block)
            np.testing.assert_array_equal(op.matrix, single.matrix)
            assert op.moved.tolist() == single.moved.tolist() and op.order is None
            assert not op.block.flags.writeable


@settings(max_examples=200, deadline=None)
@given(qubits=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_an_order_stack_refuses_any_row_that_is_not_a_bijection(qubits, seed, data):
    """One ``permute_rows_stack`` call on F orders refuses exactly when one of
    the F orders alone is refused; otherwise item f·K + k is operator k
    permuted by order f, sharing its block."""
    dim = 2**qubits
    rng = np.random.default_rng(seed)
    ops = [block_operator(rng, dim, dim // 2) for _ in range(data.draw(st.integers(1, 4)))]
    ops[0] = permute_rows_stack(ops[:1], [rng.permutation(dim)])[0]  # an earlier order composes
    orders = [list(rng.permutation(dim)) for _ in range(data.draw(st.integers(1, 4)))]
    flaw = data.draw(st.sampled_from(("none", "repeat", "negative", "range", "short")))
    f, i, j = (int(rng.integers(bound)) for bound in (len(orders), dim, dim))
    if flaw == "repeat" and i != j:
        orders[f][i] = orders[f][j]
    elif flaw in ("negative", "range"):
        orders[f][i] = -1 if flaw == "negative" else dim
    elif flaw == "short":
        orders = [order[:-1] for order in orders]
    bijections = [sorted(order) == list(range(dim)) for order in orders]
    if not all(bijections):
        with pytest.raises(ValueError, match="row order"):
            permute_rows_stack(ops, orders)
        for order, fine in zip(orders, bijections):
            alone = _refusal(lambda: permute_rows_stack(ops[:1], [order]))
            assert alone is (None if fine else ValueError)
        return
    got = permute_rows_stack(ops, orders)
    assert len(got) == len(orders) * len(ops)
    for index, u in enumerate(got):
        order, base = orders[index // len(ops)], ops[index % len(ops)]
        assert u.block is base.block and not u.order.flags.writeable
        np.testing.assert_array_equal(u.matrix, base.matrix[order])
        np.testing.assert_array_equal(u.matrix, permute_rows_stack([base], [order])[0].matrix)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_block_built_corrections_match_the_dense_formulas(m, seed, data):
    """The strategy-1 corrections, the transfer and their products, built on
    |0..0>, |0..01> and wm's support, against the dense formulas of
    ``oracle_utils`` for any unit wm orthogonal to |0..0>."""
    rng = np.random.default_rng(seed)
    dim = 2**m
    size = data.draw(st.integers(1, min(dim - 1, 12)), label="support size")
    support = rng.choice(np.arange(1, dim), size=size, replace=False)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
    wm = qsim.StateVector(m, amps / np.linalg.norm(amps))
    for got, want in (
        (bob_strategy1_set(m, wm), dense_strategy1_set(wm.amplitudes)),
        ([transfer_unitary(m, wm)], [dense_transfer(wm.amplitudes)]),
        (bob_strategy2_set(m, wm), dense_strategy2_set(wm.amplitudes)),
    ):
        assert len(got) == len(want)
        for u, ref in zip(got, want):
            assert len(u.moved) <= size + 2
            assert np.abs(u.matrix - ref).max() <= 1e-14


def test_the_strategy2_product_refuses_factors_on_other_indices(monkeypatch):
    """``bob_strategy2_set`` multiplies the transfer block into the strategy-1
    blocks on the indices the corrections move, so corrections on other
    indices, or a transfer that moves an index outside them, are refused, not
    composed on the wrong rows.  The blocks carry no row order: they are one
    (4, k, k) stack, made into operators only after the product."""
    wm = excitation_blocks(w_coefficients(4), 2)[2]  # moved: |00>, |01>, |10>
    other = (np.array([0, 1]), np.tile(np.eye(2, dtype=np.complex128), (4, 1, 1)))
    monkeypatch.setattr(teleport, "_subspace_blocks", lambda m, w: other)
    with pytest.raises(ValueError, match="same indices"):
        bob_strategy2_set(2, wm)
    monkeypatch.undo()
    monkeypatch.setattr(
        teleport, "transfer_unitary", lambda m, w: Unitary.on_block(4, [0, 3], PAULI_FOUR[1])
    )
    with pytest.raises(ValueError, match="some of them"):
        bob_strategy2_set(2, wm)


class TestPermuteRows:
    @settings(max_examples=200, deadline=None)
    @given(
        qubits=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        base=st.sampled_from(("dense", "block", "permuted")),
        data=st.data(),
    )
    def test_equals_the_checked_construction_or_refuses(self, qubits, seed, base, data):
        dim = 2**qubits
        rng = np.random.default_rng(seed)
        u = Unitary(haar(rng, dim)) if base == "dense" else block_operator(rng, dim, dim // 2)
        if base == "permuted":  # a second order composes with the first
            u = permute_rows_stack([u], [rng.permutation(dim)])[0]
        order = data.draw(
            st.permutations(range(dim))
            | st.lists(st.integers(-2, dim + 1), min_size=dim - 1, max_size=dim + 1),
            label="order",
        )
        if data.draw(st.booleans(), label="repeat an index"):
            i, j = data.draw(st.tuples(*[st.integers(0, len(order) - 1)] * 2), label="i, j")
            order[i] = order[j]
        if sorted(order) == list(range(dim)):
            (got,) = permute_rows_stack([u], [order])
            want = Unitary(u.matrix[order])
            assert got.dimension == want.dimension
            assert got.block is u.block  # no copy
            np.testing.assert_array_equal(got.matrix, want.matrix)
            assert not got.matrix.flags.writeable
            assert dense_deviation(got.matrix) <= STRUCTURAL_TOL
        else:
            with pytest.raises(ValueError, match="row order"):
                permute_rows_stack([u], [order])

    @pytest.mark.parametrize(
        "order",
        [
            [0, 0, 2, 3],  # repeated
            [0, 1, 2, -1],  # negative: would index from the end
            [0, 1, 2, 4],  # out of range
            [0, 1, 2],  # short
            [0, 1, 2, 3, 0],  # long
            [[0, 1], [2, 3]],  # not one axis
            [0.0, 1.0, 2.0, 3.0],  # not integers
            [True, False, True, False],  # booleans would be a mask
        ],
    )
    def test_refuses_every_non_bijection(self, order):
        with pytest.raises(ValueError, match="row order"):
            permute_rows_stack([Unitary(np.eye(4))], [np.array(order)])


def reference_capacity(c: CoefficientVector, m: int, encoding: EncodingSet) -> CapacityResult:
    """Dense reference: every message applied to the whole resource."""
    sender = range(c.n - m + 1, c.n + 1)
    verdict = decode([apply_unitary(generalized_w(c), op, sender) for op in encoding.operators])
    size = verdict.num_states
    if verdict.decodable:
        return CapacityResult(size.bit_length() - 1, True, size, size, tuple(range(size)), True)
    orthogonal = np.abs(verdict.gram) <= STRUCTURAL_TOL
    exhaustive = size <= 16
    if exhaustive:
        subset = sdc._max_orthogonal_subset(orthogonal)
    else:
        subset = sdc._greedy_orthogonal_subset(orthogonal)
    bits = len(subset).bit_length() - 1
    return CapacityResult(bits, False, size, len(subset), tuple(subset), exhaustive)


def resource(rng: np.random.Generator, n: int, m: int, kind: str) -> CoefficientVector:
    """Balanced at m (some coefficients zero for "sparse"), or not balanced."""
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "sparse":  # keep one coefficient on each side of the cut
        keep = np.zeros(n, dtype=bool)
        keep[rng.integers(n - m)] = keep[n - m + rng.integers(m)] = True
        a = np.where(keep | (rng.random(n) < 0.5), a, 0)
    if kind == "unbalanced":
        return CoefficientVector.normalize(a)
    front, back = a[: n - m], a[n - m :]
    halves = [front / np.linalg.norm(front), back / np.linalg.norm(back)]
    return CoefficientVector(np.sqrt(0.5) * np.concatenate(halves))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(3, 9),
    set_name=st.sampled_from(("generated", "products", "pauli", "w4")),
    kind=st.sampled_from(("balanced", "sparse", "unbalanced")),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_capacity_equals_the_dense_reference(n, set_name, kind, seed, data):
    if set_name == "pauli":
        m, encoding = 1, pauli_set()
    elif set_name == "w4":
        m, encoding = 2, w4_multiunary_set()
    else:
        m = data.draw(st.integers(1, min(n - 1, 3 if set_name == "products" else 6)), label="m")
    c = resource(np.random.default_rng(seed), n, m, kind)
    if set_name == "products":
        encoding = pauli_product_set(m)
    elif set_name == "generated":
        encoding = general_encoding_set(c, m)
    try:
        require_condition(c, m)
    except UnsuitableResourceError:
        with pytest.raises(UnsuitableResourceError):
            capacity_check(c, m, encoding)
        return
    assert capacity_check(c, m, encoding) == reference_capacity(c, m, encoding)


@pytest.mark.parametrize(
    "c,m,encoding",
    [
        pytest.param(CoefficientVector([0.5] * 4), 2, w4_multiunary_set(), id="w4"),
        pytest.param(CoefficientVector([0.5] * 4), 2, pauli_product_set(2), id="products"),
        pytest.param(
            w_coefficients(8), 4, general_encoding_set(w_coefficients(8), 4), id="generated"
        ),
    ],
)
def test_capacity_makes_no_dense_application(monkeypatch, c, m, encoding):
    calls = Counter()
    for module, name in (
        (qsim, "apply_unitary"),
        (qsim, "apply_unitary_stack"),
        (sdc, "apply_unitary"),
        (sdc, "gram_matrix"),
        (qsim, "gram_matrix"),
        (sdc, "require_condition"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _f=original, _n=name: calls.update([_n]) or _f(*a)
        )
    capacity_check(c, m, encoding)
    assert calls["apply_unitary"] == calls["apply_unitary_stack"] == 0
    assert calls["gram_matrix"] == 1
    assert calls["require_condition"] == 1


def test_a_norm_that_drifts_is_an_internal_error():
    c = CoefficientVector([0.5] * 4)
    stretched = Unitary.on_block(4, range(4), np.eye(4))
    stretched.block = 2 * np.eye(4, dtype=np.complex128)  # after the check it would fail
    encoding = EncodingSet((stretched,) + w4_multiunary_set().operators[1:])
    with pytest.raises(qsim.InternalConsistencyError, match="preserve the norm"):
        capacity_check(c, 2, encoding)


def test_every_operator_built_passes_the_dense_check(monkeypatch):
    """Dense shadow: every operator the acceptance and large configs build,
    from a matrix, on a block or a stack of blocks (the strategy-2 products
    among them), or as an encoding set's message by a row permutation (and
    each permuted one permuted again, composing two orders), also passes the
    dense U†U rule on its ``.matrix``, so no structural shortcut accepts what
    that rule refuses.  A set's messages are built only when read, so each
    set is read as it is made.  The shared named sets are dropped first, so
    they are built again under the shadow."""
    checked = Counter()
    init, on_block = Unitary.__init__, Unitary.on_block.__func__
    permute, made = permute_rows_stack, EncodingSet.__post_init__

    def shadow(built, kind: str):
        for u in built if isinstance(built, (tuple, list)) else (built,):
            assert dense_deviation(u.matrix) <= STRUCTURAL_TOL
            checked[kind] += 1
        return built

    def shadowed_init(self, matrix):
        init(self, matrix)
        shadow(self, "constructed")

    def shadowed_permute(operators, orders):
        out = shadow(permute(operators, orders), "permuted")
        for u in out:
            again = np.random.default_rng(checked["permuted"]).permutation(u.dimension)
            (twice,) = shadow(permute([u], [again]), "permuted twice")
            np.testing.assert_array_equal(twice.matrix, u.matrix[again])
        return out

    monkeypatch.setattr(Unitary, "__init__", shadowed_init)
    monkeypatch.setattr(Unitary, "on_block", classmethod(lambda *a: shadow(on_block(*a), "block")))
    for module in (qsim, sdc):
        monkeypatch.setattr(module, "permute_rows_stack", shadowed_permute)
    monkeypatch.setattr(EncodingSet, "__post_init__", lambda self: made(self) or self.operators)
    for shared in (sdc.pauli_set, sdc.w4_multiunary_set, sdc._pauli_products):
        shared.cache_clear()
    for config in (ROOT / "configs" / "acceptance.json", ROOT / "tests" / "config_large.json"):
        assert run(parse_config(config.read_bytes())).all_matched
    assert min(checked[kind] for kind in ("constructed", "block", "permuted")) > 0


def test_the_largest_generated_set_builds_no_dense_operator(monkeypatch):
    """W16 at m = 8: 512 operators of 256 x 256 are 4 blocks and their row
    orders, and encoding them all on the two Schmidt columns reads no
    operator's dense view.  The peak holds the 4 MiB stack of 512 encoded
    2^8 x 2 states, its 4 MiB Gram matrix, gram - I and its 2 MiB modulus,
    and the set's 0.25 MiB of row orders: measured at 14.5 MiB, under a bound
    that one more 1 MiB operator or stack-sized copy breaks (the occupied
    rows, padded to 16 columns, peaked at 69.4 MiB)."""
    reads = Counter()
    dense = Unitary.matrix.fget
    monkeypatch.setattr(
        Unitary, "matrix", property(lambda u: reads.update([u.dimension]) or dense(u))
    )
    c = w_coefficients(16)
    tracemalloc.start()
    try:
        encoding = general_encoding_set(c, 8)
        result = capacity_check(c, 8, encoding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.decodable and result.bits == 9 and result.set_size == 512
    assert len(encoding.operators) == 512
    assert len({id(op.block) for op in encoding.operators}) == 4
    assert reads[256] == 0
    stack, gram = 512 * 2**8 * 2 * 16, 512**2 * 16
    assert peak < stack + 2.5 * gram + 2**20
