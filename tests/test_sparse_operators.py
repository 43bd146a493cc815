"""Operator work that skips exact zeros, checked against the dense rules.

``Unitary`` checks U†U on the block of indices the matrix moves,
``Unitary.permute_rows`` checks only that the row order is a bijection, and
``capacity_check`` encodes on the occupied rows of the resource.  Each is
compared here with the dense computation it replaces.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.qsim as qsim
import wproto.sdc as sdc
from wproto.cli import parse_config, run
from wproto.qsim import STRUCTURAL_TOL, Unitary, apply_unitary, unitarity_deviation
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
from wproto.teleport import UnsuitableResourceError, require_condition
from wproto.wstates import CoefficientVector, generalized_w, w_coefficients

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


def assert_same_verdict(mat: np.ndarray) -> None:
    block, dense = unitarity_deviation(mat), dense_deviation(mat)
    if np.isnan(dense):
        assert np.isnan(block)
    else:
        assert abs(block - dense) <= 1e-15
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
        assert unitarity_deviation(np.eye(dim, dtype=np.complex128)) == 0.0
        assert accepted(np.eye(dim))

    def test_a_diagonal_entry_off_one_is_in_the_block(self):
        mat = np.eye(4, dtype=np.complex128)
        mat[2, 2] = 1 + 1e-6
        assert unitarity_deviation(mat) == dense_deviation(mat) > STRUCTURAL_TOL
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


class TestPermuteRows:
    @settings(max_examples=200, deadline=None)
    @given(
        qubits=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_the_checked_construction_or_refuses(self, qubits, seed, data):
        dim = 2**qubits
        u = Unitary(haar(np.random.default_rng(seed), dim))
        order = data.draw(
            st.permutations(range(dim))
            | st.lists(st.integers(-2, dim + 1), min_size=dim - 1, max_size=dim + 1),
            label="order",
        )
        if data.draw(st.booleans(), label="repeat an index"):
            i, j = data.draw(st.tuples(*[st.integers(0, len(order) - 1)] * 2), label="i, j")
            order[i] = order[j]
        if sorted(order) == list(range(dim)):
            got = u.permute_rows(order)
            want = Unitary(u.matrix[order])
            assert got.dimension == want.dimension
            np.testing.assert_array_equal(got.matrix, want.matrix)
            assert not got.matrix.flags.writeable
        else:
            with pytest.raises(ValueError, match="row order"):
                u.permute_rows(order)

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
            Unitary(np.eye(4)).permute_rows(np.array(order))


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
    stretched = object.__new__(Unitary)  # skips the check it would fail
    stretched.dimension, stretched.matrix = 4, 2 * np.eye(4, dtype=np.complex128)
    encoding = EncodingSet((stretched,) + w4_multiunary_set().operators[1:])
    with pytest.raises(qsim.InternalConsistencyError, match="preserve the norm"):
        capacity_check(c, 2, encoding)


def test_every_operator_built_passes_the_dense_check(monkeypatch):
    """Dense shadow: every operator the acceptance and large configs build,
    by the constructor or by a row permutation, also passes the dense U†U
    rule, so no structural shortcut accepts what that rule refuses."""
    checked = Counter()
    init, permute = Unitary.__init__, Unitary.permute_rows

    def shadow(u: Unitary, kind: str) -> None:
        assert dense_deviation(u.matrix) <= STRUCTURAL_TOL
        checked[kind] += 1

    def shadowed_init(self, matrix):
        init(self, matrix)
        shadow(self, "constructed")

    def shadowed_permute(self, order):
        out = permute(self, order)
        shadow(out, "permuted")
        return out

    monkeypatch.setattr(Unitary, "__init__", shadowed_init)
    monkeypatch.setattr(Unitary, "permute_rows", shadowed_permute)
    for config in (ROOT / "configs" / "acceptance.json", ROOT / "tests" / "config_large.json"):
        assert run(parse_config(config.read_bytes())).all_matched
    assert checked["constructed"] > 0 and checked["permuted"] > 0
