"""Kernel tests: construction invariants, operations, worked examples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wproto.qsim import (
    I_SIGMA_2,
    PAULI_FOUR,
    DensityMatrix,
    DimensionError,
    MeasurementBasis,
    NormalizationError,
    ProtocolViolationError,
    StateVector,
    Unitary,
    apply_unitary,
    fidelity,
    gram_matrix,
    make_basis_state,
    orthonormal_extension,
    partial_trace,
    project,
    superpose,
    tensor,
    von_neumann_entropy,
    zero_state,
)
from wproto.wstates import generalized_w, standard_w, CoefficientVector

from oracle_utils import (
    build_state,
    inner_product,
    ket,
    oracle_entropy,
    oracle_reduced_density,
    random_unitary,
)

H13 = 0.9182958340544896  # -(1/3)log2(1/3) - (2/3)log2(2/3), frozen


def bell_psi_plus() -> StateVector:
    s = 1 / math.sqrt(2)
    return superpose([(s, make_basis_state(2, [0, 1])), (s, make_basis_state(2, [1, 0]))])


class TestStateVector:
    def test_basis_state_single_qubit(self):
        sv = make_basis_state(1, [0])
        np.testing.assert_allclose(sv.amplitudes, [1, 0])
        assert sv.normalized

    def test_basis_state_msb_convention(self):
        # qubit 1 is the most significant bit
        sv = make_basis_state(2, [1, 0])
        assert sv.amplitudes[2] == 1.0
        sv = make_basis_state(3, [0, 0, 1])
        assert sv.amplitudes[1] == 1.0

    def test_basis_state_length_mismatch(self):
        with pytest.raises(DimensionError):
            make_basis_state(3, [0, 1])

    def test_amplitude_count_enforced(self):
        with pytest.raises(DimensionError):
            StateVector(2, [1, 0, 0])

    def test_unnormalized_flagged(self):
        sv = StateVector(1, [0.5, 0.0])
        assert not sv.normalized
        assert sv.norm == pytest.approx(0.5)

    def test_amplitudes_read_only(self):
        sv = make_basis_state(1, [0])
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 0.0


class TestSuperposeTensor:
    def test_identity_superposition(self):
        k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
        sv = superpose([(1, k0), (0, k1)])
        np.testing.assert_allclose(sv.amplitudes, k0.amplitudes)

    def test_bell_state_normalized(self):
        sv = bell_psi_plus()
        assert sv.normalized
        assert sv.norm == pytest.approx(1.0, abs=1e-12)

    def test_three_term_modified_w(self):
        sv = superpose(
            [
                (0.5, make_basis_state(3, [1, 0, 0])),
                (0.5, make_basis_state(3, [0, 1, 0])),
                (1 / math.sqrt(2), make_basis_state(3, [0, 0, 1])),
            ]
        )
        assert sv.normalized

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            superpose([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            superpose([(1, make_basis_state(1, [0])), (1, make_basis_state(2, [0, 0]))])

    def test_tensor_basis_states(self):
        sv = tensor(make_basis_state(1, [0]), make_basis_state(1, [1]))
        np.testing.assert_allclose(sv.amplitudes, make_basis_state(2, [0, 1]).amplitudes)

    def test_tensor_bell_with_zero(self):
        sv = tensor(bell_psi_plus(), make_basis_state(1, [0]))
        expected = build_state(3, {"010": 1 / math.sqrt(2), "100": 1 / math.sqrt(2)})
        np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-15)

    def test_tensor_unknown_with_w4_hand_expansion(self):
        # (a|0> + b|1>) (x) W4 expanded term by term with raw index math
        a = b = 1 / math.sqrt(2)
        psi = StateVector(1, [a, b])
        w4 = standard_w(4)
        got = tensor(psi, w4)
        expected = build_state(
            5,
            {
                "01000": a / 2, "00100": a / 2, "00010": a / 2, "00001": a / 2,
                "11000": b / 2, "10100": b / 2, "10010": b / 2, "10001": b / 2,
            },
        )
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-15)

    def test_tensor_associative_exact_on_basis_states(self):
        for bits in ([0], [1]):
            a = make_basis_state(1, bits)
            b = make_basis_state(2, [1, 0])
            c = make_basis_state(1, [1])
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            np.testing.assert_array_equal(left.amplitudes, right.amplitudes)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_tensor_associative(self, seed):
        # associativity holds to the last ulp; complex float products are
        # not bit-identical across grouping orders
        rng = np.random.default_rng(seed)
        a = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
        b = StateVector(1, rng.normal(size=2) + 1j * rng.normal(size=2))
        c = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        scale = np.abs(left.amplitudes).max()
        np.testing.assert_allclose(
            left.amplitudes, right.amplitudes, rtol=0, atol=1e-14 * max(scale, 1.0)
        )


class TestInnerProductFidelity:
    def test_orthonormal_kets(self):
        k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
        assert inner_product(k0, k0) == 1
        assert inner_product(k0, k1) == 0

    def test_conjugate_linear_first_argument(self):
        a = StateVector(1, [1j, 0])
        b = StateVector(1, [1, 0])
        assert inner_product(a, b) == pytest.approx(-1j)

    def test_sub_block_self_overlap(self):
        # front block of (1/2, 1/2, 1/sqrt(2)) has squared norm 1/2
        from wproto.wstates import sub_w

        c = CoefficientVector([0.5, 0.5, 1 / math.sqrt(2)])
        front = sub_w(c, 1, 2)
        assert inner_product(front, front) == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_basics(self):
        k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
        assert fidelity(k0, k0) == pytest.approx(1.0)
        assert fidelity(k0, k1) == pytest.approx(0.0)

    def test_fidelity_ignores_global_phase(self):
        k0 = make_basis_state(1, [0])
        for theta in (0.3, 1.1, 2.9):
            rotated = StateVector(1, np.exp(1j * theta) * k0.amplitudes)
            assert fidelity(k0, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_requires_normalized(self):
        with pytest.raises(NormalizationError):
            fidelity(StateVector(1, [0.5, 0]), make_basis_state(1, [0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(make_basis_state(1, [0]), make_basis_state(2, [0, 0]))


class TestUnitary:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            Unitary([[1, 0], [0, 2]])

    def test_pauli_four_are_unitary(self):
        for mat in PAULI_FOUR:
            Unitary(mat)

    def test_i_sigma_2_action(self):
        # |0> -> -|1>, |1> -> |0>
        np.testing.assert_array_equal(I_SIGMA_2 @ [1, 0], [0, -1])
        np.testing.assert_array_equal(I_SIGMA_2 @ [0, 1], [1, 0])

    def test_identity_application(self):
        sv = bell_psi_plus()
        out = apply_unitary(sv, Unitary(np.eye(4)), [1, 2])
        np.testing.assert_array_equal(out.amplitudes, sv.amplitudes)

    def test_bit_flip_on_last_qubit_of_w_state(self):
        # flipping qubit n sends the excitation pattern onto |..1> blocks
        c = CoefficientVector([0.5, 0.5, 1 / math.sqrt(2)])
        state = generalized_w(c)
        out = apply_unitary(state, Unitary(PAULI_FOUR[1]), [3])
        expected = build_state(
            3, {"101": 0.5, "011": 0.5, "000": 1 / math.sqrt(2)}
        )
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_wrong_operator_size(self):
        with pytest.raises(DimensionError):
            apply_unitary(bell_psi_plus(), Unitary(np.eye(4)), [1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_norm_preserved_for_random_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state = StateVector(n, raw / np.linalg.norm(raw))
        u = Unitary(random_unitary(2**k, rng))
        subset = list(rng.permutation(np.arange(1, n + 1))[:k])
        out = apply_unitary(state, u, subset)
        assert abs(out.norm - state.norm) <= 1e-12

    def test_subset_order_matters(self):
        # a CNOT-like operator on (1,2) vs (2,1) acts differently
        cnot = Unitary([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        sv = make_basis_state(2, [0, 1])
        up = apply_unitary(sv, cnot, [1, 2])       # control qubit 1: no flip
        down = apply_unitary(sv, cnot, [2, 1])     # control qubit 2: flips qubit 1
        np.testing.assert_array_equal(up.amplitudes, sv.amplitudes)
        np.testing.assert_array_equal(down.amplitudes, make_basis_state(2, [1, 1]).amplitudes)


class TestMeasurementBasis:
    def test_rejects_non_orthonormal(self):
        k0 = make_basis_state(1, [0])
        tilted = StateVector(1, [math.sqrt(0.9), math.sqrt(0.1)])
        with pytest.raises(ProtocolViolationError):
            MeasurementBasis([1], [k0, tilted])

    def test_partial_flag(self):
        basis = MeasurementBasis([1, 2], [bell_psi_plus()])
        assert basis.is_partial

    def test_too_many_vectors(self):
        k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
        with pytest.raises(ValueError):
            MeasurementBasis([1], [k0, k1, k0])


class TestProject:
    def test_bell_first_qubit(self):
        outcomes = project(
            bell_psi_plus(),
            MeasurementBasis([1], [make_basis_state(1, [0]), make_basis_state(1, [1])], ["0", "1"]),
        )
        assert [o.probability for o in outcomes] == pytest.approx([0.5, 0.5], abs=1e-12)
        np.testing.assert_allclose(outcomes[0].post_state.amplitudes, [0, 1], atol=1e-12)
        np.testing.assert_allclose(outcomes[1].post_state.amplitudes, [1, 0], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector(3, raw / np.linalg.norm(raw))
        u = random_unitary(4, rng)
        basis = MeasurementBasis([1, 3], [StateVector(2, row) for row in u])
        outcomes = project(state, basis)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_partial_basis_out_of_span(self):
        ghz3 = superpose(
            [
                (1 / math.sqrt(2), make_basis_state(3, [0, 0, 0])),
                (1 / math.sqrt(2), make_basis_state(3, [1, 1, 1])),
            ]
        )
        partial = MeasurementBasis([1, 2], [bell_psi_plus()])
        with pytest.raises(ProtocolViolationError):
            project(ghz3, partial)

    def test_unnormalized_state_rejected(self):
        basis = MeasurementBasis([1], [make_basis_state(1, [0])])
        with pytest.raises(NormalizationError):
            project(StateVector(1, [0.5, 0]), basis)

    def test_post_state_matches_oracle(self):
        rng = np.random.default_rng(17)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(4, raw / np.linalg.norm(raw))
        vecs = [StateVector(2, row) for row in random_unitary(4, rng)]
        basis = MeasurementBasis([1, 2], vecs)
        outcomes = project(state, basis)
        from oracle_utils import oracle_branch

        for outcome, v in zip(outcomes, vecs):
            branch = oracle_branch(state.amplitudes, v.amplitudes, 4, 2)
            p = float(np.vdot(branch, branch).real)
            assert outcome.probability == pytest.approx(p, abs=1e-12)
            if p > 1e-12:
                np.testing.assert_allclose(
                    outcome.post_state.amplitudes, branch / math.sqrt(p), atol=1e-10
                )


class TestPartialTraceEntropy:
    def test_product_state_is_pure(self):
        rho = partial_trace(make_basis_state(2, [0, 0]), [1])
        np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-14)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_modified_w_last_qubit_maximally_mixed(self):
        c = CoefficientVector([0.5, 0.5, 1 / math.sqrt(2)])
        rho = partial_trace(generalized_w(c), [3])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_w4_half_split_unit_entropy(self):
        rho = partial_trace(standard_w(4), [3, 4])
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-10)

    def test_w3_single_qubit_entropy(self):
        rho = partial_trace(standard_w(3), [1])
        assert von_neumann_entropy(rho) == pytest.approx(H13, abs=1e-12)

    def test_full_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_psi_plus(), [1, 2])

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = StateVector(n, raw / np.linalg.norm(raw))
            k = int(rng.integers(1, n))
            keep = sorted(rng.permutation(np.arange(1, n + 1))[:k].tolist())
            rho = partial_trace(state, keep)
            expected = oracle_reduced_density(state.amplitudes, n, keep)
            np.testing.assert_allclose(rho.entries, expected, atol=1e-12)
            assert von_neumann_entropy(rho) == pytest.approx(
                oracle_entropy(expected), abs=1e-10
            )

    def test_density_matrix_invariants(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, [[1, 0.5], [0.2, 0]])       # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(1, [[0.9, 0], [0, 0]])          # trace != 1
        with pytest.raises(ValueError):
            DensityMatrix(1, [[1.5, 0], [0, -0.5]])       # negative eigenvalue

    def test_maximally_mixed_entropy(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(1.0)


class TestOrthonormalExtension:
    def test_completes_deterministically(self):
        s = 1 / math.sqrt(2)
        seed = [np.array([s, 0, 0, s]), np.array([s, 0, 0, -s])]
        basis1 = orthonormal_extension(seed, 4)
        basis2 = orthonormal_extension(seed, 4)
        np.testing.assert_array_equal(basis1, basis2)
        np.testing.assert_allclose(basis1.conj() @ basis1.T, np.eye(4), atol=1e-12)

    def test_rejects_non_orthogonal_seeds(self):
        with pytest.raises(ValueError):
            orthonormal_extension([np.array([1.0, 0]), np.array([1.0, 0])], 2)


def test_gram_matrix_of_family():
    vecs = [make_basis_state(2, b) for b in ([0, 0], [0, 1], [1, 0], [1, 1])]
    np.testing.assert_allclose(gram_matrix(vecs), np.eye(4), atol=1e-15)


def test_zero_state_helper():
    np.testing.assert_array_equal(zero_state(3).amplitudes, ket(3, "000"))
