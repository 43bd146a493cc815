"""Superdense-coding encoders, decoders, and capacity verification."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.qsim as qsim
import wproto.sdc as sdc
from wproto.qsim import MeasurementBasis, ProtocolViolationError, StateVector, apply_unitary
from wproto.sdc import (
    EncodingSet,
    capacity_check,
    decode,
    encode,
    general_encoding_set,
    pauli_product_set,
    pauli_set,
    w4_multiunary_set,
)
from wproto.teleport import UnsuitableResourceError
from wproto.wstates import (
    CoefficientVector,
    generalized_ghz,
    generalized_w,
    w_coefficients,
)

from oracle_utils import build_state, gram_of, random_condition_coefficients

SQ2 = 1 / math.sqrt(2)
MOD_W3 = CoefficientVector([0.5, 0.5, SQ2])


class TestPauliSet:
    def test_identity_first(self):
        np.testing.assert_array_equal(pauli_set().operators[0].matrix, np.eye(2))

    def test_bit_flip(self):
        np.testing.assert_array_equal(pauli_set().operators[1].matrix @ [1, 0], [0, 1])

    def test_four_transformed_resource_states(self):
        # applying the four operators to the last qubit of the resource
        # produces exactly the expected superpositions
        state = generalized_w(MOD_W3)
        sets = pauli_set().operators
        expected = [
            build_state(3, {"100": 0.5, "010": 0.5, "001": SQ2}),   # identity
            build_state(3, {"101": 0.5, "011": 0.5, "000": SQ2}),   # bit flip
            build_state(3, {"101": -0.5, "011": -0.5, "000": SQ2}), # bit+sign
            build_state(3, {"100": 0.5, "010": 0.5, "001": -SQ2}),  # sign flip
        ]
        for op, want in zip(sets, expected):
            got = apply_unitary(state, op, [3])
            np.testing.assert_allclose(got.amplitudes, want, atol=1e-14)

    def test_encoded_states_orthogonal(self):
        states = [
            encode(MOD_W3, 1, pauli_set(), msg)
            for msg in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        np.testing.assert_allclose(
            gram_of([s.amplitudes for s in states]), np.eye(4), atol=1e-12
        )


class TestW4MultiunarySet:
    def test_first_is_identity(self):
        np.testing.assert_array_equal(w4_multiunary_set().operators[0].matrix, np.eye(4))

    def test_eight_encoded_states_orthogonal_on_front_qubits(self):
        w4 = generalized_w(w_coefficients(4))
        states = [
            apply_unitary(w4, op, [1, 2]) for op in w4_multiunary_set().operators
        ]
        np.testing.assert_allclose(
            gram_of([s.amplitudes for s in states]), np.eye(8), atol=1e-12
        )

    def test_capacity_three_bits(self):
        result = capacity_check(w_coefficients(4), 2, w4_multiunary_set())
        assert result.decodable
        assert result.bits == 3


class TestGeneralEncodingSet:
    def test_m1_reduces_to_pauli_set(self):
        ops = general_encoding_set(MOD_W3, 1).operators
        for got, want in zip(ops, pauli_set().operators):
            np.testing.assert_allclose(got.matrix, want.matrix, atol=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 3), (8, 4)])
    def test_w2n_capacity_is_m_plus_one(self, n, m):
        c = w_coefficients(n)
        result = capacity_check(c, m, general_encoding_set(c, m))
        assert result.decodable
        assert result.bits == m + 1
        assert result.set_size == 2 ** (m + 1)

    def test_random_complex_resources(self):
        rng = np.random.default_rng(13)
        for n, m in [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (4, 3)]:
            c = random_condition_coefficients(n, m, rng)
            result = capacity_check(c, m, general_encoding_set(c, m))
            assert result.decodable, (n, m)
            assert result.bits == m + 1

    def test_never_exceeds_m_plus_one(self):
        # even throwing more operators at the resource cannot push capacity
        # past one bit over the qubit count
        rng = np.random.default_rng(29)
        for n, m in [(4, 2), (6, 3)]:
            c = random_condition_coefficients(n, m, rng)
            result = capacity_check(c, m, pauli_product_set(m))
            assert result.bits <= m + 1

    def test_encodability_iff_condition(self):
        # full orthogonality of the generated set tracks the split condition
        # exactly, over resources that hold at some m and not others
        from wproto.wstates import teleport_condition

        rng = np.random.default_rng(37)
        pool = [w_coefficients(n) for n in range(3, 9)]
        pool += [
            random_condition_coefficients(int(rng.integers(3, 9)), 1, rng)
            for _ in range(4)
        ]
        for c in pool:
            for m in range(1, min(c.n, 5)):
                encoding = general_encoding_set(c, m)
                states = [
                    apply_unitary(
                        generalized_w(c), op, range(c.n - m + 1, c.n + 1)
                    )
                    for op in encoding.operators
                ]
                holds = teleport_condition(c, m).holds
                assert decode(states).decodable == holds, (c.n, m)


class TestEncode:
    def test_identity_message_returns_resource(self):
        got = encode(MOD_W3, 1, pauli_set(), (0, 0))
        np.testing.assert_allclose(
            got.amplitudes, generalized_w(MOD_W3).amplitudes, atol=1e-15
        )

    def test_encoded_states_stay_normalized(self):
        rng = np.random.default_rng(5)
        c = random_condition_coefficients(6, 3, rng)
        encoding = general_encoding_set(c, 3)
        for msg in encoding.labels:
            assert abs(encode(c, 3, encoding, msg).norm - 1.0) < 1e-12

    def test_unsuitable_resource_rejected(self):
        with pytest.raises(UnsuitableResourceError):
            encode(w_coefficients(3), 1, pauli_set(), (0, 0))

    def test_message_out_of_range(self):
        with pytest.raises(ValueError):
            encode(MOD_W3, 1, pauli_set(), (0, 1, 1))


class TestDecode:
    def test_orthogonal_set_decodable_with_induced_basis(self):
        states = [
            encode(MOD_W3, 1, pauli_set(), msg)
            for msg in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        verdict = decode(states)
        assert verdict.decodable
        assert verdict.worst_pair is None
        # the induced measurement is the states themselves
        basis = MeasurementBasis(range(1, 4), states)
        assert basis.vectors == tuple(states)

    def test_skewed_ghz_not_decodable(self):
        # sign-flip vs identity on one qubit of a lopsided two-term state
        # leaves overlap |a1|^2 - |a2|^2
        state = generalized_ghz(1 / math.sqrt(3), math.sqrt(2 / 3), 3)
        states = [apply_unitary(state, op, [1]) for op in pauli_set().operators]
        verdict = decode(states)
        assert not verdict.decodable
        i, j, worst = verdict.worst_pair
        assert worst == pytest.approx(1 / 3, abs=1e-12)
        assert {i, j} == {0, 3}  # the identity / sign-flip pair

    def test_wrong_partition_fails(self):
        # encoding on a single qubit of the 4-qubit W-state (entropy < 1)
        w4 = generalized_w(w_coefficients(4))
        states = [apply_unitary(w4, op, [4]) for op in pauli_set().operators]
        verdict = decode(states)
        assert not verdict.decodable

    def test_gram_matches_oracle(self):
        rng = np.random.default_rng(11)
        c = random_condition_coefficients(5, 2, rng)
        encoding = general_encoding_set(c, 2)
        states = [encode(c, 2, encoding, msg) for msg in encoding.labels]
        verdict = decode(states)
        np.testing.assert_allclose(
            verdict.gram, gram_of([s.amplitudes for s in states]), atol=1e-13
        )


class TestCapacityCheck:
    def test_modified_w3_two_bits(self):
        result = capacity_check(MOD_W3, 1, pauli_set())
        assert result.decodable and result.bits == 2

    def test_full_product_set_not_maximal_on_w4(self):
        result = capacity_check(w_coefficients(4), 2, pauli_product_set(2))
        assert not result.decodable
        assert result.set_size == 16
        assert result.bits < 4
        assert result.exhaustive  # exact search for sets this small
        assert result.subset_size == 8

    def test_greedy_flagged_non_optimal_for_large_sets(self):
        # 32 operators on a resource that cannot support them
        c = w_coefficients(6)
        result = capacity_check(c, 3, pauli_product_set(3))
        assert not result.decodable
        assert not result.exhaustive
        assert result.bits <= 4

    @pytest.mark.parametrize(
        "set_name,c,m",
        [
            pytest.param("generated", w_coefficients(6), 3, id="generated"),
            pytest.param("full-products", w_coefficients(6), 3, id="full-products"),
            # balanced at m = 2: 16 encoded states in 8 dimensions
            pytest.param(
                "full-products", CoefficientVector([SQ2, 0.5, 0.5]), 2, id="full-products-m2"
            ),
        ],
    )
    def test_resource_condition_and_gram_built_once(self, monkeypatch, set_name, c, m):
        encoding = general_encoding_set(c, m) if set_name == "generated" else pauli_product_set(m)
        calls = Counter()
        for module, name in (
            (sdc, "generalized_w"),
            (sdc, "require_condition"),
            (sdc, "gram_matrix"),
            (qsim, "gram_matrix"),  # any other Gram matrix, e.g. a MeasurementBasis check
        ):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _f=original, _n=name: calls.update([_n]) or _f(*a)
            )
        basis_init = qsim.MeasurementBasis.__init__
        monkeypatch.setattr(
            qsim.MeasurementBasis,
            "__init__",
            lambda *a, **k: calls.update(["MeasurementBasis"]) or basis_init(*a, **k),
        )
        result = capacity_check(c, m, encoding)
        assert result.decodable == (set_name == "generated")
        assert calls["generalized_w"] == calls["require_condition"] == 1
        # decode builds the one Gram matrix itself and no measurement basis
        assert calls["gram_matrix"] == 1
        assert calls["MeasurementBasis"] == 0


class TestEncodingSetValidation:
    def test_size_must_be_power_of_two(self):
        ops = pauli_set().operators[:3]
        with pytest.raises(ValueError):
            EncodingSet(ops)

    def test_message_entries_must_be_bits(self):
        encoding = pauli_set()
        with pytest.raises(ValueError):
            encoding.operator_for((0, 2))

    def test_operator_lookup(self):
        encoding = pauli_set()
        np.testing.assert_array_equal(encoding.operator_for((0, 0)).matrix, np.eye(2))
        assert encoding.message_bits == 2

    def test_message_k_is_operator_k(self):
        encoding = pauli_product_set(2)
        assert encoding.labels[6] == (0, 1, 1, 0)
        for k, msg in enumerate(encoding.labels):
            assert encoding.operator_for(msg) is encoding.operators[k]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 5),
    data=st.data(),
    eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decodable_iff_states_form_a_measurement_basis(n, data, eps, seed):
    # orthonormal rows of a random unitary, one of them optionally tilted
    # by eps and renormalized: decode's rule must agree with the
    # orthonormality check of the measurement the states would induce
    k = data.draw(st.integers(1, 2**n), label="k")
    rng = np.random.default_rng(seed)
    dim = 2**n
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rows = q[:k].copy()
    if eps:
        tilted = int(rng.integers(k))
        rows[tilted] += eps * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
        rows[tilted] /= np.linalg.norm(rows[tilted])
    states = [StateVector(n, row) for row in rows]
    verdict = decode(states)
    try:
        MeasurementBasis(range(1, n + 1), states)
        accepted = True
    except ProtocolViolationError:
        accepted = False
    assert verdict.decodable == accepted
    if not accepted:
        worst = np.abs(gram_of([s.amplitudes for s in states]) - np.eye(k)).max()
        assert verdict.worst_pair[2] == pytest.approx(worst, rel=1e-6, abs=1e-15)
        assert verdict.worst_pair[2] == np.abs(verdict.gram - np.eye(k)).max()
