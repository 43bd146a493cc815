"""Superdense-coding encoders, decoders, and capacity verification."""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.qsim as qsim
import wproto.sdc as sdc
from wproto.cli import parse_config
from wproto.qsim import (
    STRUCTURAL_TOL,
    MeasurementBasis,
    ProtocolViolationError,
    StateVector,
    apply_unitary,
)
from wproto.sdc import (
    CapacityResult,
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

from oracle_utils import (
    build_state,
    gram_of,
    per_operator_encoded_stack,
    random_condition_coefficients,
    zeroed_condition_coefficients,
)

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
        # the states are encoded on the resource's two Schmidt columns: no dense resource
        assert calls["generalized_w"] == 0
        assert calls["require_condition"] == 1
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


class TestSharedNamedSets:
    """``pauli``, ``w4`` and the m = 2 products depend on no resource: each is
    built once per process and shared, and ``w4`` is taken from the products."""

    def test_each_named_set_is_one_object_and_other_products_are_fresh(self):
        assert pauli_set() is pauli_set()
        assert w4_multiunary_set() is w4_multiunary_set()
        assert pauli_product_set(2) is pauli_product_set(np.int64(2))
        for m in (1, 3):  # built fresh each time, never kept
            assert pauli_product_set(m) is not pauli_product_set(m)
        for name in ("pauli", "w4", "full-products"):
            arity, _, build = sdc.ENCODING_SETS[name]
            assert build(MOD_W3, arity) is build(w_coefficients(4), arity)

    def test_w4_holds_the_product_objects_at_4i_plus_j(self):
        products = pauli_product_set(2).operators
        pairs = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 2), (3, 3)]
        for op, (i, j) in zip(w4_multiunary_set().operators, pairs, strict=True):
            assert op is products[4 * i + j]
            fresh = qsim.Unitary(np.kron(qsim.PAULI_FOUR[i], qsim.PAULI_FOUR[j]))
            for name in ("moved", "block", "matrix"):
                assert getattr(op, name).tobytes() == getattr(fresh, name).tobytes()

    def test_the_shared_arrays_are_read_only(self):
        for encoding in (pauli_set(), w4_multiunary_set(), pauli_product_set(2)):
            for op in encoding.operators:
                for array in (op.moved, op.block, op.matrix):
                    assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                encoding.operators[1].block[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [True, 1.0, False, 2.0, np.float64(2)])
    def test_a_bool_or_float_m_raises_once_the_sets_are_built(self, bad):
        # True == 1 and 2.0 == 2 share a hash with a built set's m
        pauli_set(), pauli_product_set(1), pauli_product_set(2)
        with pytest.raises(ValueError, match="expected an integer"):
            pauli_product_set(bad)
        for encoding in (pauli_set(), pauli_product_set(2)):
            with pytest.raises(ValueError, match="expected an integer"):
                capacity_check(w_coefficients(4), bad, encoding)
            with pytest.raises(ValueError, match="expected an integer"):
                encode(MOD_W3, bad, encoding, (0, 0))
        doc = {"task": "sdc", "state": {"named": "modified-w", "n": 3}, "m": bad, "set": "pauli"}
        with pytest.raises(ValueError, match="m: integer"):
            parse_config(json.dumps(doc))


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


def test_capacity_check_peaks_under_its_stack_and_gram_arrays():
    # W14, m = 7: 256 encoded states of 2^7 x 2 amplitudes, a 1 MiB stack and
    # a 1 MiB Gram matrix taken from the stack itself.  At the peak the stack,
    # the Gram matrix, gram - I and its modulus (half a Gram matrix) are alive:
    # 3.5 MiB, measured at 3.65 MiB; one more copy of the stack fails the bound
    c, m = w_coefficients(14), 7
    encoding = general_encoding_set(c, m)
    stack, gram = 256 * 2**7 * 2 * 16, 256**2 * 16
    tracemalloc.start()
    try:
        result = capacity_check(c, m, encoding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.decodable and result.bits == 8 and result.set_size == 256
    assert peak < 1.5 * stack + 2.5 * gram


def _dense_capacity(c, m, encoding):
    """The capacity rule on the full encoded states: every operator applied
    to ``generalized_w(c)`` and the set decoded; (result, Gram matrix)."""
    sender = range(c.n - m + 1, c.n + 1)
    verdict = decode([apply_unitary(generalized_w(c), op, sender) for op in encoding.operators])
    size, gram = verdict.num_states, verdict.gram
    if verdict.decodable:
        bits = size.bit_length() - 1
        return CapacityResult(bits, True, size, size, tuple(range(size)), True), gram
    orthogonal = np.abs(verdict.gram) <= STRUCTURAL_TOL
    exhaustive = size <= 16
    search = sdc._max_orthogonal_subset if exhaustive else sdc._greedy_orthogonal_subset
    subset = search(orthogonal)
    bits = int(math.floor(math.log2(len(subset))))
    return CapacityResult(bits, False, size, len(subset), tuple(subset), exhaustive), gram


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
    zeroed=st.booleans(),
)
def test_two_column_capacity_equals_the_dense_encoded_states(data, n, seed, zeroed):
    # m stops at 6: the dense reference reads 2^(m+1) operators of 4^m entries
    m = data.draw(st.integers(1, min(n - 1, 6)), label="m")
    rng = np.random.default_rng(seed)
    c = (zeroed_condition_coefficients if zeroed else random_condition_coefficients)(n, m, rng)
    sets = [general_encoding_set(c, m)]
    sets += [pauli_set()] if m == 1 else [w4_multiunary_set()] if m == 2 else []
    sets += [pauli_product_set(m)] if m <= 3 else []
    for encoding in sets:
        grams = []
        with pytest.MonkeyPatch.context() as patch:
            original = sdc.gram_matrix
            patch.setattr(sdc, "gram_matrix", lambda a: grams.append(original(a)) or grams[-1])
            result = capacity_check(c, m, encoding)
        expected, gram = _dense_capacity(c, m, encoding)
        assert result == expected
        assert float(np.abs(grams[0] - gram).max()) <= 1e-14


def _folded(array) -> bytes:
    """The bytes of ``array`` with every -0 folded into +0."""
    return (np.asarray(array) + 0.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    name=st.sampled_from(sorted(sdc.ENCODING_SETS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_the_gathered_stack_equals_the_per_operator_loop(n, name, seed, data):
    # every named set on a resource with exact zeros: the base products
    # gathered with one index are the states each message's operator makes
    arity, _, build = sdc.ENCODING_SETS[name]
    m = arity or data.draw(st.integers(1, min(n - 1, 6)), label="m")
    if m >= n:
        return
    c = zeroed_condition_coefficients(n, m, np.random.default_rng(seed))
    encoding = build(c, m)
    judged = []
    verdict = sdc._verdict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdc, "_verdict", lambda rows: judged.append(rows.copy()) or verdict(rows))
        capacity_check(c, m, encoding)
    (stack,) = judged
    assert _folded(stack) == _folded(per_operator_encoded_stack(c, m, encoding))


def test_bases_that_carry_row_orders_check_as_the_ordered_set(monkeypatch):
    # W8, m = 4: the generated set's message operators, each its own base with
    # its row order, give the ordered set's result and the per-operator stack
    c, m = w_coefficients(8), 4
    ordered = general_encoding_set(c, m)
    encoding = EncodingSet(ordered.operators)
    assert encoding.orders is None and any(op.order is not None for op in encoding.bases)
    judged = []
    verdict = sdc._verdict
    monkeypatch.setattr(sdc, "_verdict", lambda rows: judged.append(rows.copy()) or verdict(rows))
    assert capacity_check(c, m, encoding) == capacity_check(c, m, ordered)
    assert _folded(judged[0]) == _folded(per_operator_encoded_stack(c, m, encoding))


def test_a_generated_capacity_check_builds_no_message_operator(monkeypatch):
    # W12, m = 6: 128 messages from the 4 strategy-2 corrections; the check
    # multiplies those 4 blocks and gathers, and no message becomes a Unitary
    built = Counter()
    fill = qsim.Unitary._fill
    monkeypatch.setattr(qsim.Unitary, "_fill", lambda u, *a: built.update([1]) or fill(u, *a))
    c = w_coefficients(12)
    encoding = general_encoding_set(c, 6)
    result = capacity_check(c, 6, encoding)
    assert result.decodable and result.set_size == 128
    assert built[1] == 1 + 4  # the transfer and its products with the strategy-1 blocks
    assert len(encoding.operators) == 128  # built when read
    assert built[1] == 5 + 128
