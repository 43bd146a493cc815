"""Measurement families, recovery operator sets, and full protocol runs."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.teleport as teleport
from wproto.qsim import (
    PAULI_FOUR,
    DimensionError,
    NormalizationError,
    ProtocolViolationError,
    StateVector,
    Unitary,
    apply_unitary,
    fidelity,
    gram_matrix,
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
    ghz_measurement_family,
    measurement_family,
    one_qubit_measurement_family,
    raw_ghz_measurement_vectors,
    raw_measurement_vectors,
    raw_one_qubit_measurement_vectors,
    run_teleport_encoded,
    run_teleport_one_qubit,
    serial_basis,
    transfer_unitary,
    unknown_state_grid,
)
from wproto.wstates import (
    CoefficientVector,
    excitation_blocks,
    generalized_w,
    standard_w,
    w_coefficients,
)

from oracle_utils import build_state, gram_of, ket, oracle_branch, random_condition_coefficients

SQ2 = 1 / math.sqrt(2)
MOD_W3 = CoefficientVector([0.5, 0.5, SQ2])

K00 = ket(2, "00")
K11 = ket(2, "11")
PSI_PLUS = (ket(2, "01") + ket(2, "10")) / math.sqrt(2)
PSI_MINUS = (ket(2, "01") - ket(2, "10")) / math.sqrt(2)


def outer(a, b):
    return np.outer(a, b.conj())


def psi_plus_state() -> StateVector:
    return StateVector(2, PSI_PLUS)


class TestMeasurementFamilies:
    def test_modified_w3_one_qubit_family_transcription(self):
        basis = one_qubit_measurement_family(MOD_W3, 1)
        assert basis.labels == ("xi+", "xi-", "eta+", "eta-")
        expected = {
            "xi+": build_state(3, {"010": 0.5, "001": 0.5, "100": SQ2}),
            "xi-": build_state(3, {"010": 0.5, "001": 0.5, "100": -SQ2}),
            "eta+": build_state(3, {"000": SQ2, "110": 0.5, "101": 0.5}),
            "eta-": build_state(3, {"000": SQ2, "110": -0.5, "101": -0.5}),
        }
        for label, vec in zip(basis.labels, basis.vectors):
            np.testing.assert_allclose(vec.amplitudes, expected[label], atol=1e-14)
        np.testing.assert_allclose(gram_matrix(basis.vectors), np.eye(4), atol=1e-12)

    def test_w4_one_qubit_family_is_three_qubit_pattern(self):
        basis = one_qubit_measurement_family(w_coefficients(4), 2)
        xi_p = np.concatenate([PSI_PLUS, ket(2, "00")]) / math.sqrt(2)
        xi_m = np.concatenate([PSI_PLUS, -ket(2, "00")]) / math.sqrt(2)
        eta_p = np.concatenate([ket(2, "00"), PSI_PLUS]) / math.sqrt(2)
        eta_m = np.concatenate([ket(2, "00"), -PSI_PLUS]) / math.sqrt(2)
        for vec, want in zip(basis.vectors, (xi_p, xi_m, eta_p, eta_m)):
            np.testing.assert_allclose(vec.amplitudes, want, atol=1e-14)

    def test_w4_encoded_family_structure(self):
        basis = measurement_family(w_coefficients(4), 2)
        expected = [
            (np.kron(K00, PSI_PLUS) + np.kron(PSI_PLUS, K00)) / math.sqrt(2),
            (np.kron(K00, PSI_PLUS) - np.kron(PSI_PLUS, K00)) / math.sqrt(2),
            (ket(4, "0000") + np.kron(PSI_PLUS, PSI_PLUS)) / math.sqrt(2),
            (ket(4, "0000") - np.kron(PSI_PLUS, PSI_PLUS)) / math.sqrt(2),
        ]
        for vec, want in zip(basis.vectors, expected):
            np.testing.assert_allclose(vec.amplitudes, want, atol=1e-14)

    def test_families_orthonormal_for_random_complex_resources(self):
        rng = np.random.default_rng(31)
        for n, m in [(4, 2), (5, 2), (6, 3), (8, 4), (4, 3), (6, 1)]:
            c = random_condition_coefficients(n, m, rng)
            for basis in (measurement_family(c, m), one_qubit_measurement_family(c, m)):
                np.testing.assert_allclose(
                    gram_matrix(basis.vectors), np.eye(4), atol=1e-12
                )

    def test_unsuitable_resource_rejected_with_report(self):
        with pytest.raises(UnsuitableResourceError) as err:
            measurement_family(w_coefficients(3), 1)
        assert err.value.report is not None
        assert err.value.report.left_sum == pytest.approx(2 / 3, abs=1e-12)

    def test_forced_w3_family_gram_deviation(self):
        # ungated construction shows exactly how far orthonormality fails
        vectors = raw_one_qubit_measurement_vectors(w_coefficients(3), 1)
        gram = gram_of([v.amplitudes for v in vectors])
        deviation = np.abs(gram - np.eye(4)).max()
        assert deviation == pytest.approx(1 / 3, abs=1e-12)
        assert deviation > 1e-3

    def test_forced_encoded_family_gram_deviation(self):
        for n in (3, 5, 7):
            vectors = raw_measurement_vectors(w_coefficients(n), 1)
            deviation = np.abs(
                gram_of([v.amplitudes for v in vectors]) - np.eye(4)
            ).max()
            assert deviation > 1e-3


class TestStrategyOperatorSets:
    def test_strategy1_matches_printed_operators(self):
        ops = bob_strategy1_set(2, psi_plus_state())
        expected = [
            outer(K00, K00) + outer(K11, K11) + outer(PSI_PLUS, PSI_PLUS) + outer(PSI_MINUS, PSI_MINUS),
            outer(K00, PSI_PLUS) + outer(K11, K11) + outer(PSI_PLUS, K00) + outer(PSI_MINUS, PSI_MINUS),
            outer(K00, PSI_PLUS) + outer(K11, K11) - outer(PSI_PLUS, K00) + outer(PSI_MINUS, PSI_MINUS),
            outer(K00, K00) + outer(K11, K11) - outer(PSI_PLUS, PSI_PLUS) + outer(PSI_MINUS, PSI_MINUS),
        ]
        for op, want in zip(ops, expected):
            np.testing.assert_allclose(op.matrix, want, atol=1e-14)

    def test_strategy1_first_is_identity(self):
        ops = bob_strategy1_set(2, psi_plus_state())
        np.testing.assert_allclose(ops[0].matrix, np.eye(4), atol=1e-14)

    def test_strategy1_unitary_for_w3_subspace(self):
        for op in bob_strategy1_set(3, standard_w(3)):
            dev = np.abs(op.matrix.conj().T @ op.matrix - np.eye(8)).max()
            assert dev < 1e-12

    def test_strategy1_pauli_behavior_on_subspace(self):
        # squared operators restricted to span{|0..0>, wm} are +-identity
        for m, wm in [(2, psi_plus_state()), (3, standard_w(3))]:
            zero = zero_state(m)
            for k, op in enumerate(bob_strategy1_set(m, wm)):
                sq = op.matrix @ op.matrix
                sign = -1.0 if k == 2 else 1.0  # i*sigma_2 squares to -1
                for vec in (zero.amplitudes, wm.amplitudes):
                    np.testing.assert_allclose(sq @ vec, sign * vec, atol=1e-12)

    def test_strategy1_fourth_flips_the_sign_branch(self):
        alpha, beta = 0.6, 0.8
        branch = StateVector(2, alpha * K00 - beta * PSI_PLUS)
        fixed = apply_unitary(branch, bob_strategy1_set(2, psi_plus_state())[3], [1, 2])
        np.testing.assert_allclose(
            fixed.amplitudes, alpha * K00 + beta * PSI_PLUS, atol=1e-14
        )

    def test_strategy2_matches_printed_operators(self):
        ops = bob_strategy2_set(2, psi_plus_state())
        k01, k10 = ket(2, "01"), ket(2, "10")
        expected = [
            outer(K00, K00) + outer(K11, K11) + outer(k01, PSI_PLUS) + outer(k10, PSI_MINUS),
            outer(K00, PSI_PLUS) + outer(K11, K11) + outer(k01, K00) + outer(k10, PSI_MINUS),
            outer(K00, PSI_PLUS) + outer(K11, K11) - outer(k01, K00) + outer(k10, PSI_MINUS),
            outer(K00, K00) + outer(K11, K11) - outer(k01, PSI_PLUS) + outer(k10, PSI_MINUS),
        ]
        for op, want in zip(ops, expected):
            np.testing.assert_allclose(op.matrix, want, atol=1e-14)

    def test_strategy2_transfers_onto_last_qubit(self):
        alpha, beta = 0.6, 0.8j
        branch = StateVector(2, alpha * K00 + beta * PSI_PLUS)
        fixed = apply_unitary(branch, bob_strategy2_set(2, psi_plus_state())[0], [1, 2])
        np.testing.assert_allclose(
            fixed.amplitudes, alpha * ket(2, "00") + beta * ket(2, "01"), atol=1e-14
        )

    def test_strategy2_unitary_for_m3(self):
        for op in bob_strategy2_set(3, standard_w(3)):
            dev = np.abs(op.matrix.conj().T @ op.matrix - np.eye(8)).max()
            assert dev < 1e-12

    def test_transfer_unitary_moves_the_pair(self):
        t = transfer_unitary(3, standard_w(3))
        np.testing.assert_allclose(t.matrix @ zero_state(3).amplitudes, ket(3, "000"), atol=1e-12)
        np.testing.assert_allclose(t.matrix @ standard_w(3).amplitudes, ket(3, "001"), atol=1e-12)

    def test_orthogonality_precondition(self):
        with pytest.raises(ValueError):
            bob_strategy1_set(2, StateVector(2, ket(2, "00")))


class TestSerialBasis:
    def test_matches_printed_three_qubit_vectors(self):
        basis = serial_basis(2, psi_plus_state())
        expected = [
            (ket(3, "000") + np.kron(PSI_PLUS, ket(1, "1"))) / math.sqrt(2),
            (ket(3, "000") - np.kron(PSI_PLUS, ket(1, "1"))) / math.sqrt(2),
            (ket(3, "001") + np.kron(PSI_PLUS, ket(1, "0"))) / math.sqrt(2),
            (ket(3, "001") - np.kron(PSI_PLUS, ket(1, "0"))) / math.sqrt(2),
        ]
        assert basis.labels == ("phi1+", "phi1-", "phi2+", "phi2-")
        for vec, want in zip(basis.vectors, expected):
            np.testing.assert_allclose(vec.amplitudes, want, atol=1e-14)

    def test_gram_is_identity(self):
        basis = serial_basis(3, standard_w(3))
        np.testing.assert_allclose(gram_matrix(basis.vectors), np.eye(4), atol=1e-12)
        assert basis.is_partial

    def test_branches_of_bell_extended_state(self):
        # (alpha|00> + beta psi+) (x) Bell pair, measured on qubits 1..3,
        # splits into four equiprobable branches carrying the input
        alpha, beta = 0.6, 0.8j
        enc = StateVector(2, alpha * K00 + beta * PSI_PLUS)
        bell = superpose(
            [(SQ2, make_basis_state(2, [0, 0])), (SQ2, make_basis_state(2, [1, 1]))]
        )
        outcomes = project(tensor(enc, bell), serial_basis(2, psi_plus_state()))
        want = {
            "phi1+": np.array([alpha, beta]),
            "phi1-": np.array([alpha, -beta]),
            "phi2+": np.array([beta, alpha]),
            "phi2-": np.array([-beta, alpha]),  # same ray as (beta, -alpha)
        }
        for outcome in outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            overlap = abs(np.vdot(want[outcome.label], outcome.post_state.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-12)


class TestEncodedTeleport:
    def test_w4_branches_match_hand_expansion(self):
        # the four post-measurement states, before correction
        alpha, beta = 0.6, 0.8
        c = w_coefficients(4)
        psi = encoded_state(c, 2, alpha, beta)
        joint = tensor(psi, generalized_w(c))
        outcomes = project(joint, measurement_family(c, 2))
        want = {
            "xi+": alpha * K00 + beta * PSI_PLUS,
            "xi-": alpha * K00 - beta * PSI_PLUS,
            "eta+": alpha * PSI_PLUS + beta * K00,
            "eta-": alpha * PSI_PLUS - beta * K00,
        }
        for outcome in outcomes:
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            np.testing.assert_allclose(
                outcome.post_state.amplitudes, want[outcome.label], atol=1e-12
            )

    def test_w4_full_run(self):
        c = w_coefficients(4)
        report = run_teleport_encoded(c, 2, encoded_state(c, 2, 0.6, 0.8j))
        assert report.success
        assert report.classical_bits_sent == 2
        assert set(report.labels) == {"xi+", "xi-", "eta+", "eta-"}
        assert report.fidelities.shape == (1, 4)
        for probability in report.probabilities[0]:
            assert probability == pytest.approx(0.25, abs=1e-10)
        assert len(report.corrections) == 4
        assert report.min_fidelity >= 1 - 1e-9

    def test_basis_state_input_trivial(self):
        c = w_coefficients(4)
        report = run_teleport_encoded(c, 2, encoded_state(c, 2, 1.0, 0.0))
        assert report.min_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_random_complex_resources(self):
        rng = np.random.default_rng(8)
        for n, m in [(4, 2), (6, 3), (5, 3), (8, 4)]:
            c = random_condition_coefficients(n, m, rng)
            psi = encoded_state(c, m, 0.8, -0.6j)
            report = run_teleport_encoded(c, m, psi)
            assert report.success, (n, m)

    def test_oracle_enumeration_modified_w3(self):
        # independent check: hand-built joint state, loop-based projection
        alpha, beta = SQ2, SQ2 * 1j
        a3 = SQ2
        joint = build_state(
            4,
            {
                # |0>_a (x) resource
                "0100": alpha * 0.5, "0010": alpha * 0.5, "0001": alpha * a3,
                # |1>_a (x) resource
                "1100": beta * 0.5, "1010": beta * 0.5, "1001": beta * a3,
            },
        )
        vectors = raw_one_qubit_measurement_vectors(MOD_W3, 1)
        expected_by_label = {
            "xi+": np.array([alpha, beta]),
            "xi-": np.array([alpha, -beta]),
            "eta+": np.array([beta, alpha]),
            "eta-": np.array([-beta, alpha]),
        }
        for label, vec in zip(("xi+", "xi-", "eta+", "eta-"), vectors):
            branch = oracle_branch(joint, vec.amplitudes, 4, 3)
            prob = float(np.vdot(branch, branch).real)
            assert prob == pytest.approx(0.25, abs=1e-12)
            overlap = abs(np.vdot(expected_by_label[label], branch / math.sqrt(prob)))
            assert overlap == pytest.approx(1.0, abs=1e-12)
        # and the engine agrees
        report = run_teleport_one_qubit(MOD_W3, 1, StateVector(1, [alpha, beta]), "transfer")
        assert report.min_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_encoding_detected(self):
        # a register paired with the wrong second state lies outside
        # span{|0..0>, wm}: the joint state leaves the family's span and the
        # measurement refuses
        c = w_coefficients(4)
        rogue = superpose([(0.6, zero_state(2)), (0.8, StateVector(2, K11))])
        with pytest.raises(ProtocolViolationError):
            run_teleport_encoded(c, 2, rogue)

    def test_three_term_states_not_teleportable(self):
        # a third superposition term also falls outside the family's span
        c = w_coefficients(4)
        three_term = superpose(
            [
                (0.6, make_basis_state(2, [0, 0])),
                (0.6, StateVector(2, PSI_PLUS)),
                (math.sqrt(1 - 2 * 0.36), make_basis_state(2, [1, 1])),
            ]
        )
        with pytest.raises(ProtocolViolationError):
            run_teleport_encoded(c, 2, three_term)

    def test_m_mismatch(self):
        c = w_coefficients(4)
        psi = encoded_state(c, 2, 1.0, 0.0)
        with pytest.raises((DimensionError, ValueError)):
            run_teleport_encoded(c, 3, psi)
        with pytest.raises(DimensionError):
            run_teleport_encoded(c, 2, zero_state(3))

    @pytest.mark.parametrize(
        "amplitudes", [0.6 * K00 + 0.6 * PSI_PLUS, [math.inf, 0, 0, 0], [math.nan, 0, 0, 0]]
    )
    def test_unnormalized_register_refused(self, amplitudes):
        # refused before the joint state is built: inf * 0 there would warn
        with pytest.raises(NormalizationError):
            run_teleport_encoded(w_coefficients(4), 2, StateVector(2, amplitudes))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        outside=st.floats(1e-8, 1.0),
    )
    def test_any_register_teleports_iff_it_lies_in_the_span(self, data, n, seed, outside):
        # alpha|0..0> + beta|w> teleports on every branch; any weight off
        # span{|0..0>, |w>} is refused by the measurement (for m = 1 the
        # span is the whole register)
        m = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(seed)
        c = random_condition_coefficients(n, m, rng)
        pair = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha, beta = pair / np.linalg.norm(pair)
        psi = encoded_state(c, m, alpha, beta)
        report = run_teleport_encoded(c, m, psi)
        assert report.fidelities.shape == (1, 4)
        assert (report.fidelities >= FIDELITY_THRESHOLD).all()
        if m == 1:
            return
        wm = excitation_blocks(c, m)[2].amplitudes
        perp = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
        perp[0] = 0.0
        perp -= np.vdot(wm, perp) * wm
        perp /= np.linalg.norm(perp)
        rogue = math.sqrt(1.0 - outside) * psi.amplitudes + math.sqrt(outside) * perp
        with pytest.raises(ProtocolViolationError):
            run_teleport_encoded(c, m, StateVector(m, rogue))


class TestOneQubitTeleport:
    @pytest.mark.parametrize("strategy", ["subspace", "transfer", "serial"])
    def test_w4_all_strategies(self, strategy):
        c = w_coefficients(4)
        psi = StateVector(1, [SQ2, SQ2 * 1j])
        report = run_teleport_one_qubit(c, 2, psi, strategy)
        assert report.success
        assert report.strategy == strategy
        assert report.classical_bits_sent == 2
        expected_outcomes = 16 if strategy == "serial" else 4
        assert len(report.labels) == expected_outcomes

    def test_serial_probabilities_and_marginals(self):
        c = w_coefficients(4)
        report = run_teleport_one_qubit(c, 2, StateVector(1, [0.6, 0.8]), "serial")
        marginals: dict[str, float] = {}
        for label, probability in zip(report.labels, report.probabilities[0]):
            assert probability == pytest.approx(1 / 16, abs=1e-10)
            first = label.split("|")[0]
            marginals[first] = marginals.get(first, 0.0) + probability
        assert sorted(marginals) == ["eta+", "eta-", "xi+", "xi-"]
        for value in marginals.values():
            assert value == pytest.approx(0.25, abs=1e-10)

    def test_transfer_leaves_zero_padding(self):
        c = w_coefficients(6)
        report = run_teleport_one_qubit(c, 3, StateVector(1, [0.6, 0.8j]), "transfer")
        assert report.success
        for amps in report.post_states[0]:
            # receiver register factorizes as |00>(alpha|0> + beta|1>)
            assert np.abs(amps[2:]).max() < 1e-12

    def test_strategy_agreement(self):
        rng = np.random.default_rng(77)
        c = random_condition_coefficients(6, 3, rng)
        psi = StateVector(1, [math.cos(0.4), math.sin(0.4) * np.exp(0.9j)])
        transfer = run_teleport_one_qubit(c, 3, psi, "transfer")
        serial = run_teleport_one_qubit(c, 3, psi, "serial")
        singles = [
            StateVector(1, amps[:2] / np.linalg.norm(amps[:2])) for amps in transfer.post_states[0]
        ] + [StateVector(1, amps) for amps in serial.post_states[0]]
        for i, a in enumerate(singles):
            assert fidelity(a, psi) >= 1 - 1e-9
            for b in singles[i + 1 :]:
                assert fidelity(a, b) >= 1 - 1e-9

    def test_subspace_targets_encoded_state(self):
        c = w_coefficients(4)
        psi = StateVector(1, [0.28, math.sqrt(1 - 0.28**2) * 1j])
        report = run_teleport_one_qubit(c, 2, psi, "subspace")
        target = superpose(
            [(psi.amplitudes[0], zero_state(2)), (psi.amplitudes[1], StateVector(2, PSI_PLUS))]
        )
        for amps in report.post_states[0]:
            assert fidelity(StateVector(2, amps), target) >= 1 - 1e-9

    def test_beta_zero_trivial(self):
        for strategy in ("subspace", "transfer", "serial"):
            report = run_teleport_one_qubit(MOD_W3, 1, StateVector(1, [1.0, 0.0]), strategy)
            assert report.min_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_unsuitable_resource_propagates(self):
        for n in (3, 5):
            with pytest.raises(UnsuitableResourceError):
                run_teleport_one_qubit(w_coefficients(n), 1, StateVector(1, [0.6, 0.8]))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_teleport_one_qubit(MOD_W3, 1, StateVector(1, [1, 0]), "swap")

    def test_failure_reason_names_the_threshold(self, monkeypatch):
        # no resource misses the threshold, so raise it past any fidelity
        monkeypatch.setattr(teleport, "FIDELITY_THRESHOLD", 1.5)
        report = run_teleport_one_qubit(MOD_W3, 1, StateVector(1, [0.6, 0.8j]))
        assert not report.success
        assert report.reason.endswith("is below 1.5")


class TestGhzFamily:
    def test_proper_ghz_family_orthonormal_and_teleports(self):
        basis = ghz_measurement_family(SQ2, SQ2, 3)
        np.testing.assert_allclose(gram_matrix(basis.vectors), np.eye(4), atol=1e-12)
        alpha, beta = 0.6, 0.8j
        from wproto.wstates import ghz

        joint = tensor(StateVector(1, [alpha, beta]), ghz(3))
        paulis = [Unitary(s) for s in PAULI_FOUR]
        for outcome in project(joint, basis):
            assert outcome.probability == pytest.approx(0.25, abs=1e-12)
            fixed = apply_unitary(
                outcome.post_state, paulis[CORRECTION_INDEX[outcome.label]], [1]
            )
            assert fidelity(fixed, StateVector(1, [alpha, beta])) >= 1 - 1e-12

    def test_skewed_ghz_rejected_and_gram_deviates(self):
        a1, a2 = 1 / math.sqrt(3), math.sqrt(2 / 3)
        with pytest.raises(UnsuitableResourceError):
            ghz_measurement_family(a1, a2, 3)
        vectors = raw_ghz_measurement_vectors(a1, a2, 3)
        deviation = np.abs(gram_of([v.amplitudes for v in vectors]) - np.eye(4)).max()
        assert deviation == pytest.approx(1 / 3, abs=1e-12)
        assert deviation > 1e-3


class TestStateGrid:
    def test_deterministic(self):
        a = unknown_state_grid(20, 7)
        b = unknown_state_grid(20, 7)
        assert [s.amplitudes.tolist() for s in a] == [s.amplitudes.tolist() for s in b]

    def test_has_complex_phases_and_normalization(self):
        grid = unknown_state_grid(20, 3)
        assert any(abs(s.amplitudes[1].imag) > 1e-3 for s in grid)
        for s in grid:
            assert s.num_qubits == 1
            assert abs(s.amplitudes[0]) ** 2 + abs(s.amplitudes[1]) ** 2 == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("count, seed", [(1, 0), (20, 3), (7, 424242)])
    def test_seeded_amplitudes_bit_for_bit(self, count, seed):
        # cos(theta)|0> + sin(theta) e^(i phi)|1>, theta then phi drawn from the seed
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, math.pi / 2.0, size=count)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
        want = [[complex(math.cos(t)), cmath.rect(math.sin(t), p)] for t, p in zip(theta, phi)]
        assert [s.amplitudes.tolist() for s in unknown_state_grid(count, seed)] == want


class TestInputValidation:
    def test_unknown_state_normalization(self):
        # an unnormalized pair is refused at the entry point
        with pytest.raises(NormalizationError):
            run_teleport_one_qubit(MOD_W3, 1, StateVector(1, [1.0, 1.0]))

    def test_encoded_state_vector(self):
        c = w_coefficients(4)
        psi = encoded_state(c, 2, 0.6, 0.8)
        np.testing.assert_allclose(
            psi.amplitudes, 0.6 * K00 + 0.8 * PSI_PLUS, atol=1e-14
        )
