"""State-family constructors and suitability-condition checkers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.wstates as wstates
from wproto.qsim import (
    STRUCTURAL_TOL,
    NormalizationError,
    partial_trace,
    reduced_spectrum,
    spectrum_entropy,
    superpose,
    tensor,
    von_neumann_entropy,
    zero_state,
)
from wproto.wstates import (
    CoefficientVector,
    UnsuitableResourceError,
    binary_entropy,
    cut_entropy,
    entropy_scan,
    excitation_blocks,
    generalized_ghz,
    generalized_w,
    ghz,
    ghz_condition,
    ghz_entropy_scan,
    ghz_suitability_scan,
    modified_w_coefficients,
    partition_entropy_formula,
    permute_coefficients,
    standard_w,
    sub_w,
    suitability_scan,
    teleport_condition,
    w_coefficients,
)

from oracle_utils import build_state, random_coefficients, random_condition_coefficients

H13 = 0.9182958340544896
SQ2 = 1 / math.sqrt(2)
MOD_W3 = [0.5, 0.5, SQ2]


def coefficient_lists(min_n=2, max_n=8):
    """Hypothesis strategy: random normalized complex coefficients."""
    def build(parts):
        arr = np.array([complex(re, im) for re, im in parts])
        norm = np.linalg.norm(arr)
        return arr / norm

    floats = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
    pair = st.tuples(floats, floats)
    return (
        st.lists(pair, min_size=min_n, max_size=max_n)
        .filter(lambda parts: np.linalg.norm([complex(*p) for p in parts]) > 1e-3)
        .map(build)
    )


class TestCoefficientVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError) as err:
            CoefficientVector([0.6, 0.6])
        assert "deficit" in str(err.value)

    def test_explicit_normalize(self):
        c = CoefficientVector.normalize([3, 4])
        np.testing.assert_allclose(np.abs(c.coeffs), [0.6, 0.8])

    @pytest.mark.parametrize(
        "raw,want",
        [
            ([1e200, 1e200], [SQ2, SQ2]),
            ([1e-200, 1e-200], [SQ2, SQ2]),
            ([1.7e308, 1.7e308j], [SQ2, SQ2 * 1j]),
            ([5e-324, 0], [1, 0]),
        ],
    )
    def test_normalize_far_from_unit_scale(self, raw, want):
        c = CoefficientVector.normalize(raw)
        np.testing.assert_allclose(c.coeffs, want, rtol=1e-15, atol=0)

    def test_normalize_is_a_plain_division_at_unit_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw = rng.normal(size=5) + 1j * rng.normal(size=5)
            want = raw / np.linalg.norm(raw)
            np.testing.assert_array_equal(CoefficientVector.normalize(raw).coeffs, want)

    @pytest.mark.parametrize("raw", [[0, 0], [0j, -0.0]])
    def test_normalize_refuses_the_zero_vector(self, raw):
        with pytest.raises(ValueError, match="zero vector"):
            CoefficientVector.normalize(raw)

    @pytest.mark.parametrize("raw", [[np.nan, 1], [np.inf, 1], [1, complex(0, -np.inf)]])
    def test_normalize_refuses_non_finite_entries(self, raw):
        with pytest.raises(NormalizationError, match="finite"):
            CoefficientVector.normalize(raw)

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            CoefficientVector([1.0])

    def test_zero_entries_allowed(self):
        c = CoefficientVector([1.0, 0.0])
        np.testing.assert_array_equal(
            generalized_w(c).amplitudes, build_state(2, {"10": 1})
        )


class TestConstructors:
    def test_standard_w3(self):
        s = 1 / math.sqrt(3)
        expected = build_state(3, {"100": s, "010": s, "001": s})
        np.testing.assert_allclose(standard_w(3).amplitudes, expected, atol=1e-15)

    def test_modified_w3(self):
        expected = build_state(3, {"100": 0.5, "010": 0.5, "001": SQ2})
        got = generalized_w(CoefficientVector(MOD_W3))
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-15)
        np.testing.assert_allclose(
            modified_w_coefficients(3).coeffs, MOD_W3, atol=1e-15
        )

    def test_w2_is_bell_state(self):
        expected = build_state(2, {"10": SQ2, "01": SQ2})
        np.testing.assert_allclose(standard_w(2).amplitudes, expected, atol=1e-15)

    def test_ghz3(self):
        expected = build_state(3, {"000": SQ2, "111": SQ2})
        np.testing.assert_allclose(ghz(3).amplitudes, expected, atol=1e-15)

    def test_generalized_ghz_uniform_equals_ghz(self):
        for n in (2, 4):
            np.testing.assert_allclose(
                generalized_ghz(SQ2, SQ2, n).amplitudes, ghz(n).amplitudes
            )

    def test_generalized_ghz_skewed_entropy_below_one(self):
        state = generalized_ghz(1 / math.sqrt(3), math.sqrt(2 / 3), 2)
        entropy = von_neumann_entropy(partial_trace(state, [1]))
        assert entropy == pytest.approx(H13, abs=1e-12)
        assert entropy < 1.0

    def test_ghz_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            generalized_ghz(0.9, 0.9, 3)


class TestSubW:
    def test_full_range_is_the_state(self):
        c = CoefficientVector(MOD_W3)
        np.testing.assert_array_equal(
            sub_w(c, 1, 3).amplitudes, generalized_w(c).amplitudes
        )
        assert sub_w(c, 1, 3).normalized

    def test_front_block_of_modified_w3(self):
        c = CoefficientVector(MOD_W3)
        block = sub_w(c, 1, 2)
        np.testing.assert_allclose(
            block.amplitudes, build_state(2, {"10": 0.5, "01": 0.5}), atol=1e-15
        )
        assert block.norm == pytest.approx(SQ2, abs=1e-12)
        assert not block.normalized

    def test_trailing_pair_block(self):
        rng = np.random.default_rng(3)
        c = random_coefficients(5, rng)
        block = sub_w(c, 4, 5)
        expected = build_state(2, {"10": c.coeffs[3], "01": c.coeffs[4]})
        np.testing.assert_allclose(block.amplitudes, expected, atol=1e-15)

    def test_invalid_range(self):
        c = CoefficientVector(MOD_W3)
        with pytest.raises(ValueError):
            sub_w(c, 2, 1)
        with pytest.raises(ValueError):
            sub_w(c, 0, 2)

    @settings(max_examples=40, deadline=None)
    @given(coefficient_lists(), st.integers(1, 7))
    def test_norm_bookkeeping(self, coeffs, split):
        c = CoefficientVector(coeffs)
        m = 1 + split % (c.n - 1) if c.n > 2 else 1
        front = sub_w(c, 1, c.n - m)
        back = sub_w(c, c.n - m + 1, c.n)
        assert front.norm_squared + back.norm_squared == pytest.approx(1.0, abs=1e-10)


class TestTwoTermDecomposition:
    """``excitation_blocks`` is the two-term split of a W-state at a cut."""

    @settings(max_examples=40, deadline=None)
    @given(coefficient_lists(), st.integers(0, 100))
    def test_reconstruction(self, coeffs, pick):
        c = CoefficientVector(coeffs)
        m = 1 + pick % (c.n - 1)
        try:
            front, back_raw, _, _ = excitation_blocks(c, m)
        except UnsuitableResourceError:  # only a vanishing block is refused
            assert min(sub_w(c, 1, c.n - m).norm, sub_w(c, c.n - m + 1, c.n).norm) < 1e-12
            return
        rebuilt = superpose(
            [(1, tensor(front, zero_state(m))), (1, tensor(zero_state(c.n - m), back_raw))]
        )
        np.testing.assert_allclose(
            rebuilt.amplitudes, generalized_w(c).amplitudes, atol=1e-12
        )

    def test_w4_half_split_structure(self):
        # both blocks are the two-qubit Bell-type state scaled by 1/sqrt(2)
        front, back_raw, wm, back_norm = excitation_blocks(w_coefficients(4), 2)
        bell_half = build_state(2, {"10": 0.5, "01": 0.5})
        np.testing.assert_allclose(front.amplitudes, bell_half, atol=1e-15)
        np.testing.assert_allclose(back_raw.amplitudes, bell_half, atol=1e-15)
        np.testing.assert_allclose(wm.amplitudes, bell_half / SQ2, atol=1e-15)
        assert back_norm == pytest.approx(SQ2, abs=1e-15)

    def test_w2n_even_split(self):
        # W on 2k qubits splits into W_k (x) zeros + zeros (x) W_k, both
        # weighted 1/sqrt(2)
        for k in (2, 3):
            c = w_coefficients(2 * k)
            front, back_raw, _, _ = excitation_blocks(c, k)
            scaled_wk = standard_w(k).amplitudes / math.sqrt(2)
            np.testing.assert_allclose(front.amplitudes, scaled_wk, atol=1e-12)
            np.testing.assert_allclose(back_raw.amplitudes, scaled_wk, atol=1e-12)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            excitation_blocks(w_coefficients(4), 4)


class TestTeleportCondition:
    def test_modified_w3_holds_at_m1(self):
        rep = teleport_condition(CoefficientVector(MOD_W3), 1)
        assert rep.holds
        assert rep.left_sum == pytest.approx(0.5, abs=1e-12)
        assert rep.right_sum == pytest.approx(0.5, abs=1e-12)

    def test_standard_w3_fails(self):
        rep = teleport_condition(w_coefficients(3), 1)
        assert not rep.holds
        assert rep.left_sum == pytest.approx(2 / 3, abs=1e-12)
        assert rep.right_sum == pytest.approx(1 / 3, abs=1e-12)

    def test_standard_w4_holds_at_half(self):
        assert teleport_condition(w_coefficients(4), 2).holds

    def test_equal_sums_alone_insufficient(self):
        # both sums 0.4 after a hypothetical rescale would NOT be accepted;
        # builds the report directly since the constructor blocks the input
        from wproto.wstates import _condition_report

        rep = _condition_report(1, 0.4, 0.4)
        assert rep.residual < 1e-12 and not rep.holds

    def test_permutation_reaches_other_assignments(self):
        # modified W3 holds only when the heavy qubit is last; rotating it
        # to the front makes the canonical check fail
        c = CoefficientVector(MOD_W3)
        rotated = permute_coefficients(c, [3, 1, 2])
        assert not teleport_condition(rotated, 1).holds
        back = permute_coefficients(rotated, [2, 3, 1])
        assert teleport_condition(back, 1).holds

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            permute_coefficients(CoefficientVector(MOD_W3), [1, 1, 2])


class TestGhzCondition:
    def test_uniform_holds(self):
        assert ghz_condition(SQ2, SQ2).holds

    def test_skewed_fails(self):
        rep = ghz_condition(1 / math.sqrt(3), math.sqrt(2 / 3))
        assert not rep.holds
        assert rep.left_sum == pytest.approx(1 / 3, abs=1e-12)

    def test_scan_no_holding_partition_when_skewed(self):
        reports = ghz_suitability_scan(1 / math.sqrt(3), math.sqrt(2 / 3), 4)
        assert len(reports) == 3
        assert not any(r.holds for r in reports)

    def test_scan_all_partitions_hold_for_ghz(self):
        reports = ghz_suitability_scan(SQ2, SQ2, 5)
        assert all(r.holds for r in reports)

    @pytest.mark.parametrize("scan", [ghz_suitability_scan, ghz_entropy_scan])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_scans_check_the_pair_once(self, monkeypatch, scan, n):
        # the state's own check and one condition report, not one per cut
        calls = []
        check = wstates.require_unit_pair
        monkeypatch.setattr(
            wstates, "require_unit_pair", lambda a, b: calls.append((a, b)) or check(a, b)
        )
        assert len(scan(1 / math.sqrt(3), math.sqrt(2 / 3), n)) == n - 1
        assert len(calls) <= 2


class TestEntropyFormula:
    def test_known_values(self):
        assert partition_entropy_formula(4, 2) == pytest.approx(1.0, abs=1e-15)
        assert partition_entropy_formula(3, 1) == pytest.approx(H13, abs=1e-15)
        assert partition_entropy_formula(6, 3) == pytest.approx(1.0, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            partition_entropy_formula(4, 0)
        with pytest.raises(ValueError):
            partition_entropy_formula(4, 4)

    def test_agrees_with_simulation_any_subset(self):
        rng = np.random.default_rng(99)
        for n in range(2, 11):
            state = standard_w(n)
            for x in range(1, n):
                subsets = {tuple(range(n - x + 1, n + 1))}
                while len(subsets) < min(3, math.comb(n, x)):
                    subsets.add(
                        tuple(sorted(rng.permutation(np.arange(1, n + 1))[:x].tolist()))
                    )
                for keep in subsets:
                    entropy = von_neumann_entropy(partial_trace(state, keep))
                    assert entropy == pytest.approx(
                        partition_entropy_formula(n, x), abs=1e-10
                    ), (n, x, keep)

    def test_maximum_only_at_even_half(self):
        for n in range(2, 11):
            for x in range(1, n):
                value = partition_entropy_formula(n, x)
                if n % 2 == 0 and x == n // 2:
                    assert value == pytest.approx(1.0, abs=1e-15)
                else:
                    assert value < 1.0 - 1e-6


class TestSuitabilityScan:
    def test_standard_w5_no_partition(self):
        assert not any(r.holds for r in suitability_scan(w_coefficients(5)))

    def test_standard_w4_only_half(self):
        reports = suitability_scan(w_coefficients(4))
        assert [r.holds for r in reports] == [False, True, False]

    def test_modified_w3_only_m1(self):
        reports = suitability_scan(CoefficientVector(MOD_W3))
        assert [r.holds for r in reports] == [True, False]

    def test_odd_n_impossibility(self):
        for n in (3, 5, 7, 9):
            assert not any(r.holds for r in suitability_scan(w_coefficients(n)))

    def test_condition_entropy_equivalence_random(self):
        # the scan itself cross-checks; this exercises it over a mixed pool
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            suitability_scan(random_coefficients(n, rng))
        for _ in range(25):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            reports = suitability_scan(random_condition_coefficients(n, m, rng))
            assert reports[m - 1].holds



class TestEntropyScan:
    """Each row is, bit for bit, the simulated entropy of the last x qubits'
    spectrum and the closed form, compared within ``STRUCTURAL_TOL``."""

    @staticmethod
    def check(rows, state, closed):
        n = state.num_qubits
        assert [row[0] for row in rows] == list(range(1, n))
        for x, simulated, formula, match in rows:
            assert simulated == spectrum_entropy(reduced_spectrum(state, range(n - x + 1, n + 1)))
            assert formula == closed(x)
            assert match == (abs(simulated - formula) <= STRUCTURAL_TOL)
            assert match

    @settings(max_examples=60, deadline=None)
    @given(coeffs=coefficient_lists(2, 8))
    def test_w_rows_are_the_spectrum_and_cut_entropy(self, coeffs):
        c = CoefficientVector(coeffs)
        self.check(entropy_scan(c), generalized_w(c), lambda x: cut_entropy(c, x))

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(0, math.pi / 2),
        phases=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)),
        n=st.integers(2, 8),
    )
    def test_ghz_rows_are_the_spectrum_and_the_a1_weight(self, theta, phases, n):
        a1, a2 = cmath.rect(math.cos(theta), phases[0]), cmath.rect(math.sin(theta), phases[1])
        state = generalized_ghz(a1, a2, n)
        self.check(ghz_entropy_scan(a1, a2, n), state, lambda x: binary_entropy(abs(a1) ** 2))


def test_random_condition_coefficients_hold():
    rng = np.random.default_rng(7)
    for n, m in [(4, 1), (4, 3), (6, 3), (8, 4), (8, 7)]:
        c = random_condition_coefficients(n, m, rng)
        assert teleport_condition(c, m).holds


def test_no_partition_entropy_above_one():
    # a two-term-decomposable state cannot beat one bit across any cut
    rng = np.random.default_rng(61)
    for n in range(2, 11):
        state = generalized_w(random_coefficients(n, rng))
        for m in range(1, n):
            entropy = von_neumann_entropy(
                partial_trace(state, range(n - m + 1, n + 1))
            )
            assert entropy <= 1.0 + 1e-10, (n, m, entropy)
