"""A scan's spectra, check and entropies as one array pass: every row of the
stacked spectra is, byte for byte, ``reduced_spectrum`` of its cut, every
stacked entropy the one-row ``spectrum_entropy`` of that spectrum, and a
disagreement names the first cut that shows it; the relay hop reads its rows
only where the corrections can have put data."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproto.teleport as teleport
import wproto.wstates as wstates
from wproto.qsim import (
    InternalConsistencyError,
    StateVector,
    reduced_spectrum,
    spectrum_entropy,
    trailing_spectra,
    trailing_spectra_stack,
)
from wproto.wstates import (
    CoefficientVector,
    entropy_scan,
    generalized_ghz,
    generalized_w,
    ghz_entropy_scan,
    ghz_suitability_scan,
    suitability_scan,
)

from oracle_utils import random_coefficients


def _assert_rows_are_the_cuts(state: StateVector) -> np.ndarray:
    """The stacked spectra of ``state``, once each row is checked byte for byte
    against its cut alone and each stacked entropy against the one-row call."""
    n = state.num_qubits
    stack = trailing_spectra_stack(state)
    assert stack.shape == (n - 1, 2 ** (n // 2)) and not stack.flags.writeable
    entropies = spectrum_entropy(stack)
    assert entropies.shape == (n - 1,)
    for m, (row, entropy) in enumerate(zip(stack, entropies), 1):
        alone = reduced_spectrum(state, range(n - m + 1, n + 1))
        padding = len(row) - len(alone)
        assert row[padding:].tobytes() == alone.tobytes()
        assert row[:padding].tobytes() == np.zeros(padding).tobytes()  # +0.0 only
        one_row = spectrum_entropy(alone)
        assert isinstance(one_row, float)
        assert np.float64(entropy).tobytes() == np.float64(one_row).tobytes()
    assert [s.tobytes() for s in trailing_spectra(state)] == [
        reduced_spectrum(state, range(n - m + 1, n + 1)).tobytes() for m in range(1, n)
    ]
    return stack


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
)
def test_w_class_rows_are_their_cuts_byte_for_byte(n, seed, zeros):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    raw[rng.random(n) < zeros] = 0.0
    raw[rng.integers(n)] = 1.0 + 0.5j  # at least one nonzero: down to a single one
    c = CoefficientVector.normalize(raw)
    state = generalized_w(c)
    _assert_rows_are_the_cuts(state)
    rows = entropy_scan(c)
    for m, simulated, _, _ in rows:
        alone = reduced_spectrum(state, range(n - m + 1, n + 1))
        assert np.float64(simulated).tobytes() == np.float64(spectrum_entropy(alone)).tobytes()
    assert [r.partition_size for r in suitability_scan(c)] == list(range(1, n))


@pytest.mark.parametrize(
    "coefficients", [[0, 1j], [1j, 0], [0, 0, 1], [0, 1, 0, 0], [0.6, 0, 0, 0.8j, 0]]
)
def test_zeroed_w_coefficients_down_to_one_nonzero(coefficients):
    c = CoefficientVector(coefficients)
    stack = _assert_rows_are_the_cuts(generalized_w(c))
    if np.count_nonzero(coefficients) == 1:  # a product state: one nonzero per row
        assert (np.count_nonzero(stack, axis=1) == 1).all()
        assert spectrum_entropy(stack).tolist() == [0.0] * len(stack)
    assert [row[3] for row in entropy_scan(c)] == [True] * (c.n - 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    theta=st.floats(0, math.pi / 2),
    phase=st.floats(0, 2 * math.pi),
)
@example(n=2, theta=0.0, phase=0.0)  # |00>: one nonzero
@example(n=12, theta=math.pi / 4, phase=0.0)
def test_ghz_rows_are_their_cuts_byte_for_byte(n, theta, phase):
    a1, a2 = math.cos(theta), math.sin(theta) * complex(math.cos(phase), math.sin(phase))
    _assert_rows_are_the_cuts(generalized_ghz(a1, a2, n))
    rows = ghz_entropy_scan(a1, a2, n)
    assert [row[0] for row in rows] == list(range(1, n))
    assert len(ghz_suitability_scan(a1, a2, n)) == n - 1


def test_a_one_row_stack_is_the_one_dimensional_call():
    spectrum = np.array([-1e-17, 0.0, 0.25, 0.75])  # clamped, then the positive tail
    stacked = spectrum_entropy(spectrum[None])
    assert stacked.shape == (1,)
    assert np.float64(stacked[0]).tobytes() == np.float64(spectrum_entropy(spectrum)).tobytes()
    assert spectrum_entropy(np.zeros((3, 4))).tolist() == [0.0, 0.0, 0.0]
    assert spectrum_entropy(np.zeros(0)) == 0.0


def test_the_first_disagreeing_cut_is_named():
    # cuts 3 and 5 disagree; cut 5 by far more, and cut 3 is still the one named
    c = random_coefficients(8, np.random.default_rng(26))
    honest = wstates._splits(c)
    shift = {3: 1e-6, 5: 1e-3}

    def condition(m):
        report = honest(m)
        return replace(report, left_sum=report.left_sum + shift.get(m, 0.0))

    with pytest.raises(InternalConsistencyError, match=r"at m=3 \(max deviation 1\.000e-06\)"):
        wstates._checked_scan(generalized_w(c), condition)


@pytest.mark.parametrize("m", [4, 5, 7])
def test_the_relay_hop_reads_only_the_corrections_moved_columns(m, monkeypatch):
    # the relay's input rows are zero off the strategy-1 corrections' moved
    # indices, so reading them there finds every occupied pattern
    hop, seen = teleport._hop, []

    def spy(rows, resource, basis, corrections, prefixes=("",), within=None):
        if within is not None:
            off = np.setdiff1d(np.arange(rows.shape[1]), within)
            seen.append((len(within), bool(np.any(rows[:, off]))))
        return hop(rows, resource, basis, corrections, prefixes, within)

    monkeypatch.setattr(teleport, "_hop", spy)
    rng = np.random.default_rng(m)
    n = 2 * m
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    coeffs[rng.integers(n - m, n - 1)] = 0.0  # a zero back coefficient: one index fewer
    halves = [coeffs[: n - m], coeffs[n - m :]]
    c = CoefficientVector(math.sqrt(0.5) * np.concatenate([h / np.linalg.norm(h) for h in halves]))
    states = teleport.unknown_state_grid(6, m)
    report = teleport.run_teleport_grid(c, m, states, "serial")
    assert report.success
    assert seen == [(m, False)]  # |0..0> and the m - 1 nonzero back entries, |0..01> among them
