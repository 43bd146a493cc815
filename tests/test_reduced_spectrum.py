"""Reduced spectra from Schmidt values, checked against the dense partial trace."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wproto.qsim as qsim
from wproto.cli import parse_config, run
from wproto.qsim import (
    NormalizationError,
    StateVector,
    partial_trace,
    reduced_spectrum,
    spectrum_entropy,
    von_neumann_entropy,
)
from wproto.wstates import (
    CoefficientVector,
    ghz_suitability_scan,
    suitability_scan,
)

from oracle_utils import random_coefficients

SPECTRUM_TOL = 1e-12


def _random_state(n: int, seed: int, sparse: bool) -> StateVector:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if sparse:  # low Schmidt rank: most amplitudes vanish
        raw[rng.random(2**n) < 0.8] = 0.0
        raw[int(rng.integers(2**n))] += 1.0
    return StateVector(n, raw / np.linalg.norm(raw))


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sparse=st.booleans(),
)
def test_matches_dense_partial_trace(data, n, seed, sparse):
    state = _random_state(n, seed, sparse)
    order = data.draw(st.permutations(range(1, n + 1)))
    keep = order[: data.draw(st.integers(min_value=1, max_value=n - 1))]
    spectrum = reduced_spectrum(state, keep)
    dense = partial_trace(state, keep).eigenvalues
    k = len(keep)
    assert spectrum.shape == (min(2**k, 2 ** (n - k)),)
    assert np.all(np.diff(spectrum) >= 0.0)
    tail = dense.shape[0] - spectrum.shape[0]
    np.testing.assert_allclose(spectrum, dense[tail:], rtol=0, atol=SPECTRUM_TOL)
    np.testing.assert_allclose(dense[:tail], 0.0, rtol=0, atol=SPECTRUM_TOL)
    assert spectrum_entropy(spectrum) == pytest.approx(
        von_neumann_entropy(partial_trace(state, keep)), abs=1e-10
    )


def test_both_sides_of_a_cut_share_one_spectrum():
    state = _random_state(5, 7, sparse=False)
    np.testing.assert_allclose(
        reduced_spectrum(state, [2, 5]), reduced_spectrum(state, [4, 1, 3]), atol=1e-15
    )


def test_spectrum_is_read_only():
    spectrum = reduced_spectrum(_random_state(3, 1, sparse=False), [1])
    with pytest.raises(ValueError):
        spectrum[0] = 1.0


@pytest.mark.parametrize("reduce", [reduced_spectrum, partial_trace])
class TestRejections:
    """The spectrum refuses every input the dense partial trace refuses."""

    def test_nan_amplitude(self, reduce):
        with pytest.raises(NormalizationError):
            reduce(StateVector(2, [math.nan, 0, 0, 0]), [1])

    def test_unnormalized_state(self, reduce):
        with pytest.raises(NormalizationError):
            reduce(StateVector(2, [1, 1, 0, 0]), [2])

    def test_full_keep(self, reduce):
        with pytest.raises(ValueError, match="proper subset"):
            reduce(_random_state(3, 2, sparse=False), [3, 1, 2])

    @pytest.mark.parametrize("keep", [[], [1, 1], [0], [4]])
    def test_bad_subset(self, reduce, keep):
        with pytest.raises(ValueError):
            reduce(_random_state(3, 2, sparse=False), keep)


@pytest.fixture
def density_matrices(monkeypatch):
    """Counts every DensityMatrix constructed while the test runs."""
    built = []
    init = qsim.DensityMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(qsim.DensityMatrix, "__init__", counting)
    return built


def test_counter_sees_the_dense_path(density_matrices):
    partial_trace(_random_state(3, 3, sparse=False), [1])
    assert len(density_matrices) == 1


def test_scans_and_cli_build_no_density_matrix(density_matrices):
    suitability_scan(random_coefficients(7, np.random.default_rng(5)))
    suitability_scan(CoefficientVector([0.5, 0.5, math.sqrt(0.5)]))
    ghz_suitability_scan(math.sqrt(1 / 3), math.sqrt(2 / 3), 6)
    docs = [
        {"task": "scan", "state": {"named": "w", "n": 8}},
        {"task": "scan", "state": {"named": "ghz", "n": 5}},
        {"task": "entropy", "state": {"named": "w", "n": 7}},
        {"task": "entropy", "state": {"named": "ghz", "n": 4}},
        {"task": "entropy", "state": {"coefficients": [[0.6, 0], [0, 0.8], [0, 0]]}},
        # a refused teleport names the usable partitions through the scan
        {"task": "teleport", "state": {"named": "w", "n": 6}, "m": 2,
         "grid": {"count": 1}, "expect": "failure"},
    ]
    report = run(parse_config(json.dumps({"scenarios": docs})))
    assert report.all_matched
    assert density_matrices == []
