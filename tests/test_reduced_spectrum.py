"""Reduced spectra from the Schmidt values of support blocks, checked against
the dense partial trace, across a scan's batch and for their cost."""

import json
import math
import tracemalloc

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
    trailing_spectra,
    von_neumann_entropy,
)
from wproto.wstates import (
    CoefficientVector,
    entropy_scan,
    generalized_ghz,
    generalized_w,
    ghz_suitability_scan,
    suitability_scan,
    w_coefficients,
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


def _rank_bound(state: StateVector, m: int) -> int:
    """min(distinct kept patterns, distinct rest patterns) among the nonzero
    amplitudes at the cut of the last m qubits, counted with Python sets."""
    support = np.flatnonzero(state.amplitudes).tolist()
    return min(len({i % 2**m for i in support}), len({i >> m for i in support}))


@st.composite
def _scanned_states(draw) -> StateVector:
    """W-class states (zero coefficients allowed, down to one nonzero), GHZ
    states, and random states with a sparse or a dense support, n = 2..12."""
    n = draw(st.integers(min_value=2, max_value=12))
    kind = draw(st.sampled_from(["w", "ghz", "sparse", "dense"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "ghz":
        theta, phase = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
        return generalized_ghz(math.cos(theta), math.sin(theta) * np.exp(1j * phase), n)
    size = n if kind == "w" else 2**n
    raw = rng.normal(size=size) + 1j * rng.normal(size=size)
    if kind != "dense":  # keep s amplitudes, s^2 on either side of 2^n for sparse states
        most = n if kind == "w" else min(2**n, 3 * 2 ** (n // 2))
        raw[rng.permutation(size)[draw(st.integers(min_value=1, max_value=most)):]] = 0.0
    if kind == "w":
        return generalized_w(CoefficientVector.normalize(raw))
    return StateVector(n, raw / np.linalg.norm(raw))


@settings(max_examples=120, deadline=None)
@given(state=_scanned_states())
def test_scan_rows_are_the_reduced_spectrum_bit_for_bit(state):
    n = state.num_qubits
    spectra = trailing_spectra(state)
    assert len(spectra) == n - 1
    for m, spectrum in enumerate(spectra, 1):
        alone = reduced_spectrum(state, range(n - m + 1, n + 1))
        assert spectrum.tobytes() == alone.tobytes()
        assert spectrum.shape == (min(2**m, 2 ** (n - m)),) and not spectrum.flags.writeable
        assert np.all(np.diff(spectrum) >= 0.0)
        padding = len(spectrum) - _rank_bound(state, m)
        assert np.all(spectrum[:padding] == 0.0) and np.signbit(spectrum[:padding]).sum() == 0
        if n <= 8:
            dense = partial_trace(state, range(n - m + 1, n + 1)).eigenvalues
            tail = dense[len(dense) - len(spectrum):]
            np.testing.assert_allclose(spectrum, tail, rtol=0, atol=SPECTRUM_TOL)


@pytest.mark.parametrize("amplitudes", [[1, 0], [0, 1j], [0.6, 0.8]])
def test_a_one_qubit_state_has_no_cut(amplitudes):
    assert trailing_spectra(StateVector(1, amplitudes)) == []


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts every ``np.linalg.svd`` call while the test runs."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_a_w_class_scan_makes_one_svd(svd_calls):
    # s^2 <= 2^n: every cut's support block is padded to (s, s), one stack
    suitability_scan(w_coefficients(11))
    assert svd_calls == [(10, 11, 11)]
    entropy_scan(random_coefficients(9, np.random.default_rng(4)))
    ghz_suitability_scan(math.sqrt(1 / 3), math.sqrt(2 / 3), 8)
    assert svd_calls[1:] == [(8, 9, 9), (7, 2, 2)]


def test_a_scan_of_a_wide_support_holds_one_padded_block_at_a_time():
    # 256 random nonzeros of 2^16: every cut's block is padded to 256 x 256,
    # so the fifteen cuts in one stack would take 15 MiB for a 1 MiB state
    n, s = 16, 256
    rng = np.random.default_rng(16)
    raw = np.zeros(2**n, dtype=np.complex128)
    raw[rng.choice(2**n, size=s, replace=False)] = rng.normal(size=s) + 1j * rng.normal(size=s)
    state = StateVector(n, raw / np.linalg.norm(raw))
    tracemalloc.start()
    try:
        spectra = trailing_spectra(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**n * np.dtype(np.complex128).itemsize
    for k, spectrum in enumerate(spectra, 1):
        assert spectrum.tobytes() == reduced_spectrum(state, range(n - k + 1, n + 1)).tobytes()


def test_a_dense_spectrum_is_never_padded():
    # a dense state's block is its grouped matrix: reduced_spectrum peaks
    # under twice that matrix, where an (s, s) block would take 4 GiB
    n, keep = 14, [3, 7, 1, 12, 9, 5, 14]
    rng = np.random.default_rng(14)
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state = StateVector(n, raw / np.linalg.norm(raw))
    tracemalloc.start()
    try:
        spectrum = reduced_spectrum(state, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum.shape == (2**7,)
    assert peak < 2 * 2**n * np.dtype(np.complex128).itemsize
