"""Single-excitation ("W-class") state families and suitability conditions.

A generalized W-state on n qubits puts one excitation in superposition
across the register: sum_l a_l |0..010..0> with the 1 at position l.  Such
a state splits, for any cut after the first n-m qubits, into exactly two
mutually orthogonal terms, and it supports perfect teleportation and
superdense coding across that cut iff the excitation weight is shared
half-and-half:

    sum_{l<=n-m} |a_l|^2  =  sum_{l>n-m} |a_l|^2  =  1/2,

equivalently iff the m-qubit side of the cut is completely mixed (reduced
entropy one).  This module builds the states and checks the conditions;
the protocol engines live in :mod:`wproto.teleport` and :mod:`wproto.sdc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .qsim import (
    STRUCTURAL_TOL,
    InternalConsistencyError,
    NormalizationError,
    StateVector,
    require_int,
    spectrum_entropy,
    trailing_spectra_stack,
)


class CoefficientVector:
    """The complex amplitudes a_1..a_n of a generalized W-state.

    Must be normalized on input: sum |a_l|^2 = 1 within tolerance.  No
    silent rescaling — the suitability conditions are statements about
    normalized states, so a caller presenting unnormalized coefficients
    gets an error naming the deficit.  Zero entries are allowed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex] | np.ndarray):
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("need at least two coefficients")
        total = float(np.vdot(arr, arr).real)  # inf or nan past the float range, no warning
        if not abs(total - 1.0) <= STRUCTURAL_TOL:
            raise NormalizationError(
                f"coefficients have squared norm {total:.12g}"
                f" (deficit {1.0 - total:.12g}); normalize explicitly"
            )
        arr.flags.writeable = False
        self.coeffs = arr

    @classmethod
    def normalize(cls, coeffs: Sequence[complex] | np.ndarray) -> "CoefficientVector":
        """Explicitly rescale arbitrary nonzero coefficients to unit norm.

        The coefficients are first scaled by the power of two that brings
        their largest real or imaginary part into [1/2, 1), so the norm
        neither overflows nor underflows at any finite scale.  That scaling
        is exact, so unit-scale input gives the same bits as a plain
        division by its norm.
        """
        arr = np.asarray(coeffs, dtype=np.complex128)
        big = float(np.abs(np.stack([arr.real, arr.imag])).max(initial=0.0))
        if not math.isfinite(big):
            raise NormalizationError("coefficients must be finite")
        if big == 0.0:
            raise ValueError("cannot normalize the zero vector")
        shift = -math.frexp(big)[1]
        arr = np.ldexp(arr.real, shift) + 1j * np.ldexp(arr.imag, shift)
        return cls(arr / np.linalg.norm(arr))

    @property
    def n(self) -> int:
        return int(self.coeffs.shape[0])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"CoefficientVector(n={self.n})"


@dataclass(frozen=True)
class ConditionReport:
    """Both sides of the half-half split condition for one partition size.

    ``holds`` requires the residual *and* the distance of the left sum from
    1/2 to be below tolerance; equality of the sums alone would let
    unnormalized input slip through.
    """

    partition_size: int
    left_sum: float
    right_sum: float
    residual: float
    holds: bool


def _condition_report(m: int, left: float, right: float) -> ConditionReport:
    residual = abs(left - right)
    holds = residual < STRUCTURAL_TOL and abs(left - 0.5) < STRUCTURAL_TOL
    return ConditionReport(
        partition_size=m, left_sum=left, right_sum=right, residual=residual, holds=holds
    )


class UnsuitableResourceError(ValueError):
    """The resource state cannot run the protocol; carries the failed check."""

    def __init__(self, message: str, report: ConditionReport | None = None):
        super().__init__(message)
        self.report = report


def generalized_w(c: CoefficientVector) -> StateVector:
    """sum_l a_l |0..010..0| with the excitation at position l; normalized."""
    return sub_w(c, 1, c.n)


def sub_w(c: CoefficientVector, start: int, end: int) -> StateVector:
    """Un-normalized excitation block with coefficients a_start..a_end.

    The result lives on end-start+1 qubits and has norm
    sqrt(sum |a_l|^2 over the range); for the full range this is the
    normalized state itself.
    """
    start, end = require_int(start), require_int(end)
    if not (1 <= start <= end <= c.n):
        raise ValueError(f"invalid range ({start}, {end}) for n={c.n}")
    k = end - start + 1
    amps = np.zeros(2**k, dtype=np.complex128)
    amps[excitation_indices(k)] = c.coeffs[start - 1 : end]
    return StateVector(k, amps)


def excitation_indices(k: int) -> np.ndarray:
    """Where a W-class register on k qubits keeps its amplitudes: coefficient
    l (the excitation on qubit l, qubit 1 leftmost) at index 2^(k-l)."""
    return 1 << np.arange(k - 1, -1, -1)


def excitation_blocks(
    c: CoefficientVector, m: int
) -> tuple[StateVector, StateVector, StateVector, float]:
    """(front block, raw back block, normalized back block, back norm).

    The blocks are the excitation terms on the first n-m and the last m
    qubits, so front (x) |0..0> + |0..0> (x) raw back block reassembles
    ``generalized_w(c)``: its two-term form at this cut.  The split
    condition forces both block norms to 1/sqrt(2); vanishing blocks can
    only come from inconsistent input and are rejected because the
    protocols' measurement vectors would collapse.
    """
    n, m = c.n, require_int(m)
    front = sub_w(c, 1, n - m)
    back_raw = sub_w(c, n - m + 1, n)
    back_norm = back_raw.norm
    if front.norm < 1e-12 or back_norm < 1e-12:
        raise UnsuitableResourceError(
            "an excitation block of the resource vanishes; measurement vectors collapse"
        )
    wm = StateVector(m, back_raw.amplitudes / back_norm)
    return front, back_raw, wm, back_norm


def w_coefficients(n: int) -> CoefficientVector:
    """Uniform coefficients 1/sqrt(n)."""
    n = require_int(n, 2)
    return CoefficientVector(np.full(n, 1.0 / math.sqrt(n)))


def modified_w_coefficients(n: int) -> CoefficientVector:
    """Half the excitation weight on the last qubit, the rest shared evenly.

    a_n = 1/sqrt(2) and a_l = 1/sqrt(2(n-1)) otherwise, so the m=1 split
    condition holds for every n.  For n=3 this is (1/2, 1/2, 1/sqrt(2)).
    """
    n = require_int(n, 2)
    coeffs = np.full(n, 1.0 / math.sqrt(2.0 * (n - 1)), dtype=np.complex128)
    coeffs[-1] = 1.0 / math.sqrt(2.0)
    return CoefficientVector(coeffs)


def standard_w(n: int) -> StateVector:
    """The n-qubit W-state: uniform single-excitation superposition."""
    return generalized_w(w_coefficients(n))


def require_unit_pair(a: complex, b: complex) -> None:
    """Raise NormalizationError unless |a|^2 + |b|^2 = 1 within tolerance,
    summed as a ``StateVector`` sums it: inf or nan, never OverflowError."""
    pair = StateVector(1, [a, b])
    if not pair.normalized:
        raise NormalizationError(
            f"|a|^2 + |b|^2 = {pair.norm_squared:.12g} must equal 1; normalize explicitly"
        )


def generalized_ghz(a1: complex, a2: complex, n: int) -> StateVector:
    """a1 |00...0> + a2 |11...1| on n qubits; coefficients must be normalized."""
    n = require_int(n, 2)
    require_unit_pair(a1, a2)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = a1
    amps[-1] = a2
    return StateVector(n, amps)


def ghz(n: int) -> StateVector:
    """The n-qubit GHZ-state (|00...0> + |11...1>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return generalized_ghz(s, s, n)


def teleport_condition(c: CoefficientVector, m: int) -> ConditionReport:
    """Check the half-half split for the cut "last m qubits vs the rest".

    Other qubit assignments are reached by permuting the coefficients first
    (see :func:`permute_coefficients`); the single canonical formula keeps
    the bookkeeping honest.
    """
    n, m = c.n, require_int(m)
    if not (1 <= m <= n - 1):
        raise ValueError(f"partition size m={m} must lie in 1..{n - 1}")
    return _splits(c)(m)


def _splits(c: CoefficientVector):
    """:func:`teleport_condition`'s report for any valid m, |a|^2 taken once."""
    w, n = np.abs(c.coeffs) ** 2, c.n
    add = np.add.reduce  # what ndarray.sum runs, without its wrapper
    return lambda m: _condition_report(m, float(add(w[: n - m])), float(add(w[n - m :])))


def ghz_condition(a1: complex, a2: complex, m: int = 1) -> ConditionReport:
    """Split condition for a1 |0..0> + a2 |1..1>: |a1|^2 = |a2|^2 = 1/2.

    Every bipartition of such a state has the same reduced spectrum
    {|a1|^2, |a2|^2}, so the report is independent of the partition size.
    """
    m = require_int(m, 1)
    require_unit_pair(a1, a2)
    return _condition_report(m, abs(a1) ** 2, abs(a2) ** 2)


def binary_entropy(p: float) -> float:
    """H(p) = -p log2(p) - (1-p) log2(1-p), the entropy of a two-term cut.

    A state with two orthogonal terms of weights p and 1-p across a cut
    (any generalized W- or GHZ-state) has exactly this reduced entropy.
    Weights at or past 0 and 1 (rounding of normalized input) give 0.
    """
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p)) - ((1.0 - p) * math.log2(1.0 - p))


def partition_entropy_formula(n: int, x: int) -> float:
    """Closed-form bipartition entropy of the n-qubit W-state.

    For any x-qubit subset: H(x/n) = -(x/n)log2(x/n) - (1-x/n)log2(1-x/n),
    which reaches one exactly when n is even and x = n/2.
    """
    n, x = require_int(n, 2), require_int(x)
    if not (0 < x < n):
        raise ValueError(f"subset size x={x} must lie in 1..{n - 1}")
    return binary_entropy(x / n)


def cut_entropy(c: CoefficientVector, x: int) -> float:
    """Closed-form entropy of the last x qubits of ``generalized_w(c)``.

    The cut splits the state into two orthogonal terms, so the entropy is
    H of the excitation weight on the last x qubits;
    :func:`partition_entropy_formula` is the uniform case.
    """
    return binary_entropy(teleport_condition(c, x).right_sum)


def _checked_scan(state: StateVector, condition, side: str | None = None) -> tuple[list, list]:
    """``condition(m)`` for every m in 1..n-1, checked against the simulated
    spectrum of the last m qubits; given a ``side``, also the entropy row from
    that spectrum: (m, simulated entropy, H(report.<side>), match within tolerance).

    The spectra are the rows of one ``trailing_spectra_stack`` (one stacked SVD for
    n >= 4), each bit for bit ``reduced_spectrum`` of its cut, checked and taken to
    entropies as one array.  Both state families split into two orthogonal terms
    across every cut, so each spectrum's two nonzero values must equal the report's
    left and right sums; else checker and simulator diverged: it raises at the first m.
    """
    spectra = trailing_spectra_stack(state)
    reports = [condition(m) for m in range(1, len(spectra) + 1)]
    expected = np.zeros(spectra.shape)
    expected[:, -2:] = [sorted((rep.left_sum, rep.right_sum)) for rep in reports]
    deviation = np.maximum.reduce(np.abs(spectra - expected), axis=1)
    failing = np.flatnonzero(~(deviation <= STRUCTURAL_TOL))
    if failing.size:
        raise InternalConsistencyError(
            f"split sums and simulated reduced spectrum disagree at m={failing[0] + 1}"
            f" (max deviation {deviation[failing[0]]:.3e})"
        )
    entropies = spectrum_entropy(spectra).tolist() if side else []
    return reports, [(m, s, (f := binary_entropy(getattr(rep, side))), abs(s - f) <= STRUCTURAL_TOL)
                     for m, (rep, s) in enumerate(zip(reports, entropies), 1)]


def suitability_scan(c: CoefficientVector) -> list[ConditionReport]:
    """Condition reports for every partition size m in 1..n-1, each
    cross-validated against the simulated reduced spectrum."""
    return _checked_scan(generalized_w(c), _splits(c))[0]


def ghz_suitability_scan(a1: complex, a2: complex, n: int) -> list[ConditionReport]:
    """Per-partition reports for a generalized GHZ state, cross-validated
    against the simulated reduced spectrum {|a1|^2, |a2|^2}; one pair check."""
    state, rep = generalized_ghz(a1, a2, n), ghz_condition(a1, a2)
    return _checked_scan(state, lambda m: replace(rep, partition_size=m))[0]


def entropy_scan(c: CoefficientVector) -> list[tuple[int, float, float, bool]]:
    """(x, simulated entropy, :func:`cut_entropy`, match) for the last x
    qubits, x in 1..n-1, from the spectra :func:`suitability_scan` checks."""
    return _checked_scan(generalized_w(c), _splits(c), "right_sum")[1]


def ghz_entropy_scan(a1: complex, a2: complex, n: int) -> list[tuple[int, float, float, bool]]:
    """(x, simulated entropy, H(|a1|^2), match) for the last x qubits of the
    generalized GHZ state, x in 1..n-1, from the pair checked once."""
    state, rep = generalized_ghz(a1, a2, n), ghz_condition(a1, a2)
    return _checked_scan(state, lambda m: replace(rep, partition_size=m), "left_sum")[1]


def permute_coefficients(c: CoefficientVector, order: Sequence[int]) -> CoefficientVector:
    """Relabel qubits: entry i of the result is coefficient ``order[i]``.

    ``order`` is a permutation of 1..n.  Permuting coefficients and
    permuting the qubits of ``generalized_w(c)`` are the same operation, so
    this is how arbitrary qubit assignments are fed to the last-m condition.
    """
    order = [require_int(q) for q in order]
    if sorted(order) != list(range(1, c.n + 1)):
        raise ValueError(f"order must be a permutation of 1..{c.n}")
    return CoefficientVector(c.coeffs[[q - 1 for q in order]])

