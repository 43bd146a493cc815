"""Independent oracles for the test suite.

Everything here is deliberately written with explicit index arithmetic
(qubit 1 = most significant bit) instead of the library's reshape/transpose
machinery, so a bug in the package cannot hide in its own verification.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from wproto.qsim import PAULI_FOUR, DimensionError, StateVector
from wproto.wstates import CoefficientVector


def ket(n: int, bits: str) -> np.ndarray:
    """Basis vector |bits> built by plain binary index arithmetic."""
    assert len(bits) == n
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[int(bits, 2)] = 1.0
    return vec


def build_state(n: int, terms: dict[str, complex]) -> np.ndarray:
    """Hand-expanded superposition written as bitstring -> amplitude."""
    vec = np.zeros(2**n, dtype=np.complex128)
    for bits, amp in terms.items():
        vec[int(bits, 2)] += amp
    return vec


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.num_qubits != b.num_qubits:
        raise DimensionError(
            f"inner product needs equal qubit counts, got {a.num_qubits} and {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def oracle_branch(joint: np.ndarray, vec: np.ndarray, n: int, k: int) -> np.ndarray:
    """Un-normalized post-state of measuring the FIRST k qubits onto ``vec``.

    Loops over every computational index; the first k qubits form the high
    bits of the amplitude index.
    """
    rest = n - k
    out = np.zeros(2**rest, dtype=np.complex128)
    for idx in range(2**n):
        a = idx >> rest
        b = idx & ((1 << rest) - 1)
        out[b] += np.conj(vec[a]) * joint[idx]
    return out


def oracle_reduced_density(psi: np.ndarray, n: int, keep: list[int]) -> np.ndarray:
    """Reduced density matrix of the 1-based ``keep`` qubits, by bit surgery."""
    keep0 = [q - 1 for q in keep]
    rest0 = [q for q in range(n) if q not in keep0]
    mat = np.zeros((2 ** len(keep0), 2 ** len(rest0)), dtype=np.complex128)
    for idx in range(2**n):
        a = 0
        for q in keep0:
            a = (a << 1) | ((idx >> (n - 1 - q)) & 1)
        b = 0
        for q in rest0:
            b = (b << 1) | ((idx >> (n - 1 - q)) & 1)
        mat[a, b] += psi[idx]
    return mat @ mat.conj().T


def oracle_entropy(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum())


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gram_of(vectors: list[np.ndarray]) -> np.ndarray:
    """Pairwise inner products by explicit loops."""
    k = len(vectors)
    g = np.zeros((k, k), dtype=np.complex128)
    for i in range(k):
        for j in range(k):
            g[i, j] = np.sum(np.conj(vectors[i]) * vectors[j])
    return g


def random_coefficients(n: int, rng: np.random.Generator) -> CoefficientVector:
    """Haar-ish random normalized complex coefficients."""
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    return CoefficientVector.normalize(raw)


def random_condition_coefficients(
    n: int, m: int, rng: np.random.Generator
) -> CoefficientVector:
    """Random coefficients that satisfy the split condition at partition m.

    Each block is drawn at random and rescaled to squared norm 1/2, so
    ``teleport_condition(result, m).holds`` by construction.
    """
    if not (1 <= m <= n - 1):
        raise ValueError(f"partition size m={m} must lie in 1..{n - 1}")
    front = rng.normal(size=n - m) + 1j * rng.normal(size=n - m)
    back = rng.normal(size=m) + 1j * rng.normal(size=m)
    front *= 1.0 / (math.sqrt(2.0) * np.linalg.norm(front))
    back *= 1.0 / (math.sqrt(2.0) * np.linalg.norm(back))
    return CoefficientVector(np.concatenate([front, back]))


def dense_strategy1_set(wm: np.ndarray) -> list[np.ndarray]:
    """The four subspace corrections on span{|0..0>, wm} as dense matrices:
    I - |0><0| - |w><w| + [|0>, |w>] sigma [|0>, |w>]^dagger."""
    b0 = np.zeros_like(wm)
    b0[0] = 1.0
    complement = np.eye(len(wm)) - np.outer(b0, b0.conj()) - np.outer(wm, wm.conj())
    pair = np.stack([b0, wm], axis=1)
    return [complement + pair @ sigma @ pair.conj().T for sigma in PAULI_FOUR]


def dense_transfer(wm: np.ndarray) -> np.ndarray:
    """The reflection swapping wm with p|0..01>, then the phase conj(p) on
    |0..01>, as a dense matrix."""
    v, w1 = wm.astype(np.complex128), wm[1]
    p = w1 / abs(w1) if w1 else 1.0
    s = float(np.sum(np.abs(np.delete(v, 1)) ** 2))
    v[1] = -p * s / (1.0 + abs(w1))
    t = np.eye(len(wm), dtype=np.complex128)
    if s > 0.0:
        t -= (2.0 / (s + abs(v[1]) ** 2)) * np.outer(v, v.conj())
    t[1] *= np.conj(p)
    return t


def dense_strategy2_set(wm: np.ndarray) -> list[np.ndarray]:
    """The transfer after each subspace correction, multiplied out densely."""
    t = dense_transfer(wm)
    return [t @ u for u in dense_strategy1_set(wm)]


def round_floats(obj: Any) -> Any:
    """Clamp reals to 12 significant digits, rebuilding dicts and turning
    tuples into lists: the report tree that ``json.dumps(...,
    sort_keys=True, indent=2)`` renders into the bytes ``cli.emit`` must write."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj
