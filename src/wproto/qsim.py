"""Dense pure-state simulation kernel for small qubit registers.

States are dense complex amplitude vectors indexed so that qubit 1 is the
most significant bit of the amplitude index: ``|q1 q2 ... qn>`` lives at
index ``q1*2^(n-1) + q2*2^(n-2) + ... + qn``.  Dense vectors keep every
operation exact up to float rounding; reduced spectra come from the Schmidt
values across a cut, so entropies never build a 2^k x 2^k density matrix.

Unitary application and projective measurement also come as stacked
kernels over a (G, 2^n) array of amplitude rows, one state per row
(:func:`apply_unitary_stack`, :func:`project_stack`).  They run the same
BLAS call on every row that the one-state call runs on that row, so each
row's result is equal bit for bit, and they check every row on its own;
:func:`apply_unitary` and :func:`project` are their one-row case.  Row
norms and overlaps are one ``np.vecdot`` over the stack, the BLAS zdotc
that ``np.vdot`` runs on each row.  :func:`state_rows` turns a stack into
``StateVector`` rows and :func:`fidelity_stack` compares two stacks row by
row (:func:`fidelity` is its one-row case), so a caller that works on
stacks makes no per-row call.

All values are immutable after construction (amplitude buffers are marked
read-only) and every operation is a pure function, so independent
computations can be run in parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: tolerance for structural checks: normalization, orthogonality, hermiticity
STRUCTURAL_TOL = 1e-10
#: tolerance for norm preservation under unitary application
NORM_PRESERVATION_TOL = 1e-12
#: outcome probabilities below this are reported without a post-state
ZERO_PROBABILITY = 1e-24
#: qubit budget: the largest resource register a scenario may ask for
#: (2^20 amplitudes take 16 MiB; a teleport's joint register has one more)
MAX_QUBITS = 20

# The four single-qubit encoding operators used throughout: identity, bit
# flip, bit-plus-sign flip, sign flip.  The third entry is i*sigma_y, kept
# real so that |0> -> -|1> and |1> -> |0>.
SIGMA_0 = np.eye(2, dtype=np.complex128)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
I_SIGMA_2 = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI_FOUR = (SIGMA_0, SIGMA_1, I_SIGMA_2, SIGMA_3)


class DimensionError(ValueError):
    """Operands act on incompatible qubit counts or vector lengths."""


class NormalizationError(ValueError):
    """A state or coefficient vector is not normalized where it must be."""


class ProtocolViolationError(RuntimeError):
    """A measurement family is invalid for the state it is applied to.

    Raised when a would-be basis fails the orthonormality check, or when a
    state has support outside the span of a partial basis.  Either way the
    resource/state combination cannot realize the intended protocol.
    """


class InternalConsistencyError(RuntimeError):
    """An internally guaranteed identity failed; indicates a bug."""


class StateVector:
    """Pure state of ``num_qubits`` qubits as a dense complex vector.

    ``normalized`` is derived at construction: True iff the squared norm is
    within ``STRUCTURAL_TOL`` of one.  Un-normalized vectors are allowed
    (sub-state blocks of a larger superposition carry their own weight) but
    stay flagged so consumers can refuse them where normalization matters.
    """

    __slots__ = ("num_qubits", "amplitudes", "normalized")

    def __init__(self, num_qubits: int, amplitudes: Sequence[complex] | np.ndarray):
        num_qubits = require_int(num_qubits)
        if num_qubits < 1:
            raise DimensionError("a state needs at least one qubit")
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.shape[0] != 2**num_qubits:
            raise DimensionError(
                f"expected {2**num_qubits} amplitudes for {num_qubits} qubits,"
                f" got shape {amps.shape}"
            )
        amps.flags.writeable = False
        self.num_qubits = num_qubits
        self.amplitudes = amps
        self.normalized = bool(abs(self.norm_squared - 1.0) <= STRUCTURAL_TOL)

    @property
    def norm_squared(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_squared)

    def __repr__(self) -> str:
        return (
            f"StateVector(num_qubits={self.num_qubits},"
            f" norm={self.norm:.12g}, normalized={self.normalized})"
        )


class DensityMatrix:
    """Mixed or reduced state: Hermitian, unit-trace, PSD up to rounding."""

    __slots__ = ("num_qubits", "entries", "eigenvalues")

    def __init__(self, num_qubits: int, entries: np.ndarray):
        if num_qubits < 1:
            raise DimensionError("a density matrix needs at least one qubit")
        mat = np.array(entries, dtype=np.complex128)
        dim = 2**num_qubits
        if mat.shape != (dim, dim):
            raise DimensionError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        herm_dev = float(np.abs(mat - mat.conj().T).max())
        if not herm_dev <= STRUCTURAL_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        trace_dev = abs(complex(np.trace(mat)) - 1.0)
        if not trace_dev <= STRUCTURAL_TOL:
            raise ValueError(f"trace must be 1 (deviation {trace_dev:.3e})")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < -STRUCTURAL_TOL:
            raise ValueError(f"matrix has a negative eigenvalue ({eigs[0]:.3e})")
        mat.flags.writeable = False
        eigs.flags.writeable = False
        self.num_qubits = num_qubits
        self.entries = mat
        self.eigenvalues = eigs

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"


def unitarity_deviation(matrix: np.ndarray) -> float:
    """max |U†U - I| of a square complex matrix, on the block that moves.

    The block is the set of indices whose row or column differs from the
    identity's (an off-diagonal entry != 0 or a diagonal entry != 1).
    Every other row and column is exactly a basis vector, so it adds only
    exact 0s and 1s to U†U, and B†B - I on the principal block B has the
    same entries as U†U - I there; U†U - I is exactly 0 elsewhere.  An
    operator that moves k of d indices costs O(k^3), not O(d^3); a dense
    matrix's block is the whole matrix.  A NaN or infinite entry (always in
    the block, as it differs from the identity's) gives NaN without
    multiplying it out, where inf * 0 would raise a floating-point warning.
    """
    eye = np.eye(len(matrix))
    moved = matrix != eye
    idx = (moved | moved.T).any(axis=0).nonzero()[0]
    k = len(idx)
    b = matrix if k == len(matrix) else matrix[idx[:, None], idx]
    if not np.isfinite(b).all():
        return float("nan")
    return float(np.abs(b.conj().T @ b - eye[:k, :k]).max(initial=0.0))


class Unitary:
    """Complex square matrix verified unitary at construction.

    The check is :func:`unitarity_deviation` <= ``STRUCTURAL_TOL``, the
    dense max |U†U - I| computed on the block of indices the matrix moves:
    the strategy-1/2 corrections and the transfer move about m + 1 of 2^m.
    :meth:`permute_rows` reorders the rows of a checked operator, which
    keeps U†U, so it checks only that the order is a bijection.
    """

    __slots__ = ("dimension", "matrix")

    def __init__(self, matrix: np.ndarray):
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got {mat.shape}")
        dim = mat.shape[0]
        if dim & (dim - 1) != 0 or dim < 2:
            raise DimensionError(f"dimension must be a power of two, got {dim}")
        dev = unitarity_deviation(mat)
        if not dev <= STRUCTURAL_TOL:
            raise ValueError(f"matrix is not unitary (max U†U-I deviation {dev:.3e})")
        mat.flags.writeable = False
        self.dimension = dim
        self.matrix = mat

    def permute_rows(self, order: Sequence[int] | np.ndarray) -> "Unitary":
        """The operator whose row i is row ``order[i]`` of this one.

        A row permutation P keeps (PU)†(PU) = U†U, so only ``order`` is
        checked, in O(dimension): it must be a bijection of 0..dimension-1.
        """
        idx = np.asarray(order)
        dim = self.dimension
        if idx.shape != (dim,) or idx.dtype.kind not in "iu":
            raise ValueError(
                f"row order must be {dim} integer indices, got {idx.dtype} {idx.shape}"
            )
        seen = np.zeros(dim, dtype=bool)
        if idx.min() >= 0 and idx.max() < dim:
            seen[idx] = True
        if not seen.all():
            raise ValueError(f"row order is not a permutation of 0..{dim - 1}")
        out = object.__new__(Unitary)
        out.dimension = dim
        out.matrix = self.matrix[idx]
        out.matrix.flags.writeable = False
        return out

    @property
    def num_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    def __repr__(self) -> str:
        return f"Unitary(dimension={self.dimension})"


#: ``PAULI_FOUR`` as checked operators, built once
PAULIS = tuple(Unitary(sigma) for sigma in PAULI_FOUR)


class MeasurementBasis:
    """Orthonormal family of labeled vectors on an ordered qubit subset.

    A family with fewer vectors than the subset dimension is *partial*;
    ``project`` then demands that the measured state has no support outside
    the family's span, which turns "this resource cannot run the protocol"
    into a detectable error instead of silent probability loss.
    """

    __slots__ = ("subset", "vectors", "labels")

    def __init__(
        self,
        subset: Sequence[int],
        vectors: Sequence[StateVector],
        labels: Sequence[str] | None = None,
    ):
        idx = _validated_subset(subset)
        k = len(idx)
        vecs = tuple(vectors)
        if not vecs:
            raise ValueError("measurement basis needs at least one vector")
        if len(vecs) > 2**k:
            raise ValueError(f"at most {2**k} vectors fit on {k} qubits")
        for v in vecs:
            if v.num_qubits != k:
                raise DimensionError(
                    f"basis vector on {v.num_qubits} qubits does not match subset size {k}"
                )
        if labels is None:
            labels = tuple(f"m{i}" for i in range(len(vecs)))
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(vecs) or len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct and match the vector count")
        gram = gram_matrix(vecs)
        dev = float(np.abs(gram - np.eye(len(vecs))).max())
        if not dev <= STRUCTURAL_TOL:
            raise ProtocolViolationError(
                f"measurement family is not orthonormal (max Gram deviation {dev:.3e})"
            )
        self.subset = idx
        self.vectors = vecs
        self.labels = labels

    @property
    def is_partial(self) -> bool:
        return len(self.vectors) < 2 ** len(self.subset)

    def __repr__(self) -> str:
        return (
            f"MeasurementBasis(subset={self.subset}, vectors={len(self.vectors)},"
            f" partial={self.is_partial})"
        )


@dataclass(frozen=True)
class ProtocolOutcome:
    """One measurement branch of :func:`project`: label, probability, post-state.

    ``post_state`` covers the unmeasured qubits in their original order and
    is None when the branch probability is (numerically) zero or when every
    qubit was measured.
    """

    label: str
    probability: float
    post_state: StateVector | None


def require_int(value: object, low: int | None = None) -> int:
    """A size, index or bit as an int: Python and numpy integers pass; a
    bool, a float or anything else raises ValueError rather than being
    truncated, and so does an integer below ``low`` when one is given."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low is None or value >= low:
            return int(value)
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    raise ValueError(f"expected an integer, got {value!r}")


def _validated_subset(subset: Sequence[int], num_qubits: int | None = None) -> tuple[int, ...]:
    """Distinct 1-based qubit indices, at most ``num_qubits`` when given."""
    idx = tuple(require_int(q) for q in subset)
    if not idx:
        raise ValueError("qubit subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise ValueError("qubit subset has repeated indices")
    if min(idx) < 1:
        raise ValueError(f"qubit indices are 1-based, got {idx}")
    if num_qubits is not None and max(idx) > num_qubits:
        raise ValueError(f"qubit indices must lie in 1..{num_qubits}, got {idx}")
    return idx


def _stack(rows: np.ndarray) -> np.ndarray:
    """A (G, 2^n) complex stack of amplitude rows, one state per row."""
    rows = np.asarray(rows, dtype=np.complex128)
    width = rows.shape[-1] if rows.ndim == 2 else 0
    if width < 2 or width & (width - 1) != 0:
        raise DimensionError(f"expected a (G, 2^n) amplitude stack, got shape {rows.shape}")
    return rows


def _norms_squared(rows: np.ndarray) -> np.ndarray:
    """<r|r> of every row by one ``np.vecdot``: it runs the BLAS zdotc that
    a ``StateVector``'s ``np.vdot`` runs on each row, so each value is equal
    bit for bit."""
    return np.vecdot(rows, rows).real


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Which rows are normalized, by the rule of ``StateVector.normalized``."""
    return np.abs(_norms_squared(rows) - 1.0) <= STRUCTURAL_TOL


def state_rows(rows: np.ndarray) -> list[StateVector]:
    """Each row of a (G, 2^q) amplitude stack as a read-only ``StateVector``,
    equal to ``StateVector(q, row)``.

    The stack is copied once and marked read-only, each state's amplitudes
    are a row of that copy, and every ``normalized`` flag comes from one
    batched norm; no state is constructed row by row.
    """
    rows = _stack(np.array(rows, dtype=np.complex128))
    rows.flags.writeable = False
    q = rows.shape[1].bit_length() - 1
    states = []
    for amps, unit in zip(rows, _unit_rows(rows).tolist()):
        state = object.__new__(StateVector)
        state.num_qubits, state.amplitudes, state.normalized = q, amps, unit
        states.append(state)
    return states


def _grouped(rows: np.ndarray, subset: Sequence[int]) -> tuple[np.ndarray, list[int], int]:
    """A (G, 2^n) stack as a (G, 2^k, rest) array with the k subset qubits as
    the middle axis, the qubit-axis permutation that put them there, and k."""
    g, n = len(rows), rows.shape[1].bit_length() - 1
    idx = _validated_subset(subset, n)
    k = len(idx)
    axes = [q - 1 for q in idx]
    perm = axes + [ax for ax in range(n) if ax not in axes]
    moved = rows.reshape((g,) + (2,) * n).transpose([0] + [ax + 1 for ax in perm])
    return moved.reshape(g, 2**k, -1), perm, k


def make_basis_state(num_qubits: int, bits: Sequence[int]) -> StateVector:
    """Computational basis state |b1 b2 ... bn> (qubit 1 = leftmost bit)."""
    num_qubits = require_int(num_qubits)
    bits = [require_int(b) for b in bits]
    if len(bits) != num_qubits:
        raise DimensionError(f"expected {num_qubits} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def zero_state(num_qubits: int) -> StateVector:
    """The all-zeros state |00...0>."""
    return make_basis_state(num_qubits, [0] * require_int(num_qubits))


def superpose(terms: Iterable[tuple[complex, StateVector]]) -> StateVector:
    """Componentwise linear combination of same-size states.

    The result's ``normalized`` flag is set only if its norm lands within
    tolerance of one; no rescaling is performed.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("superpose needs at least one term")
    n = terms[0][1].num_qubits
    acc = np.zeros(2**n, dtype=np.complex128)
    for coeff, sv in terms:
        if sv.num_qubits != n:
            raise DimensionError(
                f"mixed qubit counts in superposition: {sv.num_qubits} vs {n}"
            )
        acc += complex(coeff) * sv.amplitudes
    return StateVector(n, acc)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; the qubits of ``b`` follow those of ``a``."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.num_qubits != b.num_qubits:
        raise DimensionError(
            f"inner product needs equal qubit counts, got {a.num_qubits} and {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a_g|b_g>|² of row g of two equal-shape (G, 2^q) amplitude stacks.

    Every row on both sides must be normalized (the rule of
    ``StateVector.normalized``).  Each overlap is one ``np.vecdot`` row, the
    BLAS zdotc of ``np.vdot``, and its modulus is the ``hypot`` that ``abs``
    of a Python complex takes; global phase drops out.
    """
    a, b = _stack(a), _stack(b)
    if a.shape != b.shape:
        raise DimensionError(f"fidelity needs equal-shape stacks, got {a.shape} and {b.shape}")
    if not (_unit_rows(a).all() and _unit_rows(b).all()):
        raise NormalizationError("fidelity is defined for normalized states only")
    overlap = np.vecdot(a, b)
    return np.hypot(overlap.real, overlap.imag) ** 2


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|² between normalized states: the one-row case of
    :func:`fidelity_stack`."""
    return float(fidelity_stack(a.amplitudes[None], b.amplitudes[None])[0])


def gram_matrix(vectors: Sequence[StateVector]) -> np.ndarray:
    """Matrix of pairwise inner products <v_i|v_j>."""
    arr = np.array([v.amplitudes for v in vectors])
    return arr.conj() @ arr.T


def apply_unitary_stack(rows: np.ndarray, u: Unitary, subset: Sequence[int]) -> np.ndarray:
    """Apply ``u`` to the listed qubits (in listed order) of every row of a
    (G, 2^n) amplitude stack; identity elsewhere.

    One matmul over the stack: numpy runs the same BLAS call on each row
    that :func:`apply_unitary` runs on that row alone, so row g of the
    result equals it bit for bit.  Every row must keep its norm.
    """
    rows = _stack(rows)
    psi, perm, k = _grouped(rows, subset)
    if u.dimension != 2**k:
        raise DimensionError(
            f"operator of dimension {u.dimension} cannot act on {k} qubits"
        )
    g, n = len(rows), len(perm)
    back = [0] + [ax + 1 for ax in np.argsort(perm)]
    out = (u.matrix @ psi).reshape((g,) + (2,) * n).transpose(back).reshape(g, -1)
    drift = np.abs(np.sqrt(_norms_squared(out)) - np.sqrt(_norms_squared(rows)))
    if not (drift <= NORM_PRESERVATION_TOL).all():
        raise InternalConsistencyError("unitary application failed to preserve the norm")
    return out


def apply_unitary(state: StateVector, u: Unitary, subset: Sequence[int]) -> StateVector:
    """Apply ``u`` to the listed qubits (in listed order), identity elsewhere:
    the one-row case of :func:`apply_unitary_stack`."""
    return StateVector(state.num_qubits, apply_unitary_stack(state.amplitudes[None], u, subset)[0])


def project_stack(
    rows: np.ndarray, basis: MeasurementBasis
) -> list[tuple[str, np.ndarray, np.ndarray | None]]:
    """Projective measurement of ``basis.subset`` in every row of a (G, 2^n)
    amplitude stack.

    Returns, per basis vector in order, its label, the (G,) Born
    probabilities and the (G, 2^(n-k)) renormalized post-states of the
    remaining qubits (original order), or None when every qubit is
    measured.  A row whose probability is at most ``ZERO_PROBABILITY`` has
    no post-state: it is left zero, never divided by sqrt(0).  Each row
    must be normalized and, for a partial basis, have in-span probability
    one; a row that fails either raises, as :func:`project` does for it
    alone.  Every value equals :func:`project` on that row bit for bit: one
    ``vec.conj() @ psi`` per family vector runs the same BLAS call on each
    row, and each probability is the ``np.vdot`` value (see
    :func:`_norms_squared`).
    """
    rows = _stack(rows)
    if not _unit_rows(rows).all():
        raise NormalizationError("projective measurement expects a normalized state")
    psi, perm, k = _grouped(rows, basis.subset)
    v, g = len(basis.vectors), len(rows)
    branches = np.empty((v, g, psi.shape[2]), dtype=np.complex128)
    for vec, branch in zip(basis.vectors, branches):
        np.matmul(vec.amplitudes.conj(), psi, out=branch)
    p = _norms_squared(branches.reshape(v * g, -1)).reshape(v, g)
    total = 0.0
    for row in p:
        total = total + row
    outside = 1.0 - total
    failing = outside[~(np.abs(outside) <= STRUCTURAL_TOL)]
    if failing.size:
        raise ProtocolViolationError(
            f"state has probability {failing[0]:.6e} outside the span of the"
            f" measurement family ({v} vectors on {k} qubits)"
        )
    post = [None] * v
    if len(perm) > k:
        kept = (p > ZERO_PROBABILITY)[:, :, None]
        post = np.divide(branches, np.sqrt(p)[:, :, None], out=np.zeros_like(branches), where=kept)
    return list(zip(basis.labels, p, post))


def project(state: StateVector, basis: MeasurementBasis) -> list[ProtocolOutcome]:
    """Projective measurement of ``basis.subset`` in the given family: the
    one-row case of :func:`project_stack`.

    Returns one outcome per basis vector, with the exact Born probability
    and the renormalized post-measurement state of the remaining qubits
    (original order).  For a partial basis the in-span probability must be
    one; otherwise the state cannot be measured faithfully in this family
    and a ProtocolViolationError is raised.
    """
    rest = state.num_qubits - len(basis.subset)
    outcomes: list[ProtocolOutcome] = []
    for label, p, post in project_stack(state.amplitudes[None], basis):
        prob = float(p[0])
        kept = post is not None and prob > ZERO_PROBABILITY
        outcomes.append(
            ProtocolOutcome(label, prob, StateVector(rest, post[0]) if kept else None)
        )
    return outcomes


def _cut(state: StateVector, keep: Sequence[int]) -> tuple[np.ndarray, int]:
    """Amplitudes grouped across the cut "``keep`` vs the rest", and k."""
    psi, _, k = _grouped(state.amplitudes[None], keep)
    if k == state.num_qubits:
        raise ValueError("keep must be a proper subset; use an outer product instead")
    if not state.normalized:
        raise NormalizationError("a reduced state needs a normalized state")
    return psi[0], k


def partial_trace(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix of the ``keep`` qubits (in listed order)."""
    psi, k = _cut(state, keep)
    return DensityMatrix(k, psi @ psi.conj().T)


def reduced_spectrum(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Ascending spectrum of the reduced state of the ``keep`` qubits.

    The squared Schmidt coefficients, i.e. singular values of the amplitudes
    grouped as a (2^k, 2^(n-k)) matrix: the largest min(2^k, 2^(n-k))
    eigenvalues of ``partial_trace(state, keep)``, found without building or
    diagonalizing that 2^k x 2^k matrix.  Every other eigenvalue is zero.
    """
    psi, _ = _cut(state, keep)
    lam = np.linalg.svd(psi, compute_uv=False)[::-1] ** 2
    lam.flags.writeable = False
    return lam


def spectrum_entropy(eigenvalues: np.ndarray) -> float:
    """-sum(lam * log2(lam)) over a spectrum, with 0*log0 = 0.

    Eigenvalues pushed slightly negative by rounding are clamped to zero
    before the log.
    """
    lam = np.clip(eigenvalues, 0.0, None)
    lam = lam[lam > 0.0]
    return max(0.0, float(-(lam * np.log2(lam)).sum()))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of a density matrix's spectrum (see :func:`spectrum_entropy`);
    construction already bounds its eigenvalues below by -1e-10."""
    return spectrum_entropy(rho.eigenvalues)


def orthonormal_extension(vectors: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Extend orthonormal vectors to a full orthonormal basis (rows).

    Deterministic: missing directions come from Gram-Schmidt over the
    computational basis in index order.  No protocol builds on it; it is
    the reference the tests check the closed-form transfer unitary and the
    generated encoding set against.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        v = np.asarray(v, dtype=np.complex128)
        if not abs(np.vdot(v, v) - 1.0) <= STRUCTURAL_TOL:
            raise NormalizationError("seed vectors must be normalized")
        for b in basis:
            if not abs(np.vdot(b, v)) <= STRUCTURAL_TOL:
                raise ValueError("seed vectors must be mutually orthogonal")
        basis.append(v.copy())
    for j in range(dim):
        if len(basis) == dim:
            break
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        for _ in range(2):  # twice for numerical orthogonality
            for b in basis:
                e = e - b * np.vdot(b, e)
        nrm = float(np.linalg.norm(e))
        if nrm > 1e-6:
            basis.append(e / nrm)
    if len(basis) != dim:
        raise InternalConsistencyError("failed to complete an orthonormal basis")
    return np.array(basis)
