"""Dense pure-state simulation kernel for small qubit registers.

States are dense complex amplitude vectors indexed so that qubit 1 is the
most significant bit of the amplitude index: ``|q1 q2 ... qn>`` lives at
index ``q1*2^(n-1) + q2*2^(n-2) + ... + qn``.  Dense vectors keep every
operation exact up to float rounding; reduced spectra come from the Schmidt
values of a cut's support block, so the cuts of a GHZ state or of a W-class
state on n >= 4 qubits share one SVD and no entropy builds a 2^k x 2^k matrix.

Unitary application and projective measurement also come as stacked
kernels over a (G, 2^n) array of amplitude rows, one state per row
(:func:`apply_unitary_stack`, :func:`project_stack`).  They run the same
BLAS call on every row that the one-state call runs on that row, so each
row's result is equal bit for bit, and they check every row on its own;
:func:`apply_unitary` and :func:`project` are their one-row case.  Row
norms and overlaps are one ``np.vecdot`` over the stack, the BLAS zdotc
that ``np.vdot`` runs on each row.  :func:`state_rows` turns a stack into
``StateVector`` rows and :func:`fidelity_stack` compares two stacks row by
row, the second repeated over blocks of the first (:func:`fidelity` is its
one-row case), so a caller that works on stacks makes no per-row call.  A
:class:`Unitary` is the identity but a block on the indices it moves, with
an optional row order; it is built, checked, composed and permuted on that
block, and only its application reads the dense matrix, built once.

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
        num_qubits = require_int(num_qubits)
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


def _block_deviation(block: np.ndarray) -> float:
    """max |B†B - I|; NaN for a NaN or infinite entry, without multiplying it
    out (inf * 0 would raise a floating-point warning)."""
    if not np.isfinite(block).all():
        return float("nan")
    gram = block.conj().T @ block
    gram.ravel()[:: len(gram) + 1] -= 1.0  # B†B - I in place
    return float(np.abs(gram).max(initial=0.0))


def unitarity_deviation(matrix: np.ndarray) -> float:
    """max |U†U - I| of a square complex matrix, on the block that moves.

    The block is the set of indices whose row or column differs from the
    identity's (an off-diagonal entry != 0 or a diagonal entry != 1, or NaN).
    Every other row and column is exactly a basis vector, so it adds only
    exact 0s and 1s to U†U, and B†B - I on the principal block B has the
    same entries as U†U - I there; U†U - I is exactly 0 elsewhere.  An
    operator that moves k of d indices costs O(k^3), not O(d^3); a dense
    matrix's block is the whole matrix.
    """
    moved = matrix != np.eye(len(matrix))
    idx = (moved | moved.T).any(axis=0).nonzero()[0]
    return _block_deviation(matrix[idx[:, None], idx])


class Unitary:
    """Unitary operator: the identity but a k x k ``block`` on its sorted
    ``moved`` indices, then an optional row ``order`` (row i is row
    ``order[i]``).  ``Unitary(matrix)`` finds the block as
    :func:`unitarity_deviation` does, :meth:`on_block` takes it given, and
    both check max |B†B - I| <= ``STRUCTURAL_TOL`` in O(k^3).  ``matrix`` is
    the dense view, built on first read and cached read-only.
    """

    __slots__ = ("dimension", "moved", "block", "order", "_matrix")

    def __init__(self, matrix: np.ndarray):
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got {mat.shape}")
        moved = mat != np.eye(len(mat))  # as unitarity_deviation finds them
        idx = (moved | moved.T).any(axis=0).nonzero()[0]
        self._store(len(mat), idx, mat if len(idx) == len(mat) else mat[idx[:, None], idx], mat)

    def _store(self, dim: int, moved: np.ndarray, block: np.ndarray, matrix: np.ndarray | None):
        if dim & (dim - 1) != 0 or dim < 2:
            raise DimensionError(f"dimension must be a power of two, got {dim}")
        dev = _block_deviation(block)
        if not dev <= STRUCTURAL_TOL:
            raise ValueError(f"matrix is not unitary (max U†U-I deviation {dev:.3e})")
        for array in (moved, block) if matrix is None else (moved, block, matrix):
            array.flags.writeable = False
        self.dimension, self.moved, self.block, self.order = dim, moved, block, None
        self._matrix = matrix

    @classmethod
    def on_block(cls, dimension: int, moved: Sequence[int], block: np.ndarray) -> "Unitary":
        """The identity on ``dimension`` indices but ``block`` on the sorted,
        distinct ``moved`` ones."""
        dim, idx, b = require_int(dimension), np.asarray(moved), np.array(block, np.complex128)
        listed = idx.tolist()
        if idx.ndim != 1 or listed and (idx.dtype.kind not in "iu" or sorted(set(listed)) != listed
                                        or not 0 <= listed[0] <= listed[-1] < dim):
            raise ValueError(f"moved indices must be sorted, distinct integers in 0..{dim - 1}")
        if b.shape != (len(idx), len(idx)):
            raise DimensionError(f"expected a {len(idx)}x{len(idx)} block, got {b.shape}")
        out = object.__new__(cls)
        out._store(dim, idx.astype(np.int64), b, None)
        return out

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mat = np.eye(self.dimension, dtype=np.complex128)
            mat[self.moved[:, None], self.moved] = self.block
            self._matrix = mat if self.order is None else mat[self.order]
            self._matrix.flags.writeable = False
        return self._matrix

    def permute_rows(self, order: Sequence[int] | np.ndarray) -> "Unitary":
        """The operator whose row i is row ``order[i]`` of this one.

        A row permutation P keeps (PU)†(PU) = U†U, so only ``order`` is
        checked, in O(dimension): it must be a bijection of 0..dimension-1.
        The result shares this operator's block and composes the orders.
        """
        idx, dim = np.array(order), self.dimension
        seen = np.zeros(dim, dtype=bool)
        if idx.shape == (dim,) and idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < dim:
            seen[idx] = True
        if not seen.all():
            raise ValueError(f"row order is not a permutation of 0..{dim - 1}: {idx.dtype} {idx.shape}")
        out = object.__new__(Unitary)
        out.dimension, out.moved, out.block, out._matrix = dim, self.moved, self.block, None
        out.order = idx if self.order is None else self.order[idx]
        out.order.flags.writeable = False
        return out

    def __matmul__(self, other: "Unitary") -> "Unitary":
        """self·other, composed on the union of the moved indices in O(k^3)."""
        if self.order is not None or other.order is not None or other.dimension != self.dimension:
            raise ValueError("only operators of one dimension and no row order compose on blocks")
        idx = np.array(sorted({*self.moved.tolist(), *other.moved.tolist()}), dtype=np.int64)
        a, b = self.block, other.block
        if len(idx) > min(len(self.moved), len(other.moved)):  # embed both in the union
            a, b = np.eye(len(idx), dtype=np.complex128), np.eye(len(idx), dtype=np.complex128)
            for full, u in ((a, self), (b, other)):
                pos = np.searchsorted(idx, u.moved)
                full[pos[:, None], pos] = u.block
        return Unitary.on_block(self.dimension, idx, a @ b)

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


def unit_rows(rows: np.ndarray) -> np.ndarray:
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
    for amps, unit in zip(rows, unit_rows(rows).tolist()):
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


def fidelity_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a_g|b_g>|² of row g of a (K·G, 2^q) stack and row g mod G of a (G, 2^q)
    one: ``b`` is held against each of K blocks of ``a`` without a copy.

    Every row on both sides must be normalized (the rule of
    ``StateVector.normalized``).  Each overlap is one ``np.vecdot`` row, the
    BLAS zdotc of ``np.vdot``, and its modulus is the ``hypot`` that ``abs``
    of a Python complex takes; global phase drops out.
    """
    a, b = _stack(a), _stack(b)
    if a.shape[1] != b.shape[1] or len(a) % len(b):
        raise DimensionError(f"fidelity needs b's rows to tile a's, got {a.shape} and {b.shape}")
    if not (unit_rows(a).all() and unit_rows(b).all()):
        raise NormalizationError("fidelity is defined for normalized states only")
    overlap = np.vecdot(a.reshape((-1,) + b.shape), b).reshape(-1)
    return np.hypot(overlap.real, overlap.imag) ** 2


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|² between normalized states: the one-row case of
    :func:`fidelity_stack`."""
    return float(fidelity_stack(a.amplitudes[None], b.amplitudes[None])[0])


def gram_matrix(vectors: Sequence[StateVector] | np.ndarray) -> np.ndarray:
    """Matrix of pairwise inner products <v_i|v_j> of states, or of the rows
    of a (K, 2^n) amplitude stack as it is: only its conjugate is a copy."""
    arr = vectors if isinstance(vectors, np.ndarray) else np.array([v.amplitudes for v in vectors])
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
    if not unit_rows(rows).all():
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
    """The amplitudes with the ``keep`` qubits moved last (in listed order), and k."""
    idx, n = _validated_subset(keep, state.num_qubits), state.num_qubits
    if len(idx) == n:
        raise ValueError("keep must be a proper subset; use an outer product instead")
    if not state.normalized:
        raise NormalizationError("a reduced state needs a normalized state")
    order = [q - 1 for q in range(1, n + 1) if q not in idx] + [q - 1 for q in idx]
    return state.amplitudes.reshape((2,) * n).transpose(order).reshape(-1), len(idx)


def partial_trace(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix of the ``keep`` qubits (in listed order)."""
    amps, k = _cut(state, keep)
    psi = amps.reshape(-1, 2**k).T
    return DensityMatrix(k, psi @ psi.conj().T)


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each key's place among its row's distinct keys, ascending, and their count."""
    at = (np.arange(len(keys))[:, None], keys.argsort(axis=1))
    ordered, new = keys[at], np.zeros(keys.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    ranks = np.empty(keys.shape, dtype=np.intp)
    ranks[at] = steps = np.add.accumulate(new, axis=1, dtype=np.intp)
    return ranks, (steps[:, -1] + 1).tolist()


def _spectra(amps: np.ndarray, ks: Sequence[int]) -> list[np.ndarray]:
    """Ascending spectrum of the last k qubits of ``amps`` for each k in ``ks``.

    A cut's support block is the grouped (2^k, 2^(n-k)) matrix without its zero
    rows and columns: rows are the kept patterns ``i & (2^k - 1)`` and columns
    the rest patterns ``i >> k`` that occur, both ascending.  With s nonzero
    amplitudes and s^2 <= 2^n, blocks are zero-padded to (s, s) and share one
    SVD; otherwise blocks of one shape share one.  A block depends only on the
    state and the cut, so no batch changes a bit.  Past the block's rank bound
    min(rows, columns) a spectrum is exact zeros, up to min(2^k, 2^(n-k)) values.
    """
    n, cuts, s = len(amps).bit_length() - 1, len(ks), int(np.count_nonzero(amps))
    if s * s <= 2**n:
        support, m = (amps != 0).nonzero()[0], np.array(ks, dtype=np.intp)[:, None]
        ranks, counts = _ranks(np.concatenate([support & ((1 << m) - 1), support >> m]))
        stack = np.zeros((cuts, s, s), dtype=np.complex128)
        stack[np.arange(cuts)[:, None], ranks[:cuts], ranks[cuts:]] = amps[support]
        batches = [(range(cuts), stack, list(map(min, counts[:cuts], counts[cuts:])))]
    else:
        groups, batches = {}, []
        for i, k in enumerate(ks):
            psi = amps.reshape(-1, 2**k).T
            if s < len(amps):  # drop the zero rows and columns
                occupied = psi != 0
                psi = psi[np.logical_or.reduce(occupied, 1)][:, np.logical_or.reduce(occupied, 0)]
            groups.setdefault(psi.shape, []).append((i, psi))
        for shape, group in groups.items():
            at, blocks = zip(*group)  # a lone block goes in as a view, not a copy
            stack = np.stack(blocks) if len(blocks) > 1 else blocks[0][None]
            batches.append((at, stack, [min(shape)] * len(at)))
    spectra = [None] * cuts
    for at, stack, widths in batches:
        lam = np.linalg.svd(stack, compute_uv=False)[:, ::-1] ** 2
        for i, values, width in zip(at, lam, widths):
            spectra[i] = np.zeros(2 ** min(ks[i], n - ks[i]))
            spectra[i][-width:] = values[-width:]
            spectra[i].flags.writeable = False
    return spectra


def reduced_spectrum(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Ascending spectrum of the reduced state of the ``keep`` qubits: the largest
    min(2^k, 2^(n-k)) eigenvalues of ``partial_trace(state, keep)`` (the others
    are zero), from the cut's support block with ``keep`` moved last (see
    :func:`_spectra`), so no 2^k x 2^k matrix is built."""
    amps, k = _cut(state, keep)
    return _spectra(amps, [k])[0]


def trailing_spectra(state: StateVector) -> list[np.ndarray]:
    """:func:`reduced_spectrum` of the last m qubits for m = 1..n-1, bit for bit,
    from one stacked SVD when s^2 <= 2^n (any GHZ state, any W-class one on n >= 4)."""
    if not state.normalized:
        raise NormalizationError("a reduced state needs a normalized state")
    return _spectra(state.amplitudes, range(1, state.num_qubits))


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
