"""Dense pure-state simulation kernel for small qubit registers.

States are dense complex amplitude vectors indexed so that qubit 1 is the
most significant bit of the amplitude index: ``|q1 q2 ... qn>`` lives at
index ``q1*2^(n-1) + q2*2^(n-2) + ... + qn``; every operation is exact up
to float rounding.

The kernels work on stacks, the one-state call being their one-row case:
:func:`project_stack` measures every row of a (G, 2^n) amplitude array,
:func:`apply_unitary_stack` applies K operators moving the same indices to a
(K, G, 2^n) one, :func:`fidelity_stack` compares two stacks row by row, and
the reduced spectra of all cuts of a state are the rows of one array from
one SVD of their support blocks (:func:`trailing_spectra_stack`), whose
entropies :func:`spectrum_entropy` takes at once.  Each row keeps the values
of its one-state call bit for bit, up to the sign of a zero, at any BLAS
thread count.  A :class:`Unitary` is the identity but a block on the indices
it moves, with an optional row order; only the tests read its dense matrix.

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


def require_int(value: object, low: int | None = None) -> int:
    """A size, index or bit as an int: Python and numpy integers pass; a
    bool, a float or anything else raises ValueError rather than being
    truncated, and so does an integer below ``low`` when one is given."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low is None or value >= low:
            return int(value)
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    raise ValueError(f"expected an integer, got {value!r}")


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


def _block_deviation(blocks: np.ndarray) -> float:
    """max |B†B - I| over a block or a stack of them; NaN for a NaN or infinite
    entry, without multiplying it out (inf * 0 would raise a warning)."""
    if not np.isfinite(blocks).all():
        return float("nan")
    gram = blocks.conj().swapaxes(-1, -2) @ blocks
    gram -= np.eye(gram.shape[-1])  # B†B - I in place
    return float(np.abs(gram).max(initial=0.0))


def _checked(dimension: int, moved: Sequence[int], blocks: np.ndarray) -> tuple[int, np.ndarray]:
    """``dimension`` and ``moved`` (as int64) once they and a block or (K, k, k)
    stack of them pass every check: max |B†B - I| <= ``STRUCTURAL_TOL`` for all at once."""
    dim, idx = require_int(dimension), np.asarray(moved)
    listed = idx.tolist()
    if idx.ndim != 1 or listed and (idx.dtype.kind not in "iu" or sorted(set(listed)) != listed
                                    or not 0 <= listed[0] <= listed[-1] < dim):
        raise ValueError(f"moved indices must be sorted, distinct integers in 0..{dim - 1}")
    if blocks.ndim not in (2, 3) or blocks.shape[-2:] != (len(idx), len(idx)):
        raise DimensionError(f"expected a {len(idx)}x{len(idx)} block, got {blocks.shape}")
    if dim & (dim - 1) != 0 or dim < 2:
        raise DimensionError(f"dimension must be a power of two, got {dim}")
    dev = _block_deviation(blocks)
    if not dev <= STRUCTURAL_TOL:
        raise ValueError(f"matrix is not unitary (max U†U-I deviation {dev:.3e})")
    return dim, idx.astype(np.int64)


class Unitary:
    """Unitary operator: the identity but a k x k ``block`` on its sorted
    ``moved`` indices, then an optional row ``order`` (row i is row
    ``order[i]``).  ``Unitary(matrix)`` moves the indices whose row or column
    differs from the identity's (a dense matrix is its own block): the rest add
    only exact 0s and 1s to U†U, so B†B - I holds every entry of U†U - I that
    is not 0.  :meth:`on_block` takes the block given, and both check
    max |B†B - I| <= ``STRUCTURAL_TOL`` in O(k^3).  ``matrix`` is the dense
    view, built on first read and cached read-only.
    """

    __slots__ = ("dimension", "moved", "block", "order", "_matrix")

    def __init__(self, matrix: np.ndarray):
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got {mat.shape}")
        moved = mat != np.eye(len(mat))
        idx = (moved | moved.T).any(axis=0).nonzero()[0]
        block = mat if len(idx) == len(mat) else mat[idx[:, None], idx]
        self._fill(*_checked(len(mat), idx, block), block, None, mat)

    def _fill(self, dim: int, moved: np.ndarray, block: np.ndarray, order=None, matrix=None):
        for array in [a for a in (moved, block, order, matrix) if a is not None]:
            array.flags.writeable = False
        self.dimension, self.moved, self.block, self.order = dim, moved, block, order
        self._matrix = matrix
        return self

    @classmethod
    def on_block(cls, dimension: int, moved: Sequence[int], block: np.ndarray):
        """The identity on ``dimension`` indices but ``block`` on the sorted,
        distinct ``moved`` ones, or the tuple of K such operators for a (K, k, k)
        stack, checked at once: one block is the K = 1 case."""
        b = np.array(block, np.complex128)
        dim, idx = _checked(dimension, moved, b)
        ops = tuple(object.__new__(cls)._fill(dim, idx, one) for one in (b if b.ndim == 3 else [b]))
        return ops[0] if b.ndim == 2 else ops

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mat = np.eye(self.dimension, dtype=np.complex128)
            mat[self.moved[:, None], self.moved] = self.block
            self._matrix = mat if self.order is None else mat[self.order]
            self._matrix.flags.writeable = False
        return self._matrix

    @property
    def num_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    def __repr__(self) -> str:
        return f"Unitary(dimension={self.dimension})"


def row_orders(orders: np.ndarray, dim: int) -> np.ndarray:
    """The (F, ``dim``) row orders as a read-only copy, once all F are checked
    at once to be bijections of 0..dim-1."""
    idx, seen = np.array(orders), np.zeros(np.shape(orders), dtype=bool)
    if (idx.ndim == 2 and idx.shape[1] == dim and idx.dtype.kind in "iu" and idx.size
            and 0 <= idx.min() and idx.max() < dim):
        seen[np.arange(len(idx))[:, None], idx] = True
    if not (idx.size and seen.all()):
        raise ValueError(f"row order is not a permutation of 0..{dim - 1}: {idx.dtype} {idx.shape}")
    idx.flags.writeable = False
    return idx


def permute_rows_stack(operators: Sequence[Unitary], orders: np.ndarray) -> list[Unitary]:
    """Item f·K + k: ``operators[k]`` with row i taken from row ``orders[f][i]``.
    A row permutation P keeps (PU)†(PU) = U†U, so only the (F, dimension)
    orders are checked (:func:`row_orders`): each must be a bijection for every
    operator.  Each result shares its operator's block and composes the orders."""
    ops = tuple(operators)
    if {u.dimension for u in ops} != {dim := ops[0].dimension}:
        raise ValueError("only operators of one dimension share row orders")
    return [object.__new__(Unitary)._fill(dim, u.moved, u.block, o if u.order is None else u.order[o])
            for o in row_orders(orders, dim) for u in ops]


#: ``PAULI_FOUR`` as one checked stack on both indices, built once
PAULIS = Unitary.on_block(2, [0, 1], np.stack(PAULI_FOUR))


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


def _operator_rows(ops: Sequence[Unitary]) -> tuple[np.ndarray, np.ndarray]:
    """The rows that the blocks of ``ops`` move, the same for all, and those rows
    of each identity plus block at full length: a (K, R, dimension) stack."""
    moved = ops[0].moved  # a stack built at once shares one index array
    if any(u.moved is not moved and not np.array_equal(u.moved, moved) for u in ops[1:]):
        raise ValueError("operators applied in one call must move the same indices")
    blocks = np.array([u.block for u in ops])
    if len(moved) == 1:  # padded to two: numpy's product of one row takes a vector path
        padded = np.array([0, max(int(moved[0]), 1)])
        blocks = np.array([np.diag(np.where(padded == moved[0], b[0, 0], 1.0)) for b in blocks])
        moved = padded
    rows = np.zeros((len(ops), len(moved), ops[0].dimension), dtype=np.complex128)
    rows[:, :, moved] = blocks
    return moved, rows


def apply_unitary_stack(rows: np.ndarray, ops: Sequence[Unitary], subset: Sequence[int]) -> np.ndarray:
    """Apply K operators that move the same indices (else ValueError) to the
    listed qubits (in listed order) of a (K, G, 2^n) amplitude stack, operator
    k to block k; identity elsewhere.  One broadcast matmul multiplies the rows
    that the blocks move (:func:`_operator_rows`), each product the one a call
    on its block alone makes, the others are copied, and one gather applies the
    row orders: no 2^k x 2^k matrix is built, and each entry is the dense
    product's bit for bit, up to the sign of a zero.  All K·G rows keep their norms.
    """
    ops, stack = tuple(ops), np.asarray(rows, dtype=np.complex128)
    if stack.ndim != 3 or len(stack) != len(ops):
        raise DimensionError(f"expected a ({len(ops)}, G, 2^n) stack, got shape {stack.shape}")
    flat = _stack(stack.reshape(-1, stack.shape[-1]))
    psi, perm, k = _grouped(flat, subset)
    if any(u.dimension != 2**k for u in ops):
        raise DimensionError(f"operator of dimension {ops[0].dimension} cannot act on {k} qubits")
    moved, blocks = _operator_rows(ops)
    psi = psi.reshape((len(ops), -1) + psi.shape[1:])
    out = psi.copy()
    out[:, :, moved] = blocks[:, None] @ psi
    if any(u.order is not None for u in ops):
        orders = np.array([np.arange(2**k) if u.order is None else u.order for u in ops])
        out = np.take_along_axis(out, orders[:, None, :, None], axis=2)
    back = [0] + [ax + 1 for ax in np.argsort(perm)]
    out = out.reshape((len(flat),) + (2,) * len(perm)).transpose(back).reshape(flat.shape)
    drift = np.abs(np.sqrt(_norms_squared(out)) - np.sqrt(_norms_squared(flat)))
    if not (drift <= NORM_PRESERVATION_TOL).all():
        raise InternalConsistencyError("unitary application failed to preserve the norm")
    return out.reshape(stack.shape)


def apply_unitary(state: StateVector, u: Unitary, subset: Sequence[int]) -> StateVector:
    """Apply ``u`` to the listed qubits (in listed order), identity elsewhere:
    the one-operator, one-row case of :func:`apply_unitary_stack`."""
    rows = apply_unitary_stack(state.amplitudes[None, None], [u], subset)
    return StateVector(state.num_qubits, rows[0, 0])


def support_width(r: int, occupied: int) -> int:
    """Columns for ``occupied`` of 2^r rest patterns: a power of two of at least 8 (2^r
    if r < 2), on which ``vec.conj() @ psi`` is one value at any BLAS thread count."""
    return max(1 << (occupied - 1).bit_length(), 8 if r > 1 else 2**r)


#: twice the aligned groups of 4 in which OpenBLAS adds a gemv's axis, as support_width's 8
MEASURED_BLOCK = 8


def kept_patterns(k: int, occupied: np.ndarray) -> np.ndarray:
    """Sorted patterns of k qubits in aligned ``MEASURED_BLOCK``s holding an ``occupied``
    one; all 2^k if they form two blocks or fewer, of which one at most could drop."""
    if 2**k <= 2 * MEASURED_BLOCK:
        return np.arange(2**k)
    held = np.zeros(2**k // MEASURED_BLOCK, dtype=bool)
    held[occupied // MEASURED_BLOCK] = True
    return (held.nonzero()[0][:, None] * MEASURED_BLOCK + np.arange(MEASURED_BLOCK)).ravel()


def project_stack(
    rows: np.ndarray, basis: MeasurementBasis, support: tuple | None = None
) -> list[tuple[str, np.ndarray, np.ndarray | None]]:
    """Projective measurement of ``basis.subset`` in every row of a (G, 2^n)
    amplitude stack, or in support form: with ``support`` = (r, columns, kept),
    ``rows`` is the (G, P, W) block of P sorted ``kept`` patterns of the k measured
    qubits (in subset order) on the listed patterns of the r rest qubits, zero-padded.

    Returns, per basis vector in order, its label, the (G,) Born probabilities
    and the (G, 2^r) renormalized post-states of the rest qubits (original
    order), or None when every qubit is measured; a row of probability at most
    ``ZERO_PROBABILITY`` is left zero.  A row that is not normalized or, for a
    partial basis, not in the span raises, as :func:`project` does for it
    alone.  ``vec[kept].conj() @ psi`` gives each column one value at any BLAS
    thread count when W is :func:`support_width`'s, so the dense call pads its
    2^r columns to that width too.  It adds the measured axis in aligned groups
    of 4: ``kept`` may drop aligned all-zero blocks of ``MEASURED_BLOCK`` = 8
    (:func:`kept_patterns`; blocks of 4 to 16 moved no bit in 384 W-class draws
    at 1 and 2 threads, single zero patterns moved bits in all).  The norm check
    skips exact zeros only; the probabilities and the division (sums by position)
    run at full width, so each value is bit for bit :func:`project`'s up to a zero's sign.
    """
    if support is None:
        psi, perm, k = _grouped(_stack(rows), basis.subset)
        support = (len(perm) - k, np.arange(psi.shape[2]), np.arange(2**k))
        pad = support_width(support[0], psi.shape[2]) - psi.shape[2]
        psi = np.concatenate([psi, np.zeros_like(psi[:, :, :pad])], axis=2) if pad else psi
    else:
        psi, k = np.asarray(rows, dtype=np.complex128), len(basis.subset)
    rest, columns, kept = support
    if psi.ndim != 3 or psi.shape[1] != len(kept):
        raise DimensionError(f"expected a (G, {len(kept)}, W) support block, got {psi.shape}")
    kept = slice(None) if len(kept) == 2**k else kept  # every pattern: no gather
    if not unit_rows(psi.reshape(len(psi), -1)).all():
        raise NormalizationError("projective measurement expects a normalized state")
    v, g = len(basis.vectors), len(psi)
    branches = overlaps = np.empty((v, g, psi.shape[2]), dtype=np.complex128)
    for vec, branch in zip(basis.vectors, overlaps):
        np.matmul(vec.amplitudes[kept].conj(), psi, out=branch)
    if not len(columns) == psi.shape[2] == 2**rest:
        branches = np.zeros((v, g, 2**rest), dtype=np.complex128)
        branches[:, :, columns] = overlaps[:, :, : len(columns)]
    p = _norms_squared(branches.reshape(v * g, -1)).reshape(v, g)
    outside = 1.0 - p.sum(axis=0)
    failing = outside[~(np.abs(outside) <= STRUCTURAL_TOL)]
    if failing.size:
        raise ProtocolViolationError(
            f"state has probability {failing[0]:.6e} outside the span of the"
            f" measurement family ({v} vectors on {k} qubits)"
        )
    post = [None] * v
    if rest:
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


def _spectra(amps: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """Ascending spectra of the last k qubits of ``amps``, one per k in ``ks``, as the
    rows of one read-only array, each zero-padded on the left to the widest cut's
    min(2^k, 2^(n-k)) values.

    A cut's support block is the grouped (2^k, 2^(n-k)) matrix without its zero
    rows and columns: rows are the kept patterns ``i & (2^k - 1)`` and columns
    the rest patterns ``i >> k`` that occur, both ascending.  With s nonzero
    amplitudes and s^2 <= 2^n, blocks are zero-padded to (s, s) and share one
    SVD per stack of at most max(2^n, 2^12) amplitudes (one stack for any W-class
    or GHZ scan); otherwise each block has its own.  A block depends only on the
    state and the cut, so no batch changes a bit.  Past the block's rank bound
    min(rows, columns) a spectrum is exact zeros.
    """
    n, cuts, s = len(amps).bit_length() - 1, len(ks), int(np.count_nonzero(amps))
    if s * s <= 2**n:
        support, m = (amps != 0).nonzero()[0], np.array(ks, dtype=np.intp)[:, None]
        ranks, counts = _ranks(np.concatenate([support & ((1 << m) - 1), support >> m]))
        bounds, per = np.minimum(counts[:cuts], counts[cuts:]), max(2**n, 2**12) // (s * s)
        def padded(lo: int):  # at most ``per`` cuts from ``lo`` on, as one stack
            at = slice(lo, min(lo + per, cuts))
            stack = np.zeros((at.stop - lo, s, s), dtype=np.complex128)
            stack[np.arange(at.stop - lo)[:, None], ranks[at], ranks[cuts:][at]] = amps[support]
            return at, stack, bounds[at]
        batches = map(padded, range(0, cuts, per))  # one padded stack alive at a time
    else:
        batches = []
        for i, k in enumerate(ks):  # each block alone, as a view where no row or column is zero
            psi = amps.reshape(-1, 2**k).T
            if s < len(amps):  # drop the zero rows and columns
                occupied = psi != 0
                psi = psi[np.logical_or.reduce(occupied, 1)][:, np.logical_or.reduce(occupied, 0)]
            batches.append((slice(i, i + 1), psi[None], None))  # min(shape) values: its rank
    width = max([2 ** min(k, n - k) for k in ks], default=1)
    spectra = np.zeros((cuts, width))
    for at, stack, bound in batches:
        lam = (np.linalg.svd(stack, compute_uv=False)[:, ::-1] ** 2)[:, -width:]
        del stack
        if bound is not None:  # zeros past a padded block's rank bound
            lam[np.arange(lam.shape[1]) < lam.shape[1] - bound[:, None]] = 0.0
        spectra[at, width - lam.shape[1] :] = lam
    spectra.flags.writeable = False
    return spectra


def reduced_spectrum(state: StateVector, keep: Sequence[int]) -> np.ndarray:
    """Ascending spectrum of the reduced state of the ``keep`` qubits: the largest
    min(2^k, 2^(n-k)) eigenvalues of ``partial_trace(state, keep)`` (the others
    are zero), from the cut's support block with ``keep`` moved last (see
    :func:`_spectra`), so no 2^k x 2^k matrix is built."""
    amps, k = _cut(state, keep)
    return _spectra(amps, [k])[0]


def trailing_spectra_stack(state: StateVector) -> np.ndarray:
    """The spectra of the last m qubits, m = 1..n-1, as the rows of one read-only
    (n-1, 2^floor(n/2)) array from one SVD per :func:`_spectra` batch."""
    if not state.normalized:
        raise NormalizationError("a reduced state needs a normalized state")
    return _spectra(state.amplitudes, range(1, state.num_qubits))


def trailing_spectra(state: StateVector) -> list[np.ndarray]:
    """:func:`reduced_spectrum` of the last m qubits for m = 1..n-1, bit for bit:
    the rows of :func:`trailing_spectra_stack` without their padding."""
    n, stack = state.num_qubits, trailing_spectra_stack(state)
    return [row[len(row) - 2 ** min(m, n - m) :] for m, row in enumerate(stack, 1)]


def spectrum_entropy(eigenvalues: np.ndarray) -> float | np.ndarray:
    """-sum(lam * log2(lam)) over a spectrum, 0 log 0 = 0 and values rounded below zero
    taken as zero, or one per row of a (C, W) stack (a 1-D spectrum is the one-row
    case): one log2 over all positive entries, then each row's own (an ascending
    row's tail) summed alone, in a 1-D call's order, so with its bits."""
    lam = np.asarray(eigenvalues)
    rows = lam[None] if lam.ndim == 1 else lam
    positive = rows > 0.0  # negatives and zeros (0 log 0 = 0) drop out with the NaNs
    values, ends = rows[positive], np.add.accumulate(np.add.reduce(positive, axis=1)).tolist()
    terms = values * np.log2(values)
    sums = np.array([np.add.reduce(terms[lo:hi]) for lo, hi in zip([0] + ends, ends)])
    entropies = np.maximum(0.0, 0.0 - sums)  # 0 - x, not -x: +0.0 for a zero sum, as max(0.0, -0.0)
    return float(entropies[0]) if lam.ndim == 1 else entropies


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
