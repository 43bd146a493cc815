"""Superdense coding over generalized W-state resources.

With the split condition holding at partition m, the sender holds the last
m qubits (the completely mixed share), applies one of 2^(m+1) local
unitaries, and ships her qubits; the receiver distinguishes the 2^(m+1)
mutually orthogonal results, for m+1 classical bits per m qubits sent.
One extra bit over the qubit count is also the ceiling: the best any
bipartition of a two-term-decomposable state can do, since no partition
has entropy above one.

Encoding sets:

  * :func:`pauli_set` - the four single-qubit operators (m = 1, 2 bits);
  * :func:`w4_multiunary_set` - eight two-qubit tensor-product operators
    for the four-qubit W-state (3 bits by 2 qubits);
  * :func:`general_encoding_set` - 2^(m+1) operators for any suitable
    resource, m + 1 = 2 + (m - 1) bits: the four receiver transfer
    corrections dense-code 2 bits onto the last qubit, and a bit-flip
    pattern on the first m - 1 qubits carries one more bit each.  The
    construction is always validated by :func:`decode`, never assumed;
  * :func:`pauli_product_set` - all 4^m tensor products, used to confirm
    that 2m bits per m qubits is *not* achievable.

Decoding is modeled as projective measurement onto the encoded states,
which is valid exactly when their Gram matrix is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from .qsim import (
    PAULI_FOUR,
    STRUCTURAL_TOL,
    MeasurementBasis,
    ProtocolViolationError,
    StateVector,
    Unitary,
    apply_unitary,
    gram_matrix,
)
from .teleport import bob_strategy2_set, require_condition
from .wstates import CoefficientVector, excitation_blocks, generalized_w


@dataclass(frozen=True)
class EncodingSet:
    """2^k local unitaries on the sender's qubits, labeled by k-bit messages."""

    operators: tuple[Unitary, ...]
    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        count = len(self.operators)
        if count < 2 or count & (count - 1) != 0:
            raise ValueError(f"operator count must be a power of two, got {count}")
        if len(self.labels) != count or len(set(self.labels)) != count:
            raise ValueError("labels must be distinct and match the operator count")
        bits = self.message_bits
        for label in self.labels:
            if len(label) != bits or any(b not in (0, 1) for b in label):
                raise ValueError(f"labels must be {bits}-bit tuples")
        dim = self.operators[0].dimension
        if any(op.dimension != dim for op in self.operators):
            raise ValueError("all operators must share one dimension")

    @classmethod
    def from_operators(cls, operators: Sequence[Unitary]) -> "EncodingSet":
        """Label operators by their position, written in binary."""
        count = len(operators)
        bits = count.bit_length() - 1
        labels = tuple(_bit_tuple(i, bits) for i in range(count))
        return cls(tuple(operators), labels)

    @property
    def message_bits(self) -> int:
        return len(self.operators).bit_length() - 1

    @property
    def num_qubits(self) -> int:
        return self.operators[0].num_qubits

    def operator_for(self, message: Sequence[int]) -> Unitary:
        msg = tuple(int(b) for b in message)
        try:
            return self.operators[self.labels.index(msg)]
        except ValueError:
            raise ValueError(
                f"message {msg} is not one of the {len(self.labels)} labels"
            ) from None


@dataclass(frozen=True)
class DecodeVerdict:
    """Whether a list of encoded states is perfectly distinguishable.

    When decodable, ``basis`` holds the induced measurement (the states
    themselves); otherwise ``worst_pair`` names the largest Gram-matrix
    violation (i, j, deviation).
    """

    decodable: bool
    num_states: int
    gram: np.ndarray
    worst_pair: tuple[int, int, float] | None
    basis: MeasurementBasis | None


@dataclass(frozen=True)
class CapacityResult:
    """Classical bits recoverable from an encoding set on a resource.

    ``exhaustive`` is False when the largest-orthogonal-subset search fell
    back to the greedy filter (set sizes above 16), in which case ``bits``
    is a lower bound, flagged non-optimal.
    """

    bits: int
    decodable: bool
    set_size: int
    subset_size: int
    subset_indices: tuple[int, ...]
    exhaustive: bool


def _bit_tuple(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def pauli_set() -> list[Unitary]:
    """The four single-qubit encoding operators (identity, flips, sign)."""
    return [Unitary(s) for s in PAULI_FOUR]


def w4_multiunary_set() -> EncodingSet:
    """Eight two-qubit operators carrying 3 bits over the four-qubit W-state.

    Tensor products of the single-qubit set, in an order whose encoded
    states on either half of the W-state are mutually orthogonal.
    """
    pairs = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 2), (3, 3)]
    ops = [Unitary(np.kron(PAULI_FOUR[i], PAULI_FOUR[j])) for i, j in pairs]
    return EncodingSet.from_operators(ops)


def pauli_product_set(m: int) -> EncodingSet:
    """All 4^m tensor products of the single-qubit set on m qubits."""
    if m < 1:
        raise ValueError("need m >= 1")
    ops = []
    for combo in product(range(4), repeat=m):
        mat = reduce(np.kron, (PAULI_FOUR[i] for i in combo))
        ops.append(Unitary(mat))
    return EncodingSet.from_operators(ops)


def general_encoding_set(c: CoefficientVector, m: int) -> EncodingSet:
    """2^(m+1) operators on the last m qubits of a suitable resource.

    m + 1 = 2 + (m - 1) bits: the four corrections of :func:`bob_strategy2_set`
    act as the Pauli set on span{|0..0>, |w>} (|w> = the renormalized
    excitation block on the sender's qubits) and move it onto the last qubit,
    dense-coding 2 bits; each is then followed by one of the 2^(m-1) bit-flip
    patterns b on the first m - 1 qubits (rows i -> i XOR 2b), one bit per
    qubit, since different patterns land on orthogonal basis pairs.  Callers
    should still confirm via :func:`decode` — and the tests do.
    """
    corrections = bob_strategy2_set(m, excitation_blocks(c, m)[2])
    rows = np.arange(2**m)
    flips = [rows ^ 2 * b for b in range(2 ** (m - 1))]
    return EncodingSet.from_operators([Unitary(u.matrix[f]) for f in flips for u in corrections])


def _sender_qubits(c: CoefficientVector, m: int, encoding: EncodingSet) -> range:
    """Gate on the split condition at m and the set's size; the sender's
    last m qubits."""
    require_condition(c, m)
    if encoding.num_qubits != m:
        raise ValueError(
            f"encoding set acts on {encoding.num_qubits} qubits, partition is m={m}"
        )
    return range(c.n - m + 1, c.n + 1)


def encode(
    c: CoefficientVector, m: int, encoding: EncodingSet, message: Sequence[int]
) -> StateVector:
    """Apply the message's operator to the sender's last m qubits.

    The sender must hold the unit-entropy share, i.e. the split condition
    must hold at m (enforced); encoding on any other partition produces
    non-orthogonal states and no decoder can recover the message.
    """
    sender = _sender_qubits(c, m, encoding)
    return apply_unitary(generalized_w(c), encoding.operator_for(message), sender)


def decode(states: Sequence[StateVector]) -> DecodeVerdict:
    """Judge whether the states are perfectly distinguishable.

    The states are tried as a (partial) projective measurement of their
    own: if its orthonormality check passes (Gram matrix the identity
    within tolerance), it reads the message deterministically and the
    Gram matrix of that one check is the verdict's.  Otherwise the Gram
    matrix is computed for the verdict, which names the worst pair.
    Failure is a verdict, not an error.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    n = states[0].num_qubits
    for s in states:
        if s.num_qubits != n:
            raise ValueError("all states must share one qubit count")
        if not s.normalized:
            raise ValueError("all states must be normalized")
    if len(states) <= 2**n:
        labels = [f"s{k}" for k in range(len(states))]
        try:
            basis = MeasurementBasis(range(1, n + 1), states, labels)
            return DecodeVerdict(True, len(states), basis.gram, None, basis)
        except ProtocolViolationError:
            pass  # not orthonormal: the Gram matrix below names the worst pair
    gram = gram_matrix(states)
    deviation = np.abs(gram - np.eye(len(states)))
    i, j = divmod(int(deviation.argmax()), len(states))
    return DecodeVerdict(False, len(states), gram, (i, j, float(deviation[i, j])), None)


def capacity_check(
    c: CoefficientVector, m: int, encoding: EncodingSet
) -> CapacityResult:
    """Encode every message, decode, and report the achievable bit count.

    The resource is built and the split condition checked once for the
    whole set; each message then costs one operator application.  If the
    full set decodes, the capacity is log2(set size) exactly.  Otherwise
    the result reports the largest mutually orthogonal subset: exact
    (max-clique over the orthogonality graph) for set sizes up to 16,
    greedy and flagged non-optimal beyond that.  Either way the subset
    answer is diagnostic — the protocol's capacity claim is about full sets.
    """
    sender = _sender_qubits(c, m, encoding)
    resource = generalized_w(c)
    verdict = decode([apply_unitary(resource, op, sender) for op in encoding.operators])
    size = verdict.num_states
    if verdict.decodable:
        bits = size.bit_length() - 1
        return CapacityResult(bits, True, size, size, tuple(range(size)), True)
    orthogonal = np.abs(verdict.gram) <= STRUCTURAL_TOL
    if size <= 16:
        subset = _max_orthogonal_subset(orthogonal)
        exhaustive = True
    else:
        subset = _greedy_orthogonal_subset(orthogonal)
        exhaustive = False
    bits = int(math.floor(math.log2(len(subset))))
    return CapacityResult(bits, False, size, len(subset), tuple(subset), exhaustive)


def _greedy_orthogonal_subset(orthogonal: np.ndarray) -> list[int]:
    chosen: list[int] = []
    for v in range(orthogonal.shape[0]):
        if all(orthogonal[v, u] for u in chosen):
            chosen.append(v)
    return chosen


def _max_orthogonal_subset(orthogonal: np.ndarray) -> list[int]:
    """Exact maximum clique of the pairwise-orthogonality graph."""
    n = orthogonal.shape[0]
    neighbors = [0] * n
    for v in range(n):
        for u in range(n):
            if u != v and orthogonal[v, u]:
                neighbors[v] |= 1 << u
    best: list[int] = []

    def grow(current: list[int], candidates: int) -> None:
        nonlocal best
        if len(current) > len(best):
            best = current[:]
        while candidates:
            if len(current) + candidates.bit_count() <= len(best):
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            grow(current + [v], candidates & neighbors[v])

    grow([], (1 << n) - 1)
    return sorted(best)
