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
    that 2m bits per m qubits is *not* achievable.  The resource-free
    sets (``pauli``, ``w4``, the m = 2 products) are built once per process.

An :class:`EncodingSet` holds K distinct base operators and F row orders;
message f·K + k is base k in order f.  Decoding is modeled as projective
measurement onto the encoded states, valid exactly when their Gram matrix is
the identity.
:func:`capacity_check` encodes on the resource's two Schmidt columns across
the cut, a 2^m x 2 block taken from the excitation blocks, multiplies each
base block into it once and gathers every message's state with one index; no
2^n resource, dense 2^m x 2^m operator or per-message operator is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import product
from typing import Sequence

import numpy as np

from .qsim import (
    NORM_PRESERVATION_TOL,
    PAULI_FOUR,
    PAULIS,
    STRUCTURAL_TOL,
    DimensionError,
    InternalConsistencyError,
    NormalizationError,
    StateVector,
    Unitary,
    apply_unitary,
    gram_matrix,
    permute_rows_stack,
    require_int,
    row_orders,
    unit_rows,
)
from .teleport import bob_strategy2_set, require_condition
from .wstates import CoefficientVector, excitation_blocks, generalized_w


@dataclass(frozen=True, eq=False)
class EncodingSet:
    """2^k local unitaries on the sender's qubits, as K distinct ``bases`` and
    optional (F, dimension) row ``orders``: message f·K + j (k bits, most
    significant first) is base j with row i taken from row ``orders[f][i]``,
    :func:`permute_rows_stack`'s layout (without orders, message j is base j).
    Only the bases are ``Unitary`` objects until :attr:`operators` is read."""

    bases: tuple[Unitary, ...]
    orders: np.ndarray | None = None

    def __post_init__(self):
        bases = tuple(self.bases)
        if any(op.dimension != bases[0].dimension for op in bases):
            raise ValueError("all operators must share one dimension")
        object.__setattr__(self, "bases", bases)
        if self.orders is not None:
            object.__setattr__(self, "orders", row_orders(self.orders, bases[0].dimension))
        if self.size < 2 or self.size & (self.size - 1) != 0:
            raise ValueError(f"operator count must be a power of two, got {self.size}")

    @property
    def size(self) -> int:
        """The message count, K·F."""
        return len(self.bases) * (1 if self.orders is None else len(self.orders))

    @property
    def message_bits(self) -> int:
        return self.size.bit_length() - 1

    @property
    def num_qubits(self) -> int:
        return self.bases[0].num_qubits

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        """Every message, in operator order."""
        return tuple(product((0, 1), repeat=self.message_bits))

    @cached_property
    def operators(self) -> tuple[Unitary, ...]:
        """Each message's operator (without orders, its base), built on first read."""
        return self.bases if self.orders is None else tuple(permute_rows_stack(self.bases, self.orders))

    def operator_for(self, message: Sequence[int]) -> Unitary:
        """The operator at the message's binary value; each bit passes
        ``require_int``, so a bool or a float raises ValueError."""
        msg = tuple(require_int(b) for b in message)
        if len(msg) != self.message_bits or any(b not in (0, 1) for b in msg):
            raise ValueError(f"message {msg} must be {self.message_bits} bits, each 0 or 1")
        return self.operators[reduce(lambda k, b: 2 * k + b, msg, 0)]

    def gather(self, per_base: np.ndarray) -> np.ndarray:
        """Each message's entry of a (K, dimension, ...) stack of one entry per
        base: its base's, its rows in its order, gathered with one index."""
        if self.orders is None:
            return per_base
        picked = per_base[np.arange(len(self.bases))[:, None], self.orders[:, None]]
        return picked.reshape((-1,) + per_base.shape[1:])


@dataclass(frozen=True)
class DecodeVerdict:
    """Whether a list of encoded states is perfectly distinguishable.

    When not decodable, ``worst_pair`` names the largest Gram-matrix
    violation (i, j, deviation).
    """

    decodable: bool
    num_states: int
    gram: np.ndarray
    worst_pair: tuple[int, int, float] | None


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


@cache
def pauli_set() -> EncodingSet:
    """The four single-qubit encoding operators (identity, flips, sign), shared."""
    return EncodingSet(PAULIS)


@cache
def w4_multiunary_set() -> EncodingSet:
    """Eight two-qubit operators carrying 3 bits over the four-qubit W-state.

    The shared m = 2 products P_i (x) P_j at positions 4i + j, in an order
    whose encoded states on either half of the W-state are mutually orthogonal.
    """
    pairs = [(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 2), (3, 3)]
    products = pauli_product_set(2).operators
    return EncodingSet([products[4 * i + j] for i, j in pairs])


def pauli_product_set(m: int) -> EncodingSet:
    """All 4^m tensor products of the single-qubit set on m qubits; only m = 2 is shared."""
    m = require_int(m, 1)
    return _pauli_products(m) if m == 2 else _pauli_products.__wrapped__(m)


@cache
def _pauli_products(m: int) -> EncodingSet:
    combos = product(range(4), repeat=m)
    return EncodingSet([Unitary(reduce(np.kron, (PAULI_FOUR[i] for i in c))) for c in combos])


def general_encoding_set(c: CoefficientVector, m: int) -> EncodingSet:
    """2^(m+1) operators on the last m qubits of a suitable resource.

    m + 1 = 2 + (m - 1) bits: the four corrections of :func:`bob_strategy2_set`
    act as the Pauli set on span{|0..0>, |w>} (|w> = the renormalized
    excitation block on the sender's qubits) and move it onto the last qubit,
    dense-coding 2 bits; each is then followed by one of the 2^(m-1) bit-flip
    patterns b on the first m - 1 qubits (rows i -> i XOR 2b), one bit per
    qubit, since different patterns land on orthogonal basis pairs.  The set
    holds the four corrections and the patterns as row orders, checked once;
    no matrix is copied and no message operator is built.
    Callers should still confirm via :func:`decode` — and the tests do.
    """
    corrections = bob_strategy2_set(m, excitation_blocks(c, m)[2])
    flips = np.arange(2**m) ^ 2 * np.arange(2 ** (m - 1))[:, None]
    return EncodingSet(corrections, flips)


#: each named set: the m it encodes on (None: any m), its operator count at m
#: and its builder, which looks its function up when called, so a wrapper
#: bound to the module name (a profiler, a test's patch) sees every call
ENCODING_SETS = {
    "pauli": (1, lambda m: 4, lambda c, m: pauli_set()),
    "w4": (2, lambda m: 8, lambda c, m: w4_multiunary_set()),
    "generated": (None, lambda m: 2 ** (m + 1), lambda c, m: general_encoding_set(c, m)),
    "full-products": (2, lambda m: 4**m, lambda c, m: pauli_product_set(m)),
}


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

    They are exactly when their Gram matrix is the identity within
    ``STRUCTURAL_TOL``: the states are then a (partial) projective
    measurement of their own, ``MeasurementBasis(range(1, n + 1), states)``,
    which reads the message deterministically.  Otherwise the verdict
    names the worst pair of the same Gram matrix.  Failure is a verdict,
    not an error.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    if len({s.num_qubits for s in states}) != 1:
        raise DimensionError("all states must share one qubit count")
    return _verdict(np.array([s.amplitudes for s in states]))


def _verdict(rows: np.ndarray) -> DecodeVerdict:
    """:func:`decode`'s rule on a (K, 2^n) stack: every row normalized, and
    the Gram matrix, taken from the stack in place, I or its worst pair."""
    if not unit_rows(rows).all():
        raise NormalizationError("all states must be normalized")
    gram = gram_matrix(rows)
    deviation = np.abs(gram)  # |gram - I| without an identity: the diagonal apart
    deviation.flat[:: len(gram) + 1] = np.abs(gram.diagonal() - 1.0)
    if deviation.max() <= STRUCTURAL_TOL:
        return DecodeVerdict(True, len(gram), gram, None)
    i, j = divmod(int(deviation.argmax()), len(gram))
    return DecodeVerdict(False, len(gram), gram, (i, j, float(deviation[i, j])))


def capacity_check(
    c: CoefficientVector, m: int, encoding: EncodingSet
) -> CapacityResult:
    """Encode every message, decode, and report the achievable bit count.

    The split condition is checked once for the whole set.  The resource is
    front (x) |0..0> + |0..0> (x) back_raw across the cut, and front has no
    |0..0> amplitude, so an encoded state U_k's inner products are those of
    the 2^m x 2 block U_k [|front| |0..0>, back_raw]: its two Schmidt
    columns, from :func:`excitation_blocks`.  That block is multiplied once
    by each base block (``generated`` has four, shared by its row orders) on
    the indices it moves, and one index gathers every message's rows from
    those products (:meth:`EncodingSet.gather`) into one stack whose row norms
    must all keep the resource's within ``NORM_PRESERVATION_TOL``.  These compact
    states are an isometric image of the full encoded states, so
    :func:`decode`'s rule on the stack sees the same Gram matrix up to
    summation order.

    If the full set decodes, the capacity is log2(set size) exactly.
    Otherwise the result reports the largest mutually orthogonal subset:
    exact (max-clique over the orthogonality graph) for set sizes up to
    16, greedy and flagged non-optimal beyond that.  Either way the subset
    answer is diagnostic — the protocol's capacity claim is about full sets.
    """
    _sender_qubits(c, m, encoding)
    front, back_raw = excitation_blocks(c, m)[:2]
    columns = np.zeros((2**m, 2), dtype=np.complex128)
    columns[0, 0], columns[:, 1] = front.norm, back_raw.amplitudes
    norm = math.sqrt(np.vdot(columns, columns).real)
    products = np.tile(columns, (len(encoding.bases), 1, 1))
    for op, product in zip(encoding.bases, products):
        product[op.moved] = op.block @ columns[op.moved]
        if op.order is not None:
            product[...] = product[op.order]
    stack = encoding.gather(products).reshape(encoding.size, -1)
    if not (np.abs(np.sqrt(np.vecdot(stack, stack).real) - norm) <= NORM_PRESERVATION_TOL).all():
        raise InternalConsistencyError("unitary application failed to preserve the norm")
    verdict = _verdict(stack)
    size = verdict.num_states
    if verdict.decodable:
        bits = size.bit_length() - 1
        return CapacityResult(bits, True, size, size, tuple(range(size)), True)
    orthogonal = np.abs(verdict.gram) <= STRUCTURAL_TOL
    exhaustive = size <= 16
    subset = (_max_orthogonal_subset if exhaustive else _greedy_orthogonal_subset)(orthogonal)
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
    neighbors = [sum(1 << u for u in range(n) if u != v and orthogonal[v, u]) for v in range(n)]
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
