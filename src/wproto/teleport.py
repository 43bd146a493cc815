"""Teleportation over generalized W-state resources.

Qubit layout for a protocol run, in joint-state order:

    [unknown register (1 or m qubits)] [sender's n-m resource qubits]
    [receiver's m resource qubits] [optional auxiliary Bell pair]

The sender measures the unknown register together with her resource share
in a four-vector orthogonal family; the family is orthonormal exactly when
the resource satisfies the half-half split condition, so an unsuitable
resource is rejected up front rather than producing silently degraded
fidelity.  One builder makes every family here (the encoded, one-qubit
and GHZ sender families and the receiver's serial family) as two +/- pairs,
so outcome k of any family is undone by correction (0, 3, 1, 2)[k].  After
two classical bits, the receiver's m qubits hold the input encoded in
span{|0..0>, |w>} (|w> = the normalized excitation block on his qubits) up
to one of four subspace corrections, each built on its block (|0..0>,
|0..01> and |w>'s support), and he can

  * ``subspace``  - keep the state encoded in that two-dimensional span,
  * ``transfer``  - unitarily move it onto his last physical qubit,
  * ``serial``    - teleport it again, through a fresh Bell pair, onto one
                    qubit.

Each protocol is one hop, taken once or twice: every input row (x) the
resource is measured in a family, and one call corrects each outcome's rows
on the receiver's qubits.  ``serial`` hops again from every sender branch at
once, through (|00> + |11>)/sqrt(2) in the relay family; its sixteen branches
carry joint probabilities.  :func:`run_teleport_grid` builds a resource's
family, corrections and relay basis once and checks every grid point against
its own target, bit for bit a run of that point alone, in one columnar
:class:`ProtocolReport`; :func:`run_teleport_one_qubit` is its one-state
case, and :func:`run_teleport_encoded` sends an m-qubit register through the
same hop, whose measurement refuses one outside span{|0..0>, |w>}.  Every
branch is enumerated deterministically; nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qsim import (
    MAX_QUBITS,
    MEASURED_BLOCK,
    PAULI_FOUR,
    PAULIS,
    STRUCTURAL_TOL,
    ZERO_PROBABILITY,
    DimensionError,
    InternalConsistencyError,
    MeasurementBasis,
    NormalizationError,
    StateVector,
    Unitary,
    apply_unitary_stack,
    fidelity_stack,
    kept_patterns,
    make_basis_state,
    project_stack,
    require_int,
    state_rows,
    superpose,
    support_width,
    zero_state,
)
from .wstates import (
    CoefficientVector,
    ConditionReport,
    UnsuitableResourceError,
    excitation_blocks,
    excitation_indices,
    ghz_condition,
    require_unit_pair,
    teleport_condition,
)

#: a protocol run succeeds when every outcome fidelity clears this bar
FIDELITY_THRESHOLD = 1.0 - 1e-9

FAMILY_LABELS = ("xi+", "xi-", "eta+", "eta-")
SERIAL_LABELS = ("phi1+", "phi1-", "phi2+", "phi2-")

# outcome k -> correction (0, 3, 1, 2)[k] of (sigma_0, sigma_1, i*sigma_2, sigma_3)
CORRECTION_INDEX = dict(zip(FAMILY_LABELS + SERIAL_LABELS, (0, 3, 1, 2) * 2))

STRATEGIES = ("subspace", "transfer", "serial")

_K0, _K1 = make_basis_state(1, [0]), make_basis_state(1, [1])


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """A protocol run over G inputs and its K branches, as columns: branch
    k's label and last correction, and read-only (G, K) probabilities and
    fidelities and (G, K, 2^q) post-states.  The verdict is derived from
    ``fidelities`` against ``FIDELITY_THRESHOLD`` as it stands when read."""

    strategy: str | None
    labels: tuple[str, ...]
    corrections: tuple[Unitary, ...]
    probabilities: np.ndarray
    fidelities: np.ndarray
    post_states: np.ndarray

    #: two bits name the sender's outcome; the serial relay's second
    #: measurement is local to the receiver
    classical_bits_sent = 2

    @property
    def min_fidelity(self) -> float:
        return float(self.fidelities.min())

    @property
    def success(self) -> bool:
        return self.min_fidelity >= FIDELITY_THRESHOLD

    @property
    def reason(self) -> str:
        if self.success:
            return "every outcome reproduces the input exactly"
        return (
            f"minimum outcome fidelity {self.min_fidelity:.12g}"
            f" is below {FIDELITY_THRESHOLD:.12g}"
        )

    @property
    def probability_deviation(self) -> float:
        """Largest distance of a branch probability from the expected one:
        the branches are equiprobable, 1/4 per four-outcome measurement
        (1/16 for the serial relay's two)."""
        return float(np.abs(self.probabilities - 1.0 / len(self.labels)).max())


def _require_split(report: ConditionReport, problem: str) -> ConditionReport:
    """Gate: unless ``report`` holds, raise UnsuitableResourceError naming ``problem``."""
    if not report.holds:
        raise UnsuitableResourceError(
            f"{problem} (sums {report.left_sum:.6g} / {report.right_sum:.6g});"
            " the measurement family would not be orthonormal",
            report,
        )
    return report


def require_condition(c: CoefficientVector, m: int) -> ConditionReport:
    """Gate: raise UnsuitableResourceError unless the split condition holds."""
    report = teleport_condition(c, m)
    return _require_split(report, f"resource does not split half-and-half at m={m}")


def encoded_state(c: CoefficientVector, m: int, alpha: complex, beta: complex) -> StateVector:
    """The m-qubit register alpha|0..0> + beta|w>, |w> taken from the resource:
    one that :func:`run_teleport_encoded` carries."""
    require_unit_pair(alpha, beta)
    return superpose([(alpha, zero_state(m)), (beta, excitation_blocks(c, m)[2])])


def _family(zero: StateVector, one: StateVector, first: tuple, second: tuple) -> list[StateVector]:
    """The four vectors x|zero>|A> +- y|one>|B> and y|zero>|B> +- x|one>|A>
    for ``first`` = (x, A) and ``second`` = (y, B), in that order: every
    four-vector family of the protocols, summed as ``superpose`` sums
    ``tensor`` products (into zeros, so -0 becomes +0), bit for bit."""
    (x, a), (y, b) = first, second
    coefficients = np.array([complex(x), complex(y)])[:, None, None]
    parts = np.array([a.amplitudes, b.amplitudes])[:, None, :]
    base = (coefficients * (zero.amplitudes[:, None] * parts) + 0.0).reshape(2, -1)
    tails = (coefficients[::-1] * (one.amplitudes[:, None] * parts[::-1])).reshape(2, -1)
    rows = np.stack([base + tails, base - tails], axis=1)  # (pair, +-)
    return [StateVector(zero.num_qubits + a.num_qubits, row) for row in rows.reshape(4, -1)]


def raw_measurement_vectors(c: CoefficientVector, m: int) -> list[StateVector]:
    """The four family vectors for an m-qubit unknown register, ungated:

        xi+- = |0..0>|front> +- back_norm wm|0..0>;  eta+- = back_norm|0..0>|0..0> +- wm|front>

    Diagnostic: built from the +/- pattern regardless of whether the split
    condition holds, so callers can inspect how far the Gram matrix is from
    the identity for an unsuitable resource.  The vectors live on
    m + (n - m) = n qubits: unknown register first, then the sender's share.
    """
    front, _, wm, back_norm = excitation_blocks(c, m)
    return _family(zero_state(m), wm, (1, front), (back_norm, zero_state(c.n - m)))


def measurement_family(c: CoefficientVector, m: int) -> MeasurementBasis:
    """Orthonormal family for teleporting an encoded m-qubit state.

    Requires the split condition (enforced); each +/- expression then has
    norm one with no extra normalization factor, since both of its terms
    carry squared weight 1/2.  The basis is partial for n > 2 and covers
    qubits 1..n of the joint state.
    """
    require_condition(c, m)
    return MeasurementBasis(range(1, c.n + 1), raw_measurement_vectors(c, m), FAMILY_LABELS)


def raw_one_qubit_measurement_vectors(c: CoefficientVector, m: int) -> list[StateVector]:
    """Family vectors for a one-qubit unknown register, ungated:

        xi+- = |0>|front> +- back_norm|1>|0..0>;  eta+- = back_norm|0>|0..0> +- |1>|front>

    The back block's phases are folded into the receiver's encoded basis
    state, which leaves its norm as the scalar.  Vectors live on
    1 + (n - m) qubits.
    """
    front, _, _, back_norm = excitation_blocks(c, m)
    return _family(_K0, _K1, (1, front), (back_norm, zero_state(c.n - m)))


def one_qubit_measurement_family(c: CoefficientVector, m: int) -> MeasurementBasis:
    """Orthonormal family for teleporting a genuine one-qubit state."""
    require_condition(c, m)
    vectors = raw_one_qubit_measurement_vectors(c, m)
    return MeasurementBasis(range(1, c.n - m + 2), vectors, FAMILY_LABELS)


def raw_ghz_measurement_vectors(a1: complex, a2: complex, n: int) -> list[StateVector]:
    """Bell-type family for a generalized GHZ resource, ungated:

        xi+- = a1|0>|0..0> +- a2|1>|1..1>;  eta+- = a2|0>|1..1> +- a1|1>|0..0>

    Vectors on n qubits (unknown qubit plus the sender's n-1 resource
    qubits); orthonormal exactly when |a1|^2 = |a2|^2 = 1/2.
    """
    n = require_int(n, 2)
    all0, all1 = zero_state(n - 1), make_basis_state(n - 1, [1] * (n - 1))
    return _family(_K0, _K1, (a1, all0), (a2, all1))


def ghz_measurement_family(a1: complex, a2: complex, n: int) -> MeasurementBasis:
    """Orthonormal Bell-type family for a (proper) GHZ resource."""
    _require_split(ghz_condition(a1, a2), "GHZ-type resource needs |a1|^2 = |a2|^2 = 1/2")
    return MeasurementBasis(range(1, n + 1), raw_ghz_measurement_vectors(a1, a2, n), FAMILY_LABELS)


def _basis_pair(m: int, wm: StateVector) -> np.ndarray:
    """Check that {|0..0>, wm} is an orthonormal pair on m qubits, the pair
    spanning the encoded subspace; return the sorted indices the corrections
    and the transfer move: |0..0>, |0..01> (so block row 1) and wm's support."""
    _require_registers([wm], m)
    # <0..0|wm> is wm's first amplitude; its modulus by hypot, as fidelities take it
    if not abs(complex(wm.amplitudes[0])) <= STRUCTURAL_TOL:
        raise ValueError("basis pair must be orthogonal")
    moved = wm.amplitudes != 0
    moved[:2] = True
    return np.flatnonzero(moved)


def bob_strategy1_set(m: int, wm: StateVector) -> list[Unitary]:
    """Four unitaries acting as (sigma_0, sigma_1, i*sigma_2, sigma_3) on
    span{|0..0>, wm} and as the identity on the orthogonal complement.

    These are the receiver-side corrections that keep the teleported state
    encoded in the two-dimensional subspace; their four blocks are one stack.
    """
    idx = _basis_pair(m, wm)
    b0, b1 = (idx == 0).astype(np.complex128), wm.amplitudes[idx]  # |0..0> and wm
    complement = np.eye(len(idx)) - np.outer(b0, b0.conj()) - np.outer(b1, b1.conj())
    pair = np.stack([b0, b1], axis=1)
    blocks = complement + pair @ np.stack(PAULI_FOUR) @ pair.conj().T
    return list(Unitary.on_block(2**m, idx, blocks))


def transfer_unitary(m: int, wm: StateVector) -> Unitary:
    """Unitary realizing {|0..0>, wm} -> {|0..0>, |0..01>}, in closed form.

    The reflection I - 2 v v^dagger / |v|^2 with v = wm - p|0..01> (p the
    phase of wm's |0..01> amplitude, or 1) swaps wm with p|0..01>; a phase
    conj(p) on |0..01> follows.  It is the identity off span{wm, |0..01>},
    so |0..0> stays fixed, and in that plane it maps the direction
    orthogonal to wm onto the one orthogonal to |0..01>.  For m = 2 and
    wm = (|01>+|10>)/sqrt(2) it sends the singlet to |10>.
    """
    idx = _basis_pair(m, wm)
    v, w1 = wm.amplitudes.copy(), wm.amplitudes[1]
    p = w1 / abs(w1) if w1 else 1.0
    # wm's weight off |0..01>, summed directly: 1 - |w1|^2 cancels near |0..01>
    s = float(np.sum(np.abs(np.delete(v, 1)) ** 2))
    v[1] = -p * s / (1.0 + abs(w1))  # w1 - p for a unit wm, without that cancellation
    t = np.eye(len(idx), dtype=np.complex128)
    if s > 0.0:
        t -= (2.0 / (s + abs(v[1]) ** 2)) * np.outer(v[idx], v[idx].conj())
    t[1] *= np.conj(p)
    return Unitary.on_block(2**m, idx, t)


def bob_strategy2_set(m: int, wm: StateVector) -> list[Unitary]:
    """The strategy-1 corrections, each followed by the transfer onto one qubit.

    Applying the k-th operator to the k-th measurement branch leaves the
    receiver's register in |0..0> (x) (alpha|0> + beta|1>) on his last qubit.
    One stacked product on the corrections' moved indices composes all four.
    """
    transfer, corrections = transfer_unitary(m, wm), bob_strategy1_set(m, wm)
    idx, listed = corrections[0].moved, corrections[0].moved.tolist()
    if not (all(u.order is None and u.moved.tolist() == listed for u in corrections)
            and transfer.order is None and set(transfer.moved.tolist()) <= set(listed)):
        raise ValueError("the corrections must move the same indices, the transfer some of them")
    t, at = np.eye(len(idx), dtype=np.complex128), np.searchsorted(idx, transfer.moved)
    t[at[:, None], at] = transfer.block
    return list(Unitary.on_block(transfer.dimension, idx, t @ np.array([u.block for u in corrections])))


def serial_basis(m: int, wm: StateVector) -> MeasurementBasis:
    """Four-vector partial family for the receiver's second measurement.

    Vectors on his m register qubits plus the first Bell-pair qubit:

        phi1+- = (|0..0>|0> +- wm|1>)/sqrt(2)
        phi2+- = (|0..0>|1> +- wm|0>)/sqrt(2)

    Only 4 of 2^(m+1) directions, so ``project`` verifies in-span support.
    The phi2- outcome pairs with the branch carrying both the swap and the
    sign flip, which the i*sigma_2 correction undoes exactly.
    """
    h = 1.0 / math.sqrt(2.0)
    _basis_pair(m, wm)
    vectors = _family(zero_state(m), wm, (h, _K0), (h, _K1))
    return MeasurementBasis(range(1, m + 2), vectors, SERIAL_LABELS)


#: the relay's auxiliary pair (|00> + |11>)/sqrt(2) as (qubits, support, amplitudes)
_BELL = (2, np.array([0, 3]), np.full(2, 1.0 / math.sqrt(2.0), dtype=np.complex128))

#: the branch rows stacked at once hold at most as many amplitudes as the
#: largest joint state the qubit budget allows
_STACK_AMPLITUDES = 2 ** (MAX_QUBITS + 1)

#: each hop measures its joint states in stacks of at most this many amplitudes
#: of their support form (512 KiB); a larger one on its own
_JOINT_AMPLITUDES = 2**15


def outcome_shape(m: int, strategy: str) -> tuple[int, int]:
    """(outcomes, post-state qubits) of one :func:`run_teleport_grid` run: four
    on the receiver's m qubits, or sixteen on one after the ``serial`` relay."""
    return (16, 1) if strategy == "serial" else (4, m)


def _hop(
    rows: np.ndarray,
    resource: tuple[int, np.ndarray, np.ndarray],
    basis: MeasurementBasis,
    corrections: Sequence[Unitary],
    receiver: Sequence[int],
    prefixes: Sequence[str] = ("",),
    within: np.ndarray | None = None,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, tuple[Unitary, ...]]:
    """One teleportation step on every row of a (G, 2^q) stack: row (x) the
    ``resource`` (qubits, support indices, amplitudes) is measured in ``basis``
    (its k qubits lead) in support form (:func:`project_stack`), on its rest
    patterns padded to :func:`support_width`'s count and on the aligned blocks
    of 8 measured patterns that hold data (:func:`kept_patterns`), read from the
    rows on the input patterns ``within`` (all by default), off which they are
    zero, in stacks of at most ``_JOINT_AMPLITUDES`` whole-axis amplitudes (a
    larger one alone) in one zeroed buffer; one call corrects every outcome's
    post-states on the ``receiver`` qubits.  Returns the K labels, (K, G)
    probabilities, (K, G, 2^r) corrected post-states and K corrections.  The
    rows form one group per prefix; a branch of probability 0 in any row is a
    bug, named by the first such group's prefix and its label."""
    (qubits, index, amplitudes), k = resource, len(basis.subset)
    r = rows.shape[1].bit_length() - 1 + qubits - k
    rest = index & ((1 << r) - 1)
    columns = np.array(sorted(set(rest.tolist())))
    width = support_width(r, len(columns))
    columns = np.arange(width) if width == 2**r else columns  # the dense layout
    occupied = np.arange(rows.shape[1])  # input patterns x, each (x) the resource
    if 2**k > 2 * MEASURED_BLOCK:  # else kept_patterns keeps the whole axis
        within = occupied if within is None else within
        occupied = within[rows[:, within].any(axis=0)]
        rows = rows[:, occupied]
    patterns = occupied[:, None] << (qubits - r) | index >> r
    kept = kept_patterns(k, patterns)
    at_support = (kept.searchsorted(patterns) * width + columns.searchsorted(rest)).ravel()
    per = min(len(rows), max(1, _JOINT_AMPLITUDES // (width << k)))
    joint = np.zeros((per, len(kept) * width), dtype=np.complex128)
    p = np.empty((len(basis.labels), len(rows)))
    post = np.empty(p.shape + (2**r,), dtype=np.complex128)
    for start in range(0, len(rows), per):
        at = slice(start, start + per)
        chunk = joint[: len(rows[at])]
        chunk[:, at_support] = (rows[at, :, None] * amplitudes).reshape(len(chunk), -1)
        measured = project_stack(chunk.reshape(len(chunk), -1, width), basis, (r, columns, kept))
        _, p[:, at], post[:, at] = zip(*measured)  # each outcome's probabilities and post-states
    del joint, chunk  # the corrections run without it: a lower peak
    if not (p > ZERO_PROBABILITY).all():  # then find the first group's failing branch
        failing = ~(p > ZERO_PROBABILITY).reshape(len(p), len(prefixes), -1).all(axis=2).T
        name = [f + label for f in prefixes for label in basis.labels][failing.argmax()]
        raise InternalConsistencyError(f"branch {name} has probability 0")
    fixes = tuple(corrections[CORRECTION_INDEX[label]] for label in basis.labels)
    return basis.labels, p, apply_unitary_stack(post, fixes, receiver), fixes


def _teleport(
    inputs: np.ndarray,
    c: CoefficientVector,
    basis: MeasurementBasis,
    corrections: Sequence[Unitary],
    strategy: str | None,
    wm: StateVector,
) -> ProtocolReport:
    """Teleport each row of the (G, 2^q) ``inputs`` stack through the W support
    of ``c`` and check it against its target: the row itself, or alpha|0..0> +
    beta|wm> for ``subspace``.  For ``serial`` every sender branch hops again
    at once, in :func:`serial_basis` of ``wm`` through a fresh Bell pair, as
    branch ``outer|inner`` with the joint probability; ``transfer`` splits off
    the last qubit first.  The rows go in batches of at most
    ``_STACK_AMPLITUDES`` branch amplitudes; one fidelity stack checks a batch,
    which writes its rows of every column of the report (shaped as
    :func:`outcome_shape` says) as one slice."""
    m, resource = corrections[0].num_qubits, (c.n, excitation_indices(c.n), c.coeffs)
    outcomes, qubits = outcome_shape(m, strategy or "subspace")
    relay = serial_basis(m, wm) if strategy == "serial" else None
    probabilities, fidelities = np.empty((2, len(inputs), outcomes))
    post_states = np.empty((len(inputs), outcomes, 2**qubits), dtype=np.complex128)
    batch = max(1, _STACK_AMPLITUDES >> (m + 2))
    for start in range(0, len(inputs), batch):
        rows = slice(start, start + batch)
        targets = inputs[rows]
        if strategy == "subspace":
            targets = targets[:, :1] * zero_state(m).amplitudes + targets[:, 1:] * wm.amplitudes
        labels, p, final, fixes = _hop(inputs[rows], resource, basis, corrections, range(1, m + 1))
        if relay is not None:  # one hop over every sender branch's rows, sender-branch-major
            outer = [label + "|" for label in labels]
            relayed = final.reshape(-1, 2**m)  # zero off the indices the corrections move
            inner, q, final, fixes = _hop(relayed, _BELL, relay, PAULIS, [1], outer, fixes[0].moved)
            labels, fixes = tuple(o + i for o in outer for i in inner), fixes * len(outer)
            # its (inner, outer) axes become (outer, inner) branches
            p = (p[:, None] * q.reshape(4, 4, -1).swapaxes(0, 1)).reshape(16, -1)
            final = final.reshape(4, 4, -1, 2).swapaxes(0, 1).reshape(16, -1, 2)
        compared = final.reshape(-1, final.shape[2])
        compared = _extract_last_qubit(compared) if strategy == "transfer" else compared
        fidelities[rows] = fidelity_stack(compared, targets).reshape(len(labels), -1).T
        probabilities[rows], post_states[rows] = p.T, final.swapaxes(0, 1)
    for array in (probabilities, fidelities, post_states):
        array.flags.writeable = False
    return ProtocolReport(strategy, labels, fixes, probabilities, fidelities, post_states)


def _require_registers(states: Sequence[StateVector], qubits: int) -> None:
    """Refuse a state of the wrong size or norm, an input register or the
    receiver's |w>, before anything multiplies it (inf * 0 is NaN)."""
    for psi in states:
        if psi.num_qubits != qubits:
            raise DimensionError(f"state has {psi.num_qubits} qubits, need {qubits}")
        if not psi.normalized:
            raise NormalizationError("the state must be normalized")


def run_teleport_encoded(c: CoefficientVector, m: int, psi: StateVector) -> ProtocolReport:
    """Teleport any m-qubit register ``psi`` through the resource.

    Enumerates the sender's four outcomes, applies the receiver's subspace
    correction per branch, and reports the fidelity of the corrected state
    against ``psi`` for every branch.  The pipeline decides which registers
    teleport: only alpha|0..0> + beta|w> (see :func:`encoded_state`).  A
    register on the wrong qubit count raises DimensionError, an unnormalized
    or non-finite one NormalizationError, and one with weight outside
    span{|0..0>, |w>} leaves the family's span, so its measurement raises
    ProtocolViolationError.
    """
    basis = measurement_family(c, m)
    _require_registers([psi], m)
    wm = excitation_blocks(c, m)[2]
    return _teleport(psi.amplitudes[None], c, basis, bob_strategy1_set(m, wm), None, wm)


def run_teleport_grid(
    c: CoefficientVector, m: int, states: Sequence[StateVector], strategy: str = "subspace"
) -> ProtocolReport:
    """Teleport each one-qubit register alpha|0> + beta|1>; the receiver
    recovers it per ``strategy`` (see module docstring).  One report for the
    grid: row g of its columns belongs to ``states[g]``.

    The resource's family, corrections and relay basis are built once;
    every state then gets its own full branch enumeration and per-branch
    fidelity check.  For ``subspace`` the reported fidelity is
    against the encoded target alpha|0..0> + beta|w>; for ``transfer`` and
    ``serial`` it is the fidelity of the receiver's final physical qubit
    against the input.  ``serial`` enumerates the sender's four outcomes
    times the receiver's four, so its report carries sixteen branches with
    joint probabilities.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    basis = one_qubit_measurement_family(c, m)  # gates on the split condition
    if not states:
        raise ValueError("need at least one state")
    _require_registers(states, 1)
    wm = excitation_blocks(c, m)[2]
    corrections = (bob_strategy2_set if strategy == "transfer" else bob_strategy1_set)(m, wm)
    inputs = np.array([psi.amplitudes for psi in states])
    return _teleport(inputs, c, basis, corrections, strategy, wm)


def run_teleport_one_qubit(
    c: CoefficientVector, m: int, psi: StateVector, strategy: str = "subspace"
) -> ProtocolReport:
    """Teleport one register: :func:`run_teleport_grid` for a single state."""
    return run_teleport_grid(c, m, [psi], strategy)


def _extract_last_qubit(rows: np.ndarray) -> np.ndarray:
    """Split |0..0>(x)(a|0>+b|1>) off each transfer-corrected register row:
    the (G, 2) stack of pairs, each divided by its ``np.linalg.norm``.  Any
    other support means the correction table is wrong: a bug, not a caller
    error."""
    stray = float(np.abs(rows[:, 2:]).max(initial=0.0))
    if not stray <= STRUCTURAL_TOL:
        raise InternalConsistencyError(
            f"transfer strategy left residual entanglement (|amp| {stray:.3e})"
        )
    pairs = rows[:, :2]
    # the real and imaginary dot products np.linalg.norm sums for a complex vector
    norms = np.sqrt(np.vecdot(pairs.real, pairs.real) + np.vecdot(pairs.imag, pairs.imag))
    return pairs / norms[:, None]


def unknown_state_grid(count: int, seed: int) -> list[StateVector]:
    """Deterministic grid of registers cos(t)|0> + sin(t) e^(ip)|1>.

    Seed-derived so a run can be reproduced exactly from its recorded
    configuration.
    """
    count, seed = require_int(count, 1), require_int(seed)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi / 2.0, size=count)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=count)
    rows = [
        [math.cos(t), math.sin(t) * complex(math.cos(p), math.sin(p))]
        for t, p in zip(theta, phase)
    ]
    return state_rows(np.array(rows))
