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
to one of four subspace corrections, and he can

  * ``subspace``  - keep the state encoded in that two-dimensional span,
  * ``transfer``  - unitarily move it onto his last physical qubit,
  * ``serial``    - teleport it onto a fresh Bell-pair qubit with a second
                    local measurement and a final single-qubit correction.

:func:`run_teleport_grid` builds a resource's family, corrections and
relay basis once and sends every input state through one straight
pipeline on row stacks: the input (x) resource joint states are multiplied
into stacks of at most 2^14 amplitudes (256 KiB, which stays in cache; a
larger joint state is measured alone), each measured by one call, each
outcome's post-states are stacked into one (G, 2^m) array and corrected at
once, and only ``serial`` adds a relay step (a fresh Bell pair, a second
measurement and a correction of qubit 1).  Every run is then checked
against its own target; for ``transfer`` the receiver's last qubit is split
off first.  Targets, post-states, transfer pairs and fidelities are built
from the stacks, not row by row, and every grid point keeps its own
probabilities, checks and fidelity, equal bit for bit to a run of that
point alone.
:func:`run_teleport_one_qubit` is the one-state case and
:func:`run_teleport_encoded` sends any m-qubit register through the same
pipeline, whose checks refuse one outside span{|0..0>, |w>}.  Each entry
point refuses a bad ``StateVector`` register with one shared check.  Every
branch is enumerated deterministically; nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qsim import (
    MAX_QUBITS,
    PAULI_FOUR,
    PAULIS,
    STRUCTURAL_TOL,
    ZERO_PROBABILITY,
    DimensionError,
    InternalConsistencyError,
    MeasurementBasis,
    NormalizationError,
    ProtocolOutcome,
    StateVector,
    Unitary,
    apply_unitary_stack,
    fidelity_stack,
    inner_product,
    make_basis_state,
    project_stack,
    state_rows,
    superpose,
    tensor,
    zero_state,
)
from .wstates import (
    CoefficientVector,
    ConditionReport,
    UnsuitableResourceError,
    excitation_blocks,
    generalized_w,
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


@dataclass(frozen=True)
class ProtocolReport:
    """Aggregate of one protocol run over every measurement branch.  The
    verdict is derived from ``fidelities`` against ``FIDELITY_THRESHOLD``
    as it stands when read, so it cannot contradict them."""

    resource: str
    strategy: str | None
    outcomes: tuple[ProtocolOutcome, ...]
    fidelities: dict[str, float]

    @property
    def classical_bits_sent(self) -> int:
        """Two bits name the sender's outcome; the serial relay's second
        measurement is local to the receiver."""
        return 2

    @property
    def min_fidelity(self) -> float:
        return min(self.fidelities.values())

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
        expected = 1.0 / len(self.outcomes)
        return max(abs(o.probability - expected) for o in self.outcomes)


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
    four-vector family of the protocols."""
    vectors = []
    for (p, u), (q, v) in ((first, second), (second, first)):
        u, v = tensor(zero, u), tensor(one, v)
        vectors += [superpose([(p, u), (q, v)]), superpose([(p, u), (-q, v)])]
    return vectors


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
    if n < 2:
        raise ValueError("need n >= 2")
    all0, all1 = zero_state(n - 1), make_basis_state(n - 1, [1] * (n - 1))
    return _family(_K0, _K1, (a1, all0), (a2, all1))


def ghz_measurement_family(a1: complex, a2: complex, n: int) -> MeasurementBasis:
    """Orthonormal Bell-type family for a (proper) GHZ resource."""
    _require_split(ghz_condition(a1, a2), "GHZ-type resource needs |a1|^2 = |a2|^2 = 1/2")
    vectors = raw_ghz_measurement_vectors(a1, a2, n)
    return MeasurementBasis(range(1, n + 1), vectors, FAMILY_LABELS)


def _basis_pair(m: int, wm: StateVector) -> StateVector:
    """Check that {|0..0>, wm} is an orthonormal pair on m qubits, the pair
    spanning the encoded subspace; return |0..0>."""
    zero = zero_state(m)
    if wm.num_qubits != m:
        raise DimensionError(f"basis pair must live on m={m} qubits")
    if not wm.normalized:
        raise NormalizationError("basis pair must be normalized")
    if not abs(inner_product(zero, wm)) <= STRUCTURAL_TOL:
        raise ValueError("basis pair must be orthogonal")
    return zero


def bob_strategy1_set(m: int, wm: StateVector) -> list[Unitary]:
    """Four unitaries acting as (sigma_0, sigma_1, i*sigma_2, sigma_3) on
    span{|0..0>, wm} and as the identity on the orthogonal complement.

    These are the receiver-side corrections that keep the teleported state
    encoded in the two-dimensional subspace.
    """
    b0, b1 = _basis_pair(m, wm).amplitudes, wm.amplitudes
    complement = np.eye(2**m) - np.outer(b0, b0.conj()) - np.outer(b1, b1.conj())
    pair = np.stack([b0, b1], axis=1)
    return [Unitary(complement + pair @ sigma @ pair.conj().T) for sigma in PAULI_FOUR]


def transfer_unitary(m: int, wm: StateVector) -> Unitary:
    """Unitary realizing {|0..0>, wm} -> {|0..0>, |0..01>}, in closed form.

    The reflection I - 2 v v^dagger / |v|^2 with v = wm - p|0..01> (p the
    phase of wm's |0..01> amplitude, or 1) swaps wm with p|0..01>; a phase
    conj(p) on |0..01> follows.  It is the identity off span{wm, |0..01>},
    so |0..0> stays fixed, and in that plane it maps the direction
    orthogonal to wm onto the one orthogonal to |0..01>.  For m = 2 and
    wm = (|01>+|10>)/sqrt(2) it sends the singlet to |10>.
    """
    _basis_pair(m, wm)
    v, w1 = wm.amplitudes.copy(), wm.amplitudes[1]
    p = w1 / abs(w1) if w1 else 1.0
    # wm's weight off |0..01>, summed directly: 1 - |w1|^2 cancels near |0..01>
    s = float(np.sum(np.abs(np.delete(v, 1)) ** 2))
    v[1] = -p * s / (1.0 + abs(w1))  # w1 - p for a unit wm, without that cancellation
    t = np.eye(2**m, dtype=np.complex128)
    if s > 0.0:
        t -= (2.0 / (s + abs(v[1]) ** 2)) * np.outer(v, v.conj())
    t[1] *= np.conj(p)
    return Unitary(t)


def bob_strategy2_set(m: int, wm: StateVector) -> list[Unitary]:
    """The strategy-1 corrections, each followed by the transfer onto one qubit.

    Applying the k-th operator to the k-th measurement branch leaves the
    receiver's register in |0..0> (x) (alpha|0> + beta|1>) on his last qubit.
    """
    t = transfer_unitary(m, wm)
    return [Unitary(t.matrix @ u.matrix) for u in bob_strategy1_set(m, wm)]


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
    vectors = _family(_basis_pair(m, wm), wm, (h, _K0), (h, _K1))
    return MeasurementBasis(range(1, m + 2), vectors, SERIAL_LABELS)


#: the auxiliary pair (|00> + |11>)/sqrt(2) the serial relay measures through
_BELL = superpose([(1.0 / math.sqrt(2.0), make_basis_state(2, [b, b])) for b in (0, 1)])

#: the branch rows stacked at once hold at most as many amplitudes as the
#: largest joint state the qubit budget allows
_STACK_AMPLITUDES = 2 ** (MAX_QUBITS + 1)

#: the sender's joint states are measured in stacks of at most this many
#: amplitudes (256 KiB, which stays in cache); a larger joint state is
#: measured on its own
_JOINT_AMPLITUDES = 2**14


def outcome_shape(m: int, strategy: str) -> tuple[int, int]:
    """(outcomes, post-state qubits) of one :func:`run_teleport_grid` run: four
    on the receiver's m qubits, or sixteen on one after the ``serial`` relay."""
    return (16, 1) if strategy == "serial" else (4, m)


def _teleport(
    inputs: np.ndarray,
    targets: np.ndarray,
    resource: StateVector,
    basis: MeasurementBasis,
    corrections: Sequence[Unitary],
    describe: str,
    strategy: str | None,
    relay: MeasurementBasis | None = None,
) -> list[ProtocolReport]:
    """Teleport each row of the (G, 2^q) ``inputs`` stack through ``resource``
    and check it against the same row of ``targets``; one report per row, in
    order.

    The input (x) resource joint states are multiplied straight into stacks
    of at most ``_JOINT_AMPLITUDES`` amplitudes (one joint state per stack
    when it is larger), and each stack is measured in ``basis`` by one call;
    each outcome's post-states are stacked and corrected at once.  With a
    ``relay`` basis, each corrected stack is extended by a fresh Bell pair
    and measured again, and qubit 1 is corrected; such a branch is labelled
    ``outer|inner`` and has the joint probability.  Each branch's
    post-states, transfer pairs (the receiver's last qubit, split off) and
    fidelities come from its stack, each row checked on its own.
    """
    half = resource.amplitudes
    per = max(1, _JOINT_AMPLITUDES // (inputs.shape[1] * len(half)))
    measured = []
    for start in range(0, len(inputs), per):
        chunk = inputs[start : start + per]
        measured.append(project_stack((chunk[:, :, None] * half).reshape(len(chunk), -1), basis))
    receiver = tuple(range(1, corrections[0].dimension.bit_length()))
    columns = []
    for rows in zip(*measured):
        label, p = rows[0][0], np.concatenate([r[1] for r in rows])
        if not (p > ZERO_PROBABILITY).all():
            raise InternalConsistencyError(f"branch {label} has probability 0")
        corr = corrections[CORRECTION_INDEX[label]]
        fixed = apply_unitary_stack(np.concatenate([r[2] for r in rows]), corr, receiver)
        if relay is None:
            branches = [(label, p, fixed, corr)]
        else:
            extended = (fixed[:, :, None] * _BELL.amplitudes).reshape(len(fixed), -1)
            branches = []
            for inner, q, post in project_stack(extended, relay):
                if not (q > ZERO_PROBABILITY).all():
                    raise InternalConsistencyError(f"branch {label}|{inner} has probability 0")
                pauli = PAULIS[CORRECTION_INDEX[inner]]
                final = apply_unitary_stack(post, pauli, (1,))
                branches.append((f"{label}|{inner}", p * q, final, pauli))
        for name, prob, final, u in branches:
            compared = _extract_last_qubit(final) if strategy == "transfer" else final
            fids = fidelity_stack(compared, targets).tolist()
            columns.append((name, prob.tolist(), state_rows(final), u, fids))
    return [
        ProtocolReport(
            describe,
            strategy,
            tuple(ProtocolOutcome(name, prob[g], post[g], u) for name, prob, post, u, _ in columns),
            {name: fids[g] for name, _, _, _, fids in columns},
        )
        for g in range(len(targets))
    ]


def _describe(c: CoefficientVector, m: int) -> str:
    return f"generalized W-state, n={c.n}, partition m={m}"


def _require_registers(states: Sequence[StateVector], qubits: int) -> None:
    """Refuse a bad register before anything multiplies it (inf * 0 is NaN)."""
    for psi in states:
        if psi.num_qubits != qubits:
            raise DimensionError(f"register has {psi.num_qubits} qubits, need {qubits}")
        if not psi.normalized:
            raise NormalizationError("the register must be normalized")


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
    rows = psi.amplitudes[None]
    return _teleport(
        rows, rows, generalized_w(c), basis, bob_strategy1_set(m, wm), _describe(c, m), None
    )[0]


def run_teleport_grid(
    c: CoefficientVector, m: int, states: Sequence[StateVector], strategy: str = "subspace"
) -> list[ProtocolReport]:
    """Teleport each one-qubit register alpha|0> + beta|1>; the receiver
    recovers it per ``strategy`` (see module docstring).  One report per state, in order.

    The resource's family, corrections and relay basis are built once;
    every state then gets its own full branch enumeration and per-branch
    fidelity check.  For ``subspace`` the reported fidelity is
    against the encoded target alpha|0..0> + beta|w>; for ``transfer`` and
    ``serial`` it is the fidelity of the receiver's final physical qubit
    against the input.  ``serial`` enumerates the sender's four outcomes
    times the receiver's four, so its reports carry sixteen branches with
    joint probabilities.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    basis = one_qubit_measurement_family(c, m)  # gates on the split condition
    _require_registers(states, 1)
    wm = excitation_blocks(c, m)[2]
    resource = generalized_w(c)
    corrections = (bob_strategy2_set if strategy == "transfer" else bob_strategy1_set)(m, wm)
    relay = serial_basis(m, wm) if strategy == "serial" else None
    zero, describe = zero_state(m), _describe(c, m)
    inputs = np.array([psi.amplitudes for psi in states])
    batch = max(1, _STACK_AMPLITUDES >> (m + 2))
    reports = []
    for start in range(0, len(states), batch):
        chunk = inputs[start : start + batch]
        targets = chunk
        if strategy == "subspace":  # alpha|0..0> + beta|w> per row
            targets = chunk[:, :1] * zero.amplitudes + chunk[:, 1:] * wm.amplitudes
        reports += _teleport(
            chunk, targets, resource, basis, corrections, describe, strategy, relay
        )
    return reports


def run_teleport_one_qubit(
    c: CoefficientVector, m: int, psi: StateVector, strategy: str = "subspace"
) -> ProtocolReport:
    """Teleport one register: :func:`run_teleport_grid` for a single state."""
    return run_teleport_grid(c, m, [psi], strategy)[0]


def _extract_last_qubit(rows: np.ndarray) -> np.ndarray:
    """Split |0..0>(x)(a|0>+b|1>) off each transfer-corrected register row:
    the (G, 2) stack of pairs, each divided by its ``np.linalg.norm``.

    The transfer corrections guarantee this factoring; any support outside
    the first two amplitudes means the correction table is wrong, which is
    a bug, not a caller error.
    """
    if rows.shape[1] > 2:
        stray = float(np.abs(rows[:, 2:]).max())
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
    if count < 1:
        raise ValueError("need at least one grid point")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi / 2.0, size=count)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=count)
    rows = [
        [math.cos(t), math.sin(t) * complex(math.cos(p), math.sin(p))]
        for t, p in zip(theta, phase)
    ]
    return state_rows(np.array(rows))
