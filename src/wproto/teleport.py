"""Teleportation over generalized W-state resources.

Qubit layout for a protocol run, in joint-state order:

    [unknown register (1 or m qubits)] [sender's n-m resource qubits]
    [receiver's m resource qubits] [optional auxiliary Bell pair]

The sender measures the unknown register together with her resource share
in a four-vector orthogonal family; the family is orthonormal exactly when
the resource satisfies the half-half split condition, so an unsuitable
resource is rejected up front rather than producing silently degraded
fidelity.  Every family here (the encoded, one-qubit and GHZ sender
families and the receiver's serial family) is the same pattern of two
+/- pairs.  After two classical bits, the receiver's m qubits hold the
input encoded in span{|0..0>, |w>} (|w> = the normalized excitation block
on his qubits) up to one of four subspace corrections, and he can

  * ``subspace``  - keep the state encoded in that two-dimensional span,
  * ``transfer``  - unitarily move it onto his last physical qubit,
  * ``serial``    - teleport it onto a fresh Bell-pair qubit with a second
                    local measurement and a final single-qubit correction.

:func:`run_teleport_grid` builds a resource's family, corrections and
second-stage basis once and runs every input state through one branch
loop: each input (x) resource joint state is measured in turn in one
reused buffer (the joint states are never stacked, since a grid has no
size limit), each outcome's post-states are stacked into one (G, 2^m)
array, and the correction, the ``serial`` Bell extension and second
measurement, the ``transfer`` last-qubit extraction and the fidelity
checks then run once per outcome over the whole stack through
:func:`~wproto.qsim.apply_unitary_stack` and
:func:`~wproto.qsim.project_stack`.  Every grid point keeps its own
probabilities, checks and fidelity against its own target, equal bit for
bit to a run of that point alone.  :func:`run_teleport_one_qubit` is the
one-state case and :func:`run_teleport_encoded` drives the same loop with
the encoded family.  Every branch is enumerated deterministically;
nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .qsim import (
    MAX_QUBITS,
    PAULI_FOUR,
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
    fidelity,
    inner_product,
    make_basis_state,
    project_stack,
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
    teleport_condition,
)

#: a protocol run succeeds when every outcome fidelity clears this bar
FIDELITY_THRESHOLD = 1.0 - 1e-9

FAMILY_LABELS = ("xi+", "xi-", "eta+", "eta-")
SERIAL_LABELS = ("phi1+", "phi1-", "phi2+", "phi2-")

# Outcome label -> index into a sigma-ordered correction set
# (sigma_0, sigma_1, i*sigma_2, sigma_3).
CORRECTION_INDEX = {
    "xi+": 0,
    "eta+": 1,
    "eta-": 2,
    "xi-": 3,
    "phi1+": 0,
    "phi2+": 1,
    "phi2-": 2,
    "phi1-": 3,
}

STRATEGIES = ("subspace", "transfer", "serial")


def _require_unit_amplitudes(alpha: complex, beta: complex) -> None:
    total = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(total - 1.0) <= STRUCTURAL_TOL:
        raise NormalizationError(f"|alpha|^2 + |beta|^2 = {total:.12g} must equal 1")


@dataclass(frozen=True)
class UnknownState:
    """The one-qubit state alpha|0> + beta|1> to be teleported."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        _require_unit_amplitudes(self.alpha, self.beta)

    @property
    def state_vector(self) -> StateVector:
        return StateVector(1, [self.alpha, self.beta])


@dataclass(frozen=True)
class EncodedUnknownState:
    """A two-term m-qubit state alpha|0..0> + beta|w> riding a basis pair.

    ``zero_state``/``wm_state`` are the orthogonal pair spanning the encoded
    subspace; for a given resource, ``wm_state`` is the renormalized
    excitation block on the receiver's qubits (see :func:`encoded_state`).
    """

    alpha: complex
    beta: complex
    m: int
    zero_state: StateVector
    wm_state: StateVector

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        _require_unit_amplitudes(self.alpha, self.beta)
        _basis_pair(self.m, self.wm_state, self.zero_state)

    @property
    def state_vector(self) -> StateVector:
        return superpose([(self.alpha, self.zero_state), (self.beta, self.wm_state)])


@dataclass(frozen=True)
class ProtocolReport:
    """Aggregate of one protocol run over every measurement branch."""

    resource: str
    strategy: str | None
    outcomes: tuple[ProtocolOutcome, ...]
    fidelities: dict[str, float]
    min_fidelity: float
    classical_bits_sent: int
    success: bool
    reason: str

    @property
    def probability_deviation(self) -> float:
        """Largest distance of a branch probability from the expected one:
        the branches are equiprobable, 1/4 per four-outcome measurement
        (1/16 for the serial relay's two)."""
        expected = 1.0 / len(self.outcomes)
        return max(abs(o.probability - expected) for o in self.outcomes)


def require_condition(c: CoefficientVector, m: int) -> ConditionReport:
    """Gate: raise UnsuitableResourceError unless the split condition holds."""
    report = teleport_condition(c, m)
    if not report.holds:
        raise UnsuitableResourceError(
            f"resource does not split half-and-half at m={m}"
            f" (sums {report.left_sum:.6g} / {report.right_sum:.6g});"
            " the measurement family would not be orthonormal",
            report,
        )
    return report


def encoded_state(
    c: CoefficientVector, m: int, alpha: complex, beta: complex
) -> EncodedUnknownState:
    """Encoded input alpha|0..0> + beta|w> with |w> taken from the resource."""
    wm = excitation_blocks(c, m)[2]
    return EncodedUnknownState(
        alpha=alpha, beta=beta, m=m, zero_state=zero_state(m), wm_state=wm
    )


def _plus_minus(*pairs) -> list[StateVector]:
    """[a|u> + b|v>, a|u> - b|v>] for each term pair ((a, u), (b, v)), in order.

    Every four-vector family of the protocols is two such pairs.
    """
    vectors = []
    for (a, u), (b, v) in pairs:
        vectors += [superpose([(a, u), (b, v)]), superpose([(a, u), (-b, v)])]
    return vectors


def raw_measurement_vectors(
    c: CoefficientVector, m: int
) -> tuple[tuple[str, ...], list[StateVector]]:
    """The four family vectors for an m-qubit unknown register, ungated.

    Diagnostic: built from the +/- pattern regardless of whether the split
    condition holds, so callers can inspect how far the Gram matrix is from
    the identity for an unsuitable resource.  The vectors live on
    m + (n - m) = n qubits: unknown register first, then the sender's share.
    """
    front, back_raw, wm, back_norm = excitation_blocks(c, m)
    zero_u, zero_a = zero_state(m), zero_state(c.n - m)
    front_term = (1, tensor(zero_u, front))
    zeros_term = (back_norm, tensor(zero_u, zero_a))
    return FAMILY_LABELS, _plus_minus(
        (front_term, (1, tensor(back_raw, zero_a))), (zeros_term, (1, tensor(wm, front)))
    )


def measurement_family(c: CoefficientVector, m: int) -> MeasurementBasis:
    """Orthonormal family for teleporting an encoded m-qubit state.

    Requires the split condition (enforced); each +/- expression then has
    norm one with no extra normalization factor, since both of its terms
    carry squared weight 1/2.  The basis is partial for n > 2 and covers
    qubits 1..n of the joint state.
    """
    require_condition(c, m)
    labels, vectors = raw_measurement_vectors(c, m)
    return MeasurementBasis(range(1, c.n + 1), vectors, labels)


def raw_one_qubit_measurement_vectors(
    c: CoefficientVector, m: int
) -> tuple[tuple[str, ...], list[StateVector]]:
    """Family vectors for a one-qubit unknown register, ungated.

    Same +/- pattern as :func:`raw_measurement_vectors` with the unknown
    register shrunk to a single qubit; the scalar on the flipped term is
    the back-block norm, with the block's phases folded into the receiver's
    encoded basis state.  Vectors live on 1 + (n - m) qubits.
    """
    front, _, _, back_norm = excitation_blocks(c, m)
    k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
    zero_a = zero_state(c.n - m)
    return FAMILY_LABELS, _plus_minus(
        ((1, tensor(k0, front)), (back_norm, tensor(k1, zero_a))),
        ((back_norm, tensor(k0, zero_a)), (1, tensor(k1, front))),
    )


def one_qubit_measurement_family(c: CoefficientVector, m: int) -> MeasurementBasis:
    """Orthonormal family for teleporting a genuine one-qubit state."""
    require_condition(c, m)
    labels, vectors = raw_one_qubit_measurement_vectors(c, m)
    return MeasurementBasis(range(1, c.n - m + 2), vectors, labels)


def raw_ghz_measurement_vectors(
    a1: complex, a2: complex, n: int
) -> tuple[tuple[str, ...], list[StateVector]]:
    """Bell-type family for a generalized GHZ resource, ungated.

    Vectors on n qubits (unknown qubit plus the sender's n-1 resource
    qubits); orthonormal exactly when |a1|^2 = |a2|^2 = 1/2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
    all0 = zero_state(n - 1)
    all1 = make_basis_state(n - 1, [1] * (n - 1))
    return FAMILY_LABELS, _plus_minus(
        ((a1, tensor(k0, all0)), (a2, tensor(k1, all1))),
        ((a2, tensor(k0, all1)), (a1, tensor(k1, all0))),
    )


def ghz_measurement_family(a1: complex, a2: complex, n: int) -> MeasurementBasis:
    """Orthonormal Bell-type family for a (proper) GHZ resource."""
    report = ghz_condition(a1, a2)
    if not report.holds:
        raise UnsuitableResourceError(
            f"GHZ-type resource needs |a1|^2 = |a2|^2 = 1/2, got"
            f" {report.left_sum:.6g} / {report.right_sum:.6g}",
            report,
        )
    labels, vectors = raw_ghz_measurement_vectors(a1, a2, n)
    return MeasurementBasis(range(1, n + 1), vectors, labels)


def _basis_pair(m: int, wm: StateVector, zero: StateVector | None = None) -> StateVector:
    """Check that {zero, wm} is an orthonormal pair on m qubits, the pair
    spanning the encoded subspace; return zero (by default |0..0>)."""
    zero = zero_state(m) if zero is None else zero
    if zero.num_qubits != m or wm.num_qubits != m:
        raise DimensionError(f"basis pair must live on m={m} qubits")
    if not (zero.normalized and wm.normalized):
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


def _then(t: Unitary, ops: Sequence[Unitary]) -> list[Unitary]:
    """Each of ``ops`` followed by ``t``."""
    return [Unitary(t.matrix @ u.matrix) for u in ops]


def bob_strategy2_set(m: int, wm: StateVector) -> list[Unitary]:
    """The strategy-1 corrections composed with the transfer onto one qubit.

    Applying the k-th operator to the k-th measurement branch leaves the
    receiver's register in |0..0> (x) (alpha|0> + beta|1>) on his last qubit.
    """
    return _then(transfer_unitary(m, wm), bob_strategy1_set(m, wm))


def serial_basis(m: int, wm: StateVector) -> MeasurementBasis:
    """Four-vector partial family for the receiver's second measurement.

    Vectors on his m register qubits plus the first Bell-pair qubit:

        phi1+- = (|0..0>|0> +- wm|1>)/sqrt(2)
        phi2+- = (|0..0>|1> +- wm|0>)/sqrt(2)

    Only 4 of 2^(m+1) directions, so ``project`` verifies in-span support.
    The phi2- outcome pairs with the branch carrying both the swap and the
    sign flip, which the i*sigma_2 correction undoes exactly.
    """
    zero = _basis_pair(m, wm)
    k0, k1 = make_basis_state(1, [0]), make_basis_state(1, [1])
    h = 1.0 / math.sqrt(2.0)
    vectors = _plus_minus(
        ((h, tensor(zero, k0)), (h, tensor(wm, k1))),
        ((h, tensor(zero, k1)), (h, tensor(wm, k0))),
    )
    return MeasurementBasis(range(1, m + 2), vectors, SERIAL_LABELS)


#: one stage of a run: (measurement family, sigma-ordered corrections,
#: qubits the correction acts on)
Stage = tuple[MeasurementBasis, Sequence[Unitary], tuple[int, ...]]

#: one corrected branch over a stack of runs: (label, (G,) probabilities,
#: (G, 2^q) corrected states, correction)
Branch = tuple[str, np.ndarray, np.ndarray, Unitary]

#: the auxiliary pair (|00> + |11>)/sqrt(2) a later stage relays through
_BELL = superpose([(1.0 / math.sqrt(2.0), make_basis_state(2, [b, b])) for b in (0, 1)])

#: the branch rows stacked at once hold at most as many amplitudes as the
#: largest joint state the qubit budget allows
_STACK_AMPLITUDES = 2 ** (MAX_QUBITS + 1)


def _first_stage(
    inputs: Sequence[np.ndarray], resource: StateVector, basis: MeasurementBasis
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Measure each input (x) resource in ``basis``; stack each label's rows.

    The joint states are built one at a time into one reused buffer, never
    stacked: only the post-states of the unmeasured qubits are kept.
    """
    half, count = resource.amplitudes, len(inputs)
    joint = np.empty((1, len(inputs[0]) * len(half)), dtype=np.complex128)
    for g, amps in enumerate(inputs):
        np.multiply(amps[:, None], half, out=joint.reshape(len(amps), -1))
        measured = project_stack(joint, basis)
        if g == 0:
            stacked = [
                (label, np.empty(count), np.empty((count, post.shape[1]), dtype=np.complex128))
                for label, _, post in measured
            ]
        for (_, probabilities, rows), (_, p, post) in zip(stacked, measured):
            probabilities[g], rows[g] = p[0], post[0]
    return stacked


def _branches(
    measured: Sequence[tuple[str, np.ndarray, np.ndarray]],
    stages: Sequence[Stage],
    prefix: str = "",
    weight: float | np.ndarray = 1.0,
) -> Iterator[Branch]:
    """Correct every measured branch of ``stages[0]``, all runs as one stack.

    A later stage measures the corrected states of the one before, each
    extended by a fresh Bell pair; labels and probabilities of nested
    branches are joined.
    """
    _, corrections, qubits = stages[0]
    for label, p, post in measured:
        if not (p > ZERO_PROBABILITY).all():
            raise InternalConsistencyError(f"branch {prefix + label} has probability 0")
        corr = corrections[CORRECTION_INDEX[label]]
        fixed = apply_unitary_stack(post, corr, qubits)
        label, probability = prefix + label, weight * p
        if len(stages) > 1:
            relayed = (fixed[:, :, None] * _BELL.amplitudes).reshape(len(fixed), -1)
            measured_next = project_stack(relayed, stages[1][0])
            yield from _branches(measured_next, stages[1:], label + "|", probability)
        else:
            yield label, probability, fixed, corr


def _run_branches(
    inputs: Sequence[np.ndarray],
    resource: StateVector,
    stages: Sequence[Stage],
    targets: Sequence[StateVector],
    describe: str,
    strategy: str | None,
    recover: Callable[[np.ndarray], list[StateVector]] | None = None,
) -> list[ProtocolReport]:
    """Every branch of every run: project, correct, and verify each run
    against its own target; one report per input, in order.

    ``recover`` maps a branch's (G, 2^q) final corrected states to what is
    compared with the targets (by default the states themselves).
    """
    columns = []
    for label, p, fixed, corr in _branches(_first_stage(inputs, resource, stages[0][0]), stages):
        finals = [StateVector(fixed.shape[1].bit_length() - 1, row) for row in fixed]
        compared = recover(fixed) if recover else finals
        fids = [fidelity(a, t) for a, t in zip(compared, targets)]
        columns.append((label, p, finals, corr, fids))
    reports = []
    for g in range(len(targets)):
        outcomes = tuple(
            ProtocolOutcome(label, float(p[g]), finals[g], corr)
            for label, p, finals, corr, _ in columns
        )
        fidelities = {label: fids[g] for label, _, _, _, fids in columns}
        min_fid = min(fidelities.values())
        success = min_fid >= FIDELITY_THRESHOLD
        reports.append(
            ProtocolReport(
                resource=describe,
                strategy=strategy,
                outcomes=outcomes,
                fidelities=fidelities,
                min_fidelity=min_fid,
                classical_bits_sent=2,
                success=success,
                reason=(
                    "every outcome reproduces the input exactly"
                    if success
                    else f"minimum outcome fidelity {min_fid:.12g} is below 1 - 1e-9"
                ),
            )
        )
    return reports


def _describe(c: CoefficientVector, m: int) -> str:
    return f"generalized W-state, n={c.n}, partition m={m}"


def run_teleport_encoded(
    c: CoefficientVector, m: int, psi: EncodedUnknownState
) -> ProtocolReport:
    """Teleport an encoded two-term m-qubit state through the resource.

    Enumerates the sender's four outcomes, applies the receiver's subspace
    correction per branch, and reports the fidelity of the corrected state
    against the input for every branch.
    """
    basis = measurement_family(c, m)
    if psi.m != m:
        raise DimensionError(f"encoded state has m={psi.m}, resource partition m={m}")
    wm = excitation_blocks(c, m)[2]
    stage = (basis, bob_strategy1_set(m, wm), tuple(range(1, m + 1)))
    target = psi.state_vector
    return _run_branches(
        [target.amplitudes], generalized_w(c), [stage], [target], _describe(c, m), None
    )[0]


def run_teleport_grid(
    c: CoefficientVector,
    m: int,
    states: Sequence[UnknownState],
    strategy: str = "subspace",
) -> list[ProtocolReport]:
    """Teleport each genuine one-qubit state; the receiver recovers it per
    ``strategy`` (see module docstring).  One report per state, in order.

    The resource's family, corrections and second-stage basis are built
    once; every state then gets its own full branch enumeration and
    per-branch fidelity check.  For ``subspace`` the reported fidelity is
    against the encoded target alpha|0..0> + beta|w>; for ``transfer`` and
    ``serial`` it is the fidelity of the receiver's final physical qubit
    against the input.  ``serial`` enumerates the sender's four outcomes
    times the receiver's four, so its reports carry sixteen branches with
    joint probabilities.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    basis = one_qubit_measurement_family(c, m)  # gates on the split condition
    wm = excitation_blocks(c, m)[2]
    resource = generalized_w(c)
    corrections = bob_strategy1_set(m, wm)
    receiver = tuple(range(1, m + 1))
    recover = None
    if strategy == "transfer":
        corrections = _then(transfer_unitary(m, wm), corrections)
        recover = _extract_last_qubit
    stages: list[Stage] = [(basis, corrections, receiver)]
    if strategy == "serial":
        stages.append((serial_basis(m, wm), [Unitary(s) for s in PAULI_FOUR], (1,)))
    zero, describe = zero_state(m), _describe(c, m)
    batch = max(1, _STACK_AMPLITUDES >> (m + 2))
    reports = []
    for start in range(0, len(states), batch):
        chunk = states[start : start + batch]
        inputs = [psi.state_vector for psi in chunk]
        targets = inputs
        if strategy == "subspace":
            targets = [superpose([(psi.alpha, zero), (psi.beta, wm)]) for psi in chunk]
        reports += _run_branches(
            [sv.amplitudes for sv in inputs], resource, stages, targets, describe,
            strategy, recover,
        )
    return reports


def run_teleport_one_qubit(
    c: CoefficientVector,
    m: int,
    psi: UnknownState,
    strategy: str = "subspace",
) -> ProtocolReport:
    """Teleport one genuine one-qubit state: :func:`run_teleport_grid` for a
    single state."""
    return run_teleport_grid(c, m, [psi], strategy)[0]


def _extract_last_qubit(rows: np.ndarray) -> list[StateVector]:
    """Split |0..0>(x)(a|0>+b|1>) off each transfer-corrected register row.

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
    return [StateVector(1, pair / np.linalg.norm(pair)) for pair in rows[:, :2]]


def unknown_state_grid(count: int, seed: int) -> list[UnknownState]:
    """Deterministic grid of unknown states including complex phases.

    Seed-derived so a run can be reproduced exactly from its recorded
    configuration.
    """
    if count < 1:
        raise ValueError("need at least one grid point")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi / 2.0, size=count)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return [
        UnknownState(math.cos(t), math.sin(t) * complex(math.cos(p), math.sin(p)))
        for t, p in zip(theta, phase)
    ]
