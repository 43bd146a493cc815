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
pipeline: each input (x) resource joint state is measured on its own (the
joint states are never stacked, since a grid has no size limit), each
outcome's post-states are stacked into one (G, 2^m) array and corrected at
once, and only ``serial`` adds a relay step (a fresh Bell pair, a second
measurement and a correction of qubit 1).  Every run is then checked
against its own target; for ``transfer`` the receiver's last qubit is split
off first.  Every grid point keeps its own probabilities, checks and
fidelity, equal bit for bit to a run of that point alone.
:func:`run_teleport_one_qubit` is the one-state case and
:func:`run_teleport_encoded` sends the encoded family through the same
pipeline.  Every branch is enumerated deterministically; nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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
class UnknownState:
    """The one-qubit state alpha|0> + beta|1> to be teleported; its pair
    check builds ``state_vector`` once."""

    alpha: complex
    beta: complex
    state_vector: StateVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "state_vector", require_unit_pair(self.alpha, self.beta))


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
        require_unit_pair(self.alpha, self.beta)
        _basis_pair(self.m, self.wm_state, self.zero_state)

    @property
    def state_vector(self) -> StateVector:
        return superpose([(self.alpha, self.zero_state), (self.beta, self.wm_state)])


@dataclass(frozen=True)
class ProtocolReport:
    """Aggregate of one protocol run over every measurement branch.  The
    verdict is derived from ``fidelities`` against ``FIDELITY_THRESHOLD``
    as it stands when read, so it cannot contradict them."""

    resource: str
    strategy: str | None
    outcomes: tuple[ProtocolOutcome, ...]
    fidelities: dict[str, float]
    classical_bits_sent: int = 2

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


def encoded_state(
    c: CoefficientVector, m: int, alpha: complex, beta: complex
) -> EncodedUnknownState:
    """Encoded input alpha|0..0> + beta|w> with |w> taken from the resource."""
    wm = excitation_blocks(c, m)[2]
    return EncodedUnknownState(
        alpha=alpha, beta=beta, m=m, zero_state=zero_state(m), wm_state=wm
    )


def _family(zero: StateVector, one: StateVector, first: tuple, second: tuple) -> list[StateVector]:
    """The four vectors x|zero>|A> +- y|one>|B> and y|zero>|B> +- x|one>|A>
    for ``first`` = (x, A) and ``second`` = (y, B), in that order: every
    four-vector family of the protocols."""
    vectors = []
    for (p, u), (q, v) in ((first, second), (second, first)):
        u, v = tensor(zero, u), tensor(one, v)
        vectors += [superpose([(p, u), (q, v)]), superpose([(p, u), (-q, v)])]
    return vectors


def raw_measurement_vectors(
    c: CoefficientVector, m: int
) -> tuple[tuple[str, ...], list[StateVector]]:
    """The four family vectors for an m-qubit unknown register, ungated:

        xi+- = |0..0>|front> +- back_norm wm|0..0>;  eta+- = back_norm|0..0>|0..0> +- wm|front>

    Diagnostic: built from the +/- pattern regardless of whether the split
    condition holds, so callers can inspect how far the Gram matrix is from
    the identity for an unsuitable resource.  The vectors live on
    m + (n - m) = n qubits: unknown register first, then the sender's share.
    """
    front, _, wm, back_norm = excitation_blocks(c, m)
    return FAMILY_LABELS, _family(
        zero_state(m), wm, (1, front), (back_norm, zero_state(c.n - m))
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
    """Family vectors for a one-qubit unknown register, ungated:

        xi+- = |0>|front> +- back_norm|1>|0..0>;  eta+- = back_norm|0>|0..0> +- |1>|front>

    The back block's phases are folded into the receiver's encoded basis
    state, which leaves its norm as the scalar.  Vectors live on
    1 + (n - m) qubits.
    """
    front, _, _, back_norm = excitation_blocks(c, m)
    return FAMILY_LABELS, _family(_K0, _K1, (1, front), (back_norm, zero_state(c.n - m)))


def one_qubit_measurement_family(c: CoefficientVector, m: int) -> MeasurementBasis:
    """Orthonormal family for teleporting a genuine one-qubit state."""
    require_condition(c, m)
    labels, vectors = raw_one_qubit_measurement_vectors(c, m)
    return MeasurementBasis(range(1, c.n - m + 2), vectors, labels)


def raw_ghz_measurement_vectors(
    a1: complex, a2: complex, n: int
) -> tuple[tuple[str, ...], list[StateVector]]:
    """Bell-type family for a generalized GHZ resource, ungated:

        xi+- = a1|0>|0..0> +- a2|1>|1..1>;  eta+- = a2|0>|1..1> +- a1|1>|0..0>

    Vectors on n qubits (unknown qubit plus the sender's n-1 resource
    qubits); orthonormal exactly when |a1|^2 = |a2|^2 = 1/2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    all0, all1 = zero_state(n - 1), make_basis_state(n - 1, [1] * (n - 1))
    return FAMILY_LABELS, _family(_K0, _K1, (a1, all0), (a2, all1))


def ghz_measurement_family(a1: complex, a2: complex, n: int) -> MeasurementBasis:
    """Orthonormal Bell-type family for a (proper) GHZ resource."""
    _require_split(ghz_condition(a1, a2), "GHZ-type resource needs |a1|^2 = |a2|^2 = 1/2")
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
    h = 1.0 / math.sqrt(2.0)
    vectors = _family(_basis_pair(m, wm), wm, (h, _K0), (h, _K1))
    return MeasurementBasis(range(1, m + 2), vectors, SERIAL_LABELS)


#: the auxiliary pair (|00> + |11>)/sqrt(2) the serial relay measures through
_BELL = superpose([(1.0 / math.sqrt(2.0), make_basis_state(2, [b, b])) for b in (0, 1)])

#: the branch rows stacked at once hold at most as many amplitudes as the
#: largest joint state the qubit budget allows
_STACK_AMPLITUDES = 2 ** (MAX_QUBITS + 1)


def _teleport(
    inputs: Sequence[StateVector],
    targets: Sequence[StateVector],
    resource: StateVector,
    basis: MeasurementBasis,
    corrections: Sequence[Unitary],
    describe: str,
    strategy: str | None,
    relay: MeasurementBasis | None = None,
) -> list[ProtocolReport]:
    """Teleport each input through ``resource``; one report per input, in order.

    Each input (x) resource joint state is measured in ``basis`` on its own,
    never stacked (a grid has no size limit); each outcome's post-states are
    stacked and corrected at once.  With a ``relay`` basis, each corrected
    stack is extended by a fresh Bell pair and measured again, and qubit 1
    is corrected; such a branch is labelled ``outer|inner`` and has the
    joint probability.  Each run is verified against its own target, for
    ``transfer`` after its last qubit is split off.
    """
    half = resource.amplitudes
    joints = ((psi.amplitudes[:, None] * half).reshape(1, -1) for psi in inputs)
    measured = [project_stack(joint, basis) for joint in joints]
    receiver = tuple(range(1, corrections[0].dimension.bit_length()))
    paulis = [Unitary(sigma) for sigma in PAULI_FOUR] if relay is not None else None
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
                pauli = paulis[CORRECTION_INDEX[inner]]
                final = apply_unitary_stack(post, pauli, (1,))
                branches.append((f"{label}|{inner}", p * q, final, pauli))
        for name, prob, final, u in branches:
            finals = [StateVector(final.shape[1].bit_length() - 1, row) for row in final]
            compared = _extract_last_qubit(final) if strategy == "transfer" else finals
            fids = [fidelity(a, t) for a, t in zip(compared, targets)]
            columns.append((name, prob.tolist(), finals, u, fids))
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
    target = psi.state_vector
    return _teleport(
        [target], [target], generalized_w(c), basis, bob_strategy1_set(m, wm), _describe(c, m), None
    )[0]


def run_teleport_grid(
    c: CoefficientVector,
    m: int,
    states: Sequence[UnknownState],
    strategy: str = "subspace",
) -> list[ProtocolReport]:
    """Teleport each genuine one-qubit state; the receiver recovers it per
    ``strategy`` (see module docstring).  One report per state, in order.

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
    wm = excitation_blocks(c, m)[2]
    resource = generalized_w(c)
    corrections = bob_strategy1_set(m, wm)
    if strategy == "transfer":
        corrections = _then(transfer_unitary(m, wm), corrections)
    relay = serial_basis(m, wm) if strategy == "serial" else None
    zero, describe = zero_state(m), _describe(c, m)
    batch = max(1, _STACK_AMPLITUDES >> (m + 2))
    reports = []
    for start in range(0, len(states), batch):
        chunk = states[start : start + batch]
        inputs = [psi.state_vector for psi in chunk]
        targets = inputs
        if strategy == "subspace":
            targets = [superpose([(psi.alpha, zero), (psi.beta, wm)]) for psi in chunk]
        reports += _teleport(
            inputs, targets, resource, basis, corrections, describe, strategy, relay
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
