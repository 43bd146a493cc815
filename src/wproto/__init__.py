"""wproto: exact verification of quantum communication over W-class resources.

A dense state-vector library that builds generalized W-states, checks the
coefficient/entropy conditions under which they can carry protocols, and
runs the teleportation and superdense-coding constructions branch by
branch — every measurement outcome is enumerated and verified exactly, no
sampling involved.
"""

from .qsim import (
    PAULI_FOUR,
    STRUCTURAL_TOL,
    DensityMatrix,
    DimensionError,
    InternalConsistencyError,
    MeasurementBasis,
    NormalizationError,
    ProtocolOutcome,
    ProtocolViolationError,
    StateVector,
    Unitary,
    apply_unitary,
    apply_unitary_stack,
    fidelity,
    fidelity_stack,
    gram_matrix,
    make_basis_state,
    partial_trace,
    project,
    project_stack,
    reduced_spectrum,
    spectrum_entropy,
    state_rows,
    superpose,
    tensor,
    von_neumann_entropy,
    zero_state,
)
from .wstates import (
    CoefficientVector,
    ConditionReport,
    UnsuitableResourceError,
    binary_entropy,
    cut_entropy,
    entropy_scan,
    excitation_blocks,
    excitation_split,
    generalized_ghz,
    generalized_w,
    ghz,
    ghz_condition,
    ghz_entropy_scan,
    ghz_suitability_scan,
    modified_w_coefficients,
    partition_entropy_formula,
    permute_coefficients,
    standard_w,
    sub_w,
    suitability_scan,
    teleport_condition,
    w_block,
    w_coefficients,
)
from .teleport import (
    FIDELITY_THRESHOLD,
    ProtocolReport,
    bob_strategy1_set,
    bob_strategy2_set,
    encoded_state,
    ghz_measurement_family,
    measurement_family,
    one_qubit_measurement_family,
    outcome_shape,
    raw_ghz_measurement_vectors,
    raw_measurement_vectors,
    raw_one_qubit_measurement_vectors,
    run_teleport_encoded,
    run_teleport_grid,
    run_teleport_one_qubit,
    serial_basis,
    transfer_unitary,
    unknown_state_grid,
)
from .sdc import (
    ENCODING_SETS,
    CapacityResult,
    DecodeVerdict,
    EncodingSet,
    capacity_check,
    decode,
    encode,
    general_encoding_set,
    pauli_product_set,
    pauli_set,
    w4_multiunary_set,
)

__version__ = "0.1.0"
