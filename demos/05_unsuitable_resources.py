"""How failure shows up: non-orthogonal families and out-of-span support.

Nothing here degrades silently.  An unsuitable resource is caught at one of
two gates: the measurement family's Gram matrix leaves the identity by a
macroscopic margin, or the joint state puts probability outside a partial
family's span.  This script triggers both on purpose.
"""

import numpy as np

from wproto import (
    StateVector,
    UnsuitableResourceError,
    ghz_suitability_scan,
    gram_matrix,
    raw_ghz_measurement_vectors,
    raw_one_qubit_measurement_vectors,
    run_teleport_one_qubit,
    w_coefficients,
)

print("=== uniform odd-n W-states are rejected up front ===")
for n in (3, 5, 7):
    try:
        run_teleport_one_qubit(w_coefficients(n), 1, StateVector(1, [0.6, 0.8]))
    except UnsuitableResourceError as err:
        rep = err.report
        print(f"  n={n}: rejected — sums {rep.left_sum:.4f} / {rep.right_sum:.4f}")
print()

print("=== forcing the family anyway shows *why* it fails ===")
vectors = raw_one_qubit_measurement_vectors(w_coefficients(3), 1)
gram = gram_matrix(vectors)
print("  |Gram| of the forced four-vector family for the uniform W3:")
print(np.round(np.abs(gram), 4))
dev = np.abs(gram - np.eye(4)).max()
print(f"  max deviation from the identity: {dev:.4f}  (1/3 exactly)")
print()
print("The xi+ / xi- overlap equals the weight imbalance across the cut, so")
print("a deterministic outcome assignment is impossible: the deficit is")
print("structural, not numerical.")
print()

print("=== lopsided two-term (GHZ-type) states fail the same way ===")
a1, a2 = 1 / np.sqrt(3), np.sqrt(2 / 3)
reports = ghz_suitability_scan(a1, a2, 4)
print(f"  |a1|^2 = {abs(a1)**2:.4f}: holding partitions ->",
      [r.partition_size for r in reports if r.holds] or "none")
vectors = raw_ghz_measurement_vectors(a1, a2, 4)
dev = np.abs(gram_matrix(vectors) - np.eye(4)).max()
print(f"  forced Bell-type family deviation: {dev:.4f}")
print()
print("Balance the weights (|a1|^2 = 1/2) and every partition works — the")
print("uniform GHZ-state is the special case that survives the condition.")
