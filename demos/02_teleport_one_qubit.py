"""Teleporting one qubit through the four-qubit W-state, three ways.

The sender holds the unknown qubit and the first two resource qubits; the
receiver holds the last two.  After the sender's four-outcome measurement
and two classical bits, the receiver recovers the input by one of three
strategies.  Every branch is enumerated exactly — the printed fidelities
are algebraic identities, not statistics.
"""

import numpy as np

from wproto import StateVector, run_teleport_one_qubit, w_coefficients

c = w_coefficients(4)
psi = StateVector(1, [0.6, 0.8j])
alpha, beta = (complex(a) for a in psi.amplitudes)
print(f"input qubit: alpha={alpha}, beta={beta}")
print()

print("=== strategy 'subspace': keep the state encoded on two qubits ===")
report = run_teleport_one_qubit(c, 2, psi, "subspace")
for label, p, f in zip(report.labels, report.probabilities[0], report.fidelities[0]):
    print(f"  outcome {label:<5} p={p:.4f}  fidelity vs encoded target = {f:.12f}")
print("  ->", report.reason)
print()
print("The input now lives in span{|00>, (|01>+|10>)/sqrt(2)} of the")
print("receiver's register; the four corrections are the subspace versions")
print("of the usual single-qubit recovery operators.")
print()

print("=== strategy 'transfer': squeeze it onto one physical qubit ===")
report = run_teleport_one_qubit(c, 2, psi, "transfer")
for label, post in zip(report.labels, report.post_states[0]):
    print(f"  outcome {label:<5} receiver register -> {np.round(post, 6)}")
print("  ->", report.reason)
print()
print("The corrections compose the subspace recovery with the basis change")
print("{|00>, (|01>+|10>)/sqrt(2)} -> {|00>, |01>}: the register factors as")
print("|0>(alpha|0> + beta|1>) and the last qubit carries the input.")
print()

print("=== strategy 'serial': relay through a fresh Bell pair ===")
report = run_teleport_one_qubit(c, 2, psi, "serial")
print(f"  {len(report.labels)} combined branches (4 sender x 4 receiver),")
print(f"  each with joint probability {report.probabilities[0, 0]:.6f}")
print(f"  minimum fidelity over all branches: {report.min_fidelity:.12f}")
print(f"  classical bits from the sender: {report.classical_bits_sent}")
print()
print("All three strategies recover the input exactly on every branch —")
print("and the same engine verifies this for any resource that satisfies")
print("the half-half split, at any size.")
