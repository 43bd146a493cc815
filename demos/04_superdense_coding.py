"""Superdense coding: m+1 classical bits per m qubits, and not one more.

With the half-half split holding at m, the sender holds the completely
mixed m-qubit share, applies one of 2^(m+1) local unitaries, and sends her
qubits; the encoded states are mutually orthogonal, so the receiver reads
m+1 bits deterministically.  The gain over the qubit count is exactly one
bit — the entropy of the sender's share — and the full 4^m product set
demonstrates that 2m bits are out of reach.
"""

import numpy as np

from wproto import (
    capacity_check,
    decode,
    encode,
    general_encoding_set,
    modified_w_coefficients,
    pauli_product_set,
    pauli_set,
    w4_multiunary_set,
    w_coefficients,
)

print("=== 2 bits by 1 qubit over the modified three-qubit W-state ===")
c3 = modified_w_coefficients(3)
encoding = pauli_set()
states = [encode(c3, 1, encoding, msg) for msg in encoding.labels]
verdict = decode(states)
print(f"  Gram matrix of the four encoded states (abs):")
print(np.round(np.abs(verdict.gram), 6))
print(f"  decodable: {verdict.decodable}")
print()

print("=== 3 bits by 2 qubits over the four-qubit W-state ===")
c4 = w_coefficients(4)
result = capacity_check(c4, 2, w4_multiunary_set())
print(f"  eight tensor-product operators -> bits={result.bits}, decodable={result.decodable}")
print()

print("=== the generated sets scale: n+1 bits over the 2n-qubit W-state ===")
for half in (1, 2, 3, 4):
    c = w_coefficients(2 * half)
    result = capacity_check(c, half, general_encoding_set(c, half))
    print(f"  2n={2*half:>2}, sender holds {half} qubit(s): {result.bits} bits")
print()

print("=== and the ceiling: the full 16-operator product set on W4 ===")
result = capacity_check(c4, 2, pauli_product_set(2))
print(
    f"  decodable={result.decodable}; largest orthogonal subset"
    f" {result.subset_size}/{result.set_size} (exact search) -> {result.bits} bits"
)
print()
print("Two qubits could carry four bits over a maximally entangled pair of")
print("pairs, but no cut of a single-excitation state has entropy above")
print("one, so the gain is capped at one bit regardless of the operator set.")
