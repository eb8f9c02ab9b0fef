"""Construct the X-shaped witness family W(s, t).

The family starts from a bilinear map on pairs of 2x2 matrices; assembling
its matrix-unit images into an 8x8 matrix gives a three-qubit entanglement
witness: Hermitian, supported on the anti-diagonal plus a central 2x2
block, and not positive semidefinite.
"""

import numpy as np

from spanwitness import (
    CANONICAL,
    FamilyParams,
    bilinear_map,
    choi_matrix,
    evaluate,
    hermitian_eigenvalues,
    witness_matrix,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

params = CANONICAL  # s = t = 2 sqrt(2), the symmetric point of s t = 8
print(f"parameters: s = t = {params.s:.6f}, s*t = {params.s * params.t:.6f}")

table = bilinear_map(params)
print("\nimages of a few matrix-unit pairs (a bilinear map into 2x2 matrices):")
p0 = np.array([[1, 0], [0, 0]])
p1 = np.array([[0, 0], [0, 1]])
print("phi(|1><1|, |0><0|) =\n", evaluate(table, p1, p0).real)
print("phi(|0><0|, |1><1|) =\n", evaluate(table, p0, p1).real)

w = witness_matrix(params)
print("\nthe witness matrix W(s, t):")
print(w.matrix.real)

assembled = choi_matrix(table)
print("\nwritten-out matrix equals the assembled one exactly:",
      np.array_equal(w.matrix, assembled.matrix))

print("\neigenvalues:", hermitian_eigenvalues(w.matrix).round(12))
print("not positive semidefinite (eigenvalue -1 with multiplicity 3),")
print("so the matrix can only be a witness, never a state.")
print("completely positive as a map:", hermitian_eigenvalues(assembled.matrix)[0] >= 0)

print("\nthe same construction at another point of the curve s t = 8:")
other = FamilyParams(2.0, 4.0)
print("W(2, 4) eigenvalues:", hermitian_eigenvalues(witness_matrix(other).matrix).round(12))
