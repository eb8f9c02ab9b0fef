"""Boundary separable states with full-rank partial transposes.

Mixing zero-set product states gives separable states whose witness
pairing vanishes, so they sit on the zero hyperplane of W while every
partial transpose is strictly positive definite. Geometrically: separable
states on the boundary of the separable set but in the interior of the
PPT set.
"""

import numpy as np

from spanwitness import (
    CANONICAL,
    is_ppt,
    pairing,
    rho0,
    rho1,
    rho_lambda,
    verify_decomposition,
    witness_matrix,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

w = witness_matrix(CANONICAL)

state0, dec0 = rho0()
print("rho_0: equal mixture of the six basis zero-set states")
print(np.diag(state0.matrix).real.round(4), " (diagonal; rank 6)")
print("  pairing:", pairing(state0, w))

state1, dec1 = rho1()
print("\nrho_1: mixture of the four phase-locked states at (a, b) = (1, 1)")
print(state1.matrix.real)
print("  certificate weights:", dec1.weights.tolist())
print("  reassembles exactly:", verify_decomposition(state1, dec1))
print("  pairing:", f"{pairing(state1, w):.2e}")

print("\nrho_lambda = (1 - lambda) rho_0 + lambda rho_1:")
for lam in (0.1, 0.5, 0.9):
    state, dec = rho_lambda(lam)
    rep = is_ppt(state, 1e-12)
    lo = min(rep.min_eigenvalues.values())
    print(
        f"  lambda = {lam}: pairing {pairing(state, w):+.1e}, "
        f"decomposition ({len(dec.weights)} vectors) verified: "
        f"{verify_decomposition(state, dec)}, min PT eigenvalue ratio "
        f"{rep.min_ratio:.2e}, min PT eigenvalue {lo:.4f}"
    )

print("\nthe mixture is separable by construction and every partial transpose")
print("is strictly positive: the segment lies on the witness hyperplane yet")
print("strictly inside the PPT body, for every 0 < lambda < 1.")
