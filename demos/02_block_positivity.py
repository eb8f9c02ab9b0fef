"""Certify block positivity of W(s, t) numerically.

Block positivity means <xi|W|xi> >= 0 for every product vector xi. Two
routes are shown: positivity of the generating map on a grid of rank-one
inputs (where the determinant has a nonnegative closed form), and a
see-saw minimization over unit product vectors whose minimum lands at
zero. Across any bipartite cut, however, the minimum drops to -1: the
witness detects bi-separable vectors on every cut.
"""

import numpy as np

from spanwitness import (
    CANONICAL,
    bilinear_map,
    biseparable_vector,
    cut_block_positivity,
    determinant_d,
    evaluate,
    rank_one_projector,
    seesaw_block_positivity,
    value_on_product,
    witness_matrix,
)

params = CANONICAL
table = bilinear_map(params)
w = witness_matrix(params)

print("rank-one grid: phi(P_a, P_b) must be positive semidefinite")
points = [m * np.exp(2j * np.pi * k / 24) for m in (0.5, 1.0, 2.0) for k in range(24)]
worst = min(
    np.linalg.eigvalsh(evaluate(table, rank_one_projector(a), rank_one_projector(b)))[0]
    for a in points
    for b in points
)
print(f"  {len(points)**2} pairs, smallest eigenvalue seen: {worst:.3e}")

a, b = 0.8 * np.exp(0.3j), 1.7 * np.exp(-1.1j)
img = evaluate(table, rank_one_projector(a), rank_one_projector(b))
det = (img[0, 0] * img[1, 1] - img[0, 1] * img[1, 0]).real
print(f"  determinant at a sample pair: {det:.10f}")
print(f"  closed form D(a, b):          {determinant_d(a, b):.10f}")

print("\nsee-saw over unit product vectors (64 restarts, seed 7):")
res = seesaw_block_positivity(w, restarts=64, seed=7)
print(f"  minimum {res.min_value:.3e}, converged: {res.converged}")
print("  value history of the best restart:", [f"{v:.2e}" for v in res.history])

print("\nthe same search across each bipartite cut:")
for cut, label in (((1,), "1|23"), ((2,), "2|13"), ((3,), "12|3")):
    res = cut_block_positivity(w, cut, restarts=32, seed=7)
    print(f"  cut {label}: minimum {res.min_value:.9f}")
print("each cut reaches the spectral floor -1, so W is block positive only")
print("against fully product vectors, never against bi-separable ones.")

omega = np.exp(1j * np.pi / 4)
print("\nexplicit detecting vectors at alpha = exp(i pi/4):")
for i in (1, 2, 3):
    rest = tuple(j for j in (1, 2, 3) if j != i)
    print(f"  cut {(i,)}|{rest}: <xi|W|xi> = {value_on_product(w, biseparable_vector(i, omega)):+.6f}")
