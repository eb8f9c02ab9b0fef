"""The zero set of the witness and its full spanning property.

Product vectors with <xi|W|xi> = 0 come in ten sampled families: six fix
two qubits at basis states and leave one factor free, four lock all three
phases to eighth roots of unity. Their span, and the span of every
partially conjugated image, is the whole 8-dimensional space; the free
families alone only ever reach a 6-dimensional subspace.
"""

import numpy as np

from spanwitness import CANONICAL, default_zero_sample, sample_table, value_on_product, witness_matrix
from spanwitness.family import CANONICAL_TEN_ROWS
from spanwitness.tensor import subset_ranks

w = witness_matrix(CANONICAL)
labels = default_zero_sample(CANONICAL)[0]  # the family of each sampled row
# the sample at u = 1, which is the one at s = t = 2 sqrt 2, built once per
# process: its rows under every conjugation and the singular values the
# spanning checks count. Anywhere on s t = 8 the sample is a real diagonal
# map of it, so these ranks are every point's.
table = sample_table()
sample = table.stack[0]  # the sample's rows, flattened, none conjugated

print("the first sampled vector of each family, with its witness value:")
values = value_on_product(w, sample)
for fam in dict.fromkeys(labels):
    row = labels.index(fam)
    print(f"  {fam.value:8s} row {row:2d}: value = {values[row]:+.2e}")

print("\nthe phase-locked vector Z1(1,1), flattened:")
print(np.round(sample[CANONICAL_TEN_ROWS[6]], 4))

print(f"\nspanning report over {len(labels)} sampled zero vectors:")
print("  subset : rank of the partially conjugated images")
ranks = subset_ranks(table.full)
for subset, rank in ranks.items():
    label = "{" + ",".join(map(str, subset)) + "}" if subset else "{}"
    print(f"  {label:8s}: {rank}")
print("  full spanning:", all(rank == 8 for rank in ranks.values()))

# the free-factor rows depend on no parameter: the table holds their
# singular values and the basis vectors outside their support too
pv1_rank = subset_ranks(table.free)[()]
print(f"\nfree-factor families alone: rank {pv1_rank}, orthogonal complement:")
for v in table.complement:
    idx = int(np.argmax(np.abs(v)))
    print(f"  basis vector |{idx:03b}>")

print("\nthe ten canonical vectors (six basis + four phase-locked at (1,1))")
ranks = subset_ranks(table.ten)
print("ranks under all eight conjugations:", list(ranks.values()))
