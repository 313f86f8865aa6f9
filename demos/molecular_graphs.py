"""Hafnians, perfect matchings, and graph fingerprints.

The hafnian of an adjacency matrix counts perfect matchings, the quantity a
Gaussian boson sampler estimates from photon statistics. Here it is exact and
desk-sized: the power-trace hafnian, whose nearest integer is the matching
count on a 0/1 graph, plus the sorted multiset of sub-hafnians as a cheap
isomorphism-invariant fingerprint.
"""

import numpy as np

from qumodelab import adjacency_from_edges, hafnian, substructure_signature

P4 = adjacency_from_edges([[1, 2], [2, 3], [3, 4]])
K4 = adjacency_from_edges([[i, j] for i in range(1, 5) for j in range(i + 1, 5)])
K6 = adjacency_from_edges([[i, j] for i in range(1, 7) for j in range(i + 1, 7)])
# benzene-like ring with a substituent tail
ring = adjacency_from_edges([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 7], [7, 8]])

for name, A in [("P4 path", P4), ("K4", K4), ("K6", K6), ("ring + tail", ring)]:
    print(f"{name:12s} hafnian = {hafnian(A):4.0f}   matchings = {round(hafnian(A))}")

print("\nrelabelling the vertices changes nothing:")
rng = np.random.default_rng(0)
perm = rng.permutation(8)
shuffled = ring[np.ix_(perm, perm)]
print("  ring + tail:", hafnian(ring), "-> shuffled:", hafnian(shuffled))
print(
    "  signatures identical:",
    bool(np.allclose(substructure_signature(ring), substructure_signature(shuffled))),
)

print("\nbut the fingerprint separates non-isomorphic graphs of equal size:")
sig_p4 = substructure_signature(P4)
sig_k4 = substructure_signature(K4)
print("  P4:", sig_p4)
print("  K4:", sig_k4)

print("\na weighted hafnian sums matching products instead of counting:")
W = adjacency_from_edges([[1, 2, 2.0], [3, 4, 1.5], [1, 3, 0.5], [2, 4, 0.5]])
print("  weighted 4-cycle:", hafnian(W), " (= 2.0*1.5 + 0.5*0.5)")
