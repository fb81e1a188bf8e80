"""Consensus dynamics on a weighted graph with uncertain edge weights.

A network of agents splits into floating nodes (states) and input nodes
(actuated).  The floating dynamics are x+ = A(w) x + B(w) u with
A(w) = I - D_F diag(w) D_F', B(w) = -D_F diag(w) D_I', where D_F, D_I are
the incidence blocks.  Negative weights can destabilize the open loop.
"""

import numpy as np

import invarcert as ic

# 6 agents, 12 links; nodes 1 and 3 are actuated
graph = ic.Graph(
    edges=[(0, 2), (0, 4), (0, 5), (2, 4), (2, 5), (4, 5),
           (0, 1), (2, 3), (1, 4), (3, 5), (1, 5), (3, 4)],
    floating=[0, 2, 4, 5],
    inputs=[1, 3],
    nominal_weights=[-0.38, 0.05, 0.05, 0.05, 0.05, 0.10,
                     0.50, 0.50, 0.15, 0.15, 0.10, 0.10],
)
family = ic.NetworkFamily(graph)
print(f"n = {family.n} states, m = {family.m} inputs, ell = {family.ell} weights")

D_F, D_I = ic.build_incidence(graph)
print("incidence column sums (all zero):", np.vstack([D_F, D_I]).sum(axis=0))

A, B = family.instantiate(graph.nominal_weights)
print("\nA(w_nominal) =\n", np.round(A, 3))
print("B(w_nominal) =\n", np.round(B, 3))
print("eigenvalues:", np.round(np.linalg.eigvalsh(A), 3))
print("spectral radius:", ic.spectral_radius_estimate(A), "-> open loop unstable")

# the negative link is what destabilizes: zero it out and look again
weights = np.array(graph.nominal_weights)
weights[0] = 0.0
A_repaired, _ = family.instantiate(weights)
print("with the negative link removed:", ic.spectral_radius_estimate(A_repaired))

# weights scale everything linearly
A_zero, B_zero = family.instantiate(np.zeros(family.ell))
print("\nzero weights give the identity:", np.array_equal(A_zero, np.eye(4)))
