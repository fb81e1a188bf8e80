"""Gauge traces of the closed-loop vertex control law.

From 1000 random initial states inside the certified set, simulate the
nominal system under the vertex control law built from the synthesized
per-vertex inputs, and track the set gauge along each trajectory.  Staying
at or below 1 means the set is invariant for those runs; decreasing
traces indicate contraction.  Writes one CSV of all traces next to this
script (plot with any tool; column j is trajectory j).
"""

import itertools
import os

import numpy as np

import invarcert as ic

graph = ic.Graph(
    edges=[(0, 2), (0, 4), (0, 5), (2, 4), (2, 5), (4, 5),
           (0, 1), (2, 3), (1, 4), (3, 5), (1, 5), (3, 4)],
    floating=[0, 2, 4, 5],
    inputs=[1, 3],
    nominal_weights=[-0.38, 0.05, 0.05, 0.05, 0.05, 0.10,
                     0.50, 0.50, 0.15, 0.15, 0.10, 0.10],
)
family = ic.NetworkFamily(graph)
w_nominal = graph.nominal_weights

A, _ = family.instantiate(w_nominal)
eigenvalues, eigenvectors = np.linalg.eigh(A)
basis = eigenvectors[:, np.argsort(-np.abs(eigenvalues))]
scales = np.array([0.5, 1.2, 1.3, 1.4])
vertices = np.vstack(
    [sign * scales[k] * basis[:, k] for k in range(4) for sign in (1, -1)]
)
facets = (np.array(list(itertools.product(*[[1.0, -1.0]] * 4))) / scales) @ basis.T
S = ic.validate_polytope(facets, vertices)
U = ic.box([-1, -1], [1, 1])

lower = np.minimum(0.6 * w_nominal, 1.4 * w_nominal)
upper = np.maximum(0.6 * w_nominal, 1.4 * w_nominal)
scenarios = ic.ScenarioSet.from_uniform_box(lower, upper, count=600, seed=12345)
policy = ic.solve_affine_policy(family, S, U, scenarios)

# 1000 random starts inside S (convex recombinations of the vertices)
rng = np.random.default_rng(2)
weights = rng.dirichlet(np.ones(S.vertex_count), size=1000)
starts = (weights @ S.vertices) * rng.uniform(0, 1, size=(1000, 1))

T = 30
# all starts in one call: the stack is stepped together as arrays
trajectories = ic.simulate_closed_loop(family, w_nominal, S, policy, starts, T=T)
traces = np.stack([traj.gauges for traj in trajectories], axis=1)

print(f"{len(starts)} trajectories, horizon {T}")
print("max gauge over all runs:", traces.max())
print("mean gauge at t = 0 :", traces[0].mean().round(4))
print("mean gauge at t = T :", traces[-1].mean().round(6), "(contraction)")

out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gauge_traces.csv")
np.savetxt(out, traces, delimiter=",")
print("wrote", out)
