"""End-to-end certification of a candidate invariant set.

Pipeline: sample the uncertain weights, synthesize an affine per-vertex
input policy by LP, shrink the samples to a support subsample, convert
its size into the a-posteriori violation level, and sanity-check with a
fresh Monte Carlo estimate.  The candidate set here is an eigenbasis-
aligned cross-polytope, kept thin along the one unstable mode so the two
inputs can always pull the vertices back in.
"""

import itertools
import json

import numpy as np

import invarcert as ic

# --- the uncertain networked system (see demo 03) ----------------------
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
print("open-loop spectral radius:", ic.spectral_radius_estimate(A))

# --- candidate set S and input set U -----------------------------------
eigenvalues, eigenvectors = np.linalg.eigh(A)
basis = eigenvectors[:, np.argsort(-np.abs(eigenvalues))]
scales = np.array([0.5, 1.2, 1.3, 1.4])  # tight along the unstable mode
vertices = np.vstack(
    [sign * scales[k] * basis[:, k] for k in range(4) for sign in (1, -1)]
)
facets = (np.array(list(itertools.product(*[[1.0, -1.0]] * 4))) / scales) @ basis.T
S = ic.validate_polytope(facets, vertices)
U = ic.box([-1, -1], [1, 1])
print(f"S: {S.vertex_count} vertices, {S.facet_count} facets; U: |u|_inf <= 1")

# --- scenarios: +-40% independent uncertainty per link -----------------
lower = np.minimum(0.6 * w_nominal, 1.4 * w_nominal)
upper = np.maximum(0.6 * w_nominal, 1.4 * w_nominal)
scenarios = ic.ScenarioSet.from_uniform_box(lower, upper, count=600, seed=12345)

policy = ic.solve_affine_policy(family, S, U, scenarios)
print("\npolicy synthesized: max |gain| =", np.abs(policy.gains).max().round(4),
      " max |offset| =", np.abs(policy.offsets).max().round(4))

# greedy starts from the synthesized policy and drops every sample whose
# removal leaves it unchanged; the certificate reads K off the scenarios
support = ic.greedy_support_subsample(family, S, U, scenarios, policy=policy)
print("support subsample:", support)

certificate = ic.build_certificate(len(support), 1e-6, policy, scenarios)
print("\n" + certificate.statement)
print("epsilon =", round(certificate.epsilon, 4),
      " invariance probability >=", round(certificate.invariance_probability, 4))

estimate = ic.estimate_violation(
    family, S, U, policy, scenarios.distribution, M=10_000, seed=7
)
print(f"\nMonte Carlo check: V_hat = {estimate.v_hat:.4f} "
      f"(std err {estimate.std_error:.4f}) <= epsilon: "
      f"{estimate.v_hat <= certificate.epsilon}")

print("\ncertificate JSON:\n" + json.dumps(certificate.to_dict(), indent=2, sort_keys=True))
