"""Benchmark workloads: fixed plants, seeded scenario draws.

A workload fixes the plant, the uncertainty box, K and its scenario
draw, whether ``certify`` runs the minor-enumeration analysis, the Monte
Carlo size M and the simulation grid (training samples x random starts x
horizon).  The seed drives only the Monte Carlo seed and the simulation
starts.  The scenario draw and the simulated training samples are fixed
because the share of simulation steps that fall back to the LP depends
on them: over network6 scenario draws it ranged 0.07-0.10 (about 1.5x in
LP time), and over seed-picked sets of 200 of the 600 samples 0.080-0.097.
With both fixed it ranges 0.089-0.093 over the seeds' starts, so the
seed changes the inputs but hardly the work.

:func:`make_config` turns ``(workload, seed)`` into the JSON config the
program reads, with S and U written out as explicit facets and vertices,
so the program receives nothing but that file.

Only numpy is imported here: the plants are built independently of
``invarcert`` so that the output checks in ``checks.py`` can rebuild
``A(delta)`` and ``B(delta)`` without trusting the program.
"""

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

BETA = 1e-6
DEFAULT_SEED = 0
SCENARIO_SEED = 0  # scenarios.seed of every workload
AFFINE_PLANT_SEED = 6  # default_rng seed of the affine plant
AFFINE_RHO = 1.05  # spectral radius of the affine A0

# six-node acceptance network (tests/instances.py builds the same instance)
SIX_NODE_EDGES = [
    (0, 2), (0, 4), (0, 5), (2, 4), (2, 5), (4, 5),
    (0, 1), (2, 3), (1, 4), (3, 5), (1, 5), (3, 4),
]
SIX_NODE_FLOATING = [0, 2, 4, 5]
SIX_NODE_INPUTS = [1, 3]
SIX_NODE_WEIGHTS = [-0.38, 0.05, 0.05, 0.05, 0.05, 0.10, 0.5, 0.5, 0.15, 0.15, 0.10, 0.10]
SIX_NODE_SCALES = (0.5, 1.2, 1.3, 1.4)
WEIGHT_SPREAD = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plant: str  # "network6" or "affine3"
    K: int
    analyze: bool
    mc_draws: int  # M of the Monte Carlo estimate
    sim_samples: int  # training samples j = 0..sim_samples-1 simulated
    sim_starts: int  # random:N starts per simulated sample
    horizon: int  # T

    def scaled(self, factor: float) -> "Workload":
        """Same plant at a smaller K, M and grid (the smoke mode)."""

        def shrink(value: int, low: int) -> int:
            return max(low, int(round(value * factor)))

        return dataclasses.replace(
            self,
            K=shrink(self.K, 20),
            mc_draws=shrink(self.mc_draws, 50),
            sim_samples=shrink(self.sim_samples, 1),
            sim_starts=shrink(self.sim_starts, 1),
            horizon=shrink(self.horizon, 5),
        )


# The reasons are kept in sync with the "why" fields of BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="network6",
            why=(
                "six-node acceptance network, K=600, certify --analyze: minor "
                "enumeration dominates certify; NetworkFamily Monte Carlo; "
                "cross-polytope S keeps most simulation steps off the LP"
            ),
            plant="network6",
            K=600,
            analyze=True,
            mc_draws=15_000,
            sim_samples=200,  # many samples, few starts: the LP fallback
            sim_starts=2,  # share varies more across samples than starts
            horizon=50,
        ),
        Workload(
            name="affine3-k5000",
            why=(
                "affine n=3 plant, K=5000: assembly, constraint-generation and "
                "greedy bookkeeping dominate certify; box S makes every "
                "simulation step a vertex_decompose LP"
            ),
            plant="affine3",
            K=5000,
            analyze=False,
            mc_draws=10_000,
            sim_samples=20,
            sim_starts=4,
            horizon=25,
        ),
    ]
}


def estimate_seed(seed: int) -> int:
    return 1_000_000 + int(seed)


def simulation_seed(seed: int, sample: int) -> int:
    """Seed of the random:N starts simulated at training sample ``sample``."""
    return 2_000_000 + 1_000 * int(seed) + int(sample)


def box_vertices_facets(lower, upper):
    """Explicit facets (unit right-hand side) and vertices of a box."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    facets = np.vstack([np.diag(1.0 / hi), np.diag(1.0 / lo)])
    vertices = np.array(list(itertools.product(*zip(lo, hi))), dtype=float)
    return facets, vertices


def incidence(edges, floating, inputs, node_count):
    D = np.zeros((node_count, len(edges)))
    for e, (i, j) in enumerate(edges):
        D[min(i, j), e] = 1.0
        D[max(i, j), e] = -1.0
    return D[sorted(floating), :], D[sorted(inputs), :]


def network_matrices(edges, floating, inputs, weights: np.ndarray):
    """Batched ``(A, B)`` of a consensus network for weights (k, edges)."""
    DF, DI = incidence(edges, floating, inputs, len(floating) + len(inputs))
    w = np.atleast_2d(weights)
    A = np.eye(DF.shape[0]) - np.einsum("fe,ke,ge->kfg", DF, w, DF)
    B = -np.einsum("fe,ke,ie->kfi", DF, w, DI)
    return A, B


def affine_plant():
    """A0, B0, A_k, B_k of the n=3, m=2, ell=4 plant, in the documented order."""
    rng = np.random.default_rng(AFFINE_PLANT_SEED)
    M = rng.normal(size=(3, 3))
    A0 = AFFINE_RHO * M / np.abs(np.linalg.eigvals(M)).max()
    B0 = rng.uniform(-1.0, 1.0, size=(3, 2))
    A_terms = [rng.uniform(-0.05, 0.05, size=(3, 3)) for _ in range(4)]
    B_terms = [rng.uniform(-0.05, 0.05, size=(3, 2)) for _ in range(4)]
    return A0, B0, A_terms, B_terms


def _six_node_state_set():
    A, _ = network_matrices(
        SIX_NODE_EDGES, SIX_NODE_FLOATING, SIX_NODE_INPUTS, np.asarray(SIX_NODE_WEIGHTS)
    )
    eigenvalues, eigenvectors = np.linalg.eigh(A[0])
    basis = eigenvectors[:, np.argsort(-np.abs(eigenvalues))]
    scales = np.asarray(SIX_NODE_SCALES)
    n = basis.shape[1]
    vertices = np.vstack(
        [sign * scales[k] * basis[:, k] for k in range(n) for sign in (1.0, -1.0)]
    )
    signs = np.array(list(itertools.product(*[[1.0, -1.0]] * n)))
    facets = (signs / scales) @ basis.T
    return facets, vertices


def _explicit(facets, vertices) -> dict:
    return {"facets": np.asarray(facets).tolist(), "vertices": np.asarray(vertices).tolist()}


def make_config(workload: Workload, seed: int) -> dict:
    """The invarcert config of ``workload`` at benchmark seed ``seed``."""
    if workload.plant == "network6":
        nominal = np.asarray(SIX_NODE_WEIGHTS)
        system = {
            "network": {
                "edges": [list(e) for e in SIX_NODE_EDGES],
                "floating": SIX_NODE_FLOATING,
                "inputs": SIX_NODE_INPUTS,
                "nominal_weights": SIX_NODE_WEIGHTS,
            }
        }
        state_set = _explicit(*_six_node_state_set())
        input_set = _explicit(*box_vertices_facets([-1.0, -1.0], [1.0, 1.0]))
        lower = np.minimum((1 - WEIGHT_SPREAD) * nominal, (1 + WEIGHT_SPREAD) * nominal)
        upper = np.maximum((1 - WEIGHT_SPREAD) * nominal, (1 + WEIGHT_SPREAD) * nominal)
    elif workload.plant == "affine3":
        A0, B0, A_terms, B_terms = affine_plant()
        system = {
            "affine": {
                "A0": A0.tolist(),
                "B0": B0.tolist(),
                "Ak": [t.tolist() for t in A_terms],
                "Bk": [t.tolist() for t in B_terms],
            }
        }
        state_set = _explicit(*box_vertices_facets([-1.0] * 3, [1.0] * 3))
        input_set = _explicit(*box_vertices_facets([-2.0] * 2, [2.0] * 2))
        lower, upper = -np.ones(4), np.ones(4)
    else:
        raise ValueError(f"unknown plant '{workload.plant}'")
    return {
        "schema": 1,
        "system": system,
        "state_set": state_set,
        "input_set": input_set,
        "scenarios": {
            "uniform": {"lower": lower.tolist(), "upper": upper.tolist()},
            "count": workload.K,
            "seed": SCENARIO_SEED,
        },
        "beta": BETA,
        "options": {"estimate_seed": estimate_seed(seed)},
    }


def plant_matrices(config: dict, deltas: np.ndarray):
    """Batched ``(A, B)`` for parameter rows ``deltas``, from the config alone."""
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    system = config["system"]
    if "network" in system:
        body = system["network"]
        return network_matrices(body["edges"], body["floating"], body["inputs"], deltas)
    body = system["affine"]
    A0, B0 = np.asarray(body["A0"]), np.asarray(body["B0"])
    A = A0 + np.einsum("kl,lij->kij", deltas, np.asarray(body["Ak"]))
    B = B0 + np.einsum("kl,lij->kij", deltas, np.asarray(body["Bk"]))
    return A, B
