"""Shared test instances.

The six-node network mirrors the structure used in the acceptance run: a
connected 12-edge graph on nodes {0..5} with floating set {0,2,4,5} and
input set {1,3}, one negative nominal weight producing a single unstable
mode, and a candidate polytope aligned with the nominal eigenbasis (thin
along the unstable direction, so the two inputs can always pull the
vertices back in).
"""

import itertools

import numpy as np

import invarcert as ic

SIX_NODE_EDGES = [
    (0, 2), (0, 4), (0, 5), (2, 4), (2, 5), (4, 5),
    (0, 1), (2, 3), (1, 4), (3, 5), (1, 5), (3, 4),
]
SIX_NODE_WEIGHTS = np.array(
    [-0.38, 0.05, 0.05, 0.05, 0.05, 0.10, 0.5, 0.5, 0.15, 0.15, 0.10, 0.10]
)


def cross_polytope(basis: np.ndarray, scales) -> ic.Polytope:
    """Polytope with vertices +-scales[k] * basis[:, k] (both reps exact)."""
    n = basis.shape[1]
    scales = np.asarray(scales, dtype=float)
    vertices = np.vstack(
        [sign * scales[k] * basis[:, k] for k in range(n) for sign in (1.0, -1.0)]
    )
    signs = np.array(list(itertools.product(*[[1.0, -1.0]] * n)))
    facets = (signs / scales) @ basis.T
    return ic.validate_polytope(facets, vertices)


def uncertainty_box(nominal: np.ndarray, spread: float = 0.4):
    lo = np.minimum((1 - spread) * nominal, (1 + spread) * nominal)
    hi = np.maximum((1 - spread) * nominal, (1 + spread) * nominal)
    return lo, hi


def six_node_instance(K: int = 600, seed: int = 12345):
    """Family, S, U and scenarios for the networked acceptance instance."""
    graph = ic.Graph(
        edges=SIX_NODE_EDGES,
        floating=[0, 2, 4, 5],
        inputs=[1, 3],
        nominal_weights=SIX_NODE_WEIGHTS,
    )
    family = ic.NetworkFamily(graph)
    A_nominal, _ = family.instantiate(SIX_NODE_WEIGHTS)
    eigenvalues, eigenvectors = np.linalg.eigh(A_nominal)
    order = np.argsort(-np.abs(eigenvalues))
    S = cross_polytope(eigenvectors[:, order], (0.5, 1.2, 1.3, 1.4))
    U = ic.box([-1, -1], [1, 1])
    lo, hi = uncertainty_box(SIX_NODE_WEIGHTS)
    scenarios = ic.ScenarioSet.from_uniform_box(lo, hi, count=K, seed=seed)
    return family, S, U, scenarios


def path_instance(K: int = 150, seed: int = 42):
    """3-node path (floating {0,2}, input {1}) with an unstable first mode.

    A(w) = diag(1 - w0, 1 - w1), B(w) = (w0, w1)^T; with w0 < 0 the first
    state grows open-loop, and the required correction u = x1 is feasible
    for every draw because the overshoot and the input gain share the same
    weight.
    """
    nominal = np.array([-0.25, 0.5])
    graph = ic.Graph(
        edges=[(0, 1), (1, 2)], floating=[0, 2], inputs=[1], nominal_weights=nominal
    )
    family = ic.NetworkFamily(graph)
    S = ic.box([-1, -1], [1, 1])
    U = ic.box([-1], [1])
    lo, hi = uncertainty_box(nominal)
    scenarios = ic.ScenarioSet.from_uniform_box(lo, hi, count=K, seed=seed)
    return family, S, U, scenarios


def unstable_edge_family(weight: float = -0.25):
    """Single-edge network x+ = (1 - w) x + w u, unstable for w < 0."""
    graph = ic.Graph(
        edges=[(0, 1)], floating=[0], inputs=[1], nominal_weights=[weight]
    )
    return ic.NetworkFamily(graph)


def random_hull_polytope(rng: np.random.Generator, n: int, count: int) -> ic.Polytope:
    """Hull of random sign-spread points with the origin strictly inside."""
    from scipy.spatial import ConvexHull

    for _ in range(500):
        points = rng.uniform(0.2, 1.5, size=(count, n)) * rng.choice(
            [-1.0, 1.0], size=(count, n)
        )
        try:
            hull = ConvexHull(points)
        except Exception:
            continue
        if len(hull.vertices) != count:
            continue
        normals = hull.equations[:, :-1]
        offsets = -hull.equations[:, -1]
        if np.any(offsets <= 1e-6):
            continue
        return ic.validate_polytope(normals / offsets[:, None], points)
    raise RuntimeError("could not generate a random hull polytope")


def random_box(rng: np.random.Generator, n: int) -> ic.Polytope:
    return ic.box(-rng.uniform(0.3, 2.0, n), rng.uniform(0.3, 2.0, n))


def random_prism(rng: np.random.Generator, sides: int = 6) -> ic.Polytope:
    """A linear image of a prism over a random polygon: its side facets are
    parallelograms, so no facet is a simplex."""
    from scipy.spatial import ConvexHull

    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, sides))
    angles += 2.0 * np.pi * np.arange(sides) / sides - angles.mean()
    polygon = rng.uniform(0.5, 1.5, (sides, 1)) * np.column_stack(
        [np.cos(angles), np.sin(angles)]
    )
    hull = ConvexHull(polygon)
    edges = hull.equations[:, :-1] / -hull.equations[:, -1:]  # a y <= 1
    low, high = -rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
    facets = np.vstack(
        [
            np.column_stack([edges, np.zeros(len(edges))]),
            [[0.0, 0.0, 1.0 / high], [0.0, 0.0, 1.0 / low]],
        ]
    )
    ring = polygon[hull.vertices]
    vertices = np.vstack(
        [np.column_stack([ring, np.full(len(ring), z)]) for z in (low, high)]
    )
    M = np.eye(3) + rng.uniform(-0.3, 0.3, (3, 3))
    return ic.validate_polytope(facets @ np.linalg.inv(M), vertices @ M.T)


def decomposition_states(P, rng):
    """The origin, every vertex and its half, points on every edge, points
    inside facets and seeded interior points."""
    n, V = P.dim, P.vertices
    tight = np.abs(P.facets @ V.T - 1.0) <= 1e-8  # (p, N)
    states = [np.zeros(n)]
    states += [v for v in V] + [0.5 * v for v in V]
    for i, j in itertools.combinations(range(P.vertex_count), 2):
        if (tight[:, i] & tight[:, j]).sum() >= n - 1:  # an edge
            for t in (0.5, rng.uniform()):
                states.append((1.0 - t) * V[i] + t * V[j])
    for row in tight:
        weights = rng.dirichlet(np.ones(row.sum()))
        states.append(weights @ V[row])
    for _ in range(60):
        weights = rng.dirichlet(np.ones(P.vertex_count))
        states.append((weights @ V) * rng.uniform(0.0, 1.0))
    return states


def random_affine_instance(rng: np.random.Generator, n=2, m=1, ell=2, stable=0.75):
    """Affine family with a contractive-ish nominal part and small terms."""
    M = rng.normal(size=(n, n))
    A0 = stable * M / max(1.0, np.abs(np.linalg.eigvals(M)).max())
    B0 = rng.uniform(-1, 1, size=(n, m))
    A_terms = [rng.uniform(-0.2, 0.2, size=(n, n)) for _ in range(ell)]
    B_terms = [rng.uniform(-0.2, 0.2, size=(n, m)) for _ in range(ell)]
    return ic.AffineFamily(A0=A0, B0=B0, A_terms=A_terms, B_terms=B_terms)


def random_scalar_unstable_instance(rng: np.random.Generator, ell=2):
    """Scalar x+ = a(delta) x + u with a(delta) > 1: always correctable with
    |u| <= 2 on S = [-1, 1], and the minimal policy is nonzero."""
    a0 = rng.uniform(1.05, 1.3)
    coeffs = rng.uniform(-0.15, 0.15, size=ell)
    family = ic.AffineFamily(
        A0=[[a0]],
        B0=[[1.0]],
        A_terms=[[[c]] for c in coeffs],
        B_terms=[np.zeros((1, 1))] * ell,
    )
    S = ic.box([-1], [1])
    U = ic.box([-2], [2])
    return family, S, U
