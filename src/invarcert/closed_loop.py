"""Vertex control law, closed-loop simulation and violation estimation.

The vertex control law recombines fixed per-vertex inputs through the
minimal vertex decomposition of the current state: with ``gamma`` the
decomposition of ``x`` the applied input is ``u = sum_i gamma_i u_i``.
For a policy feasible at the running parameter, one step maps each vertex
into ``S`` and convexity keeps every interior point inside as well, so the
gauge trace is the natural monitor.

On a simplicial facet the law is explicit and piecewise linear
(Gutman & Cwikel, IEEE TAC 1986): with ``k = argmax_k F_k x``,
``gamma = V_k^{-1} x`` on that facet's vertices, from inverses computed
once per polytope (:attr:`geometry.Polytope.facet_simplices`).  Only a
state whose facet is not a simplex (a box in three or more dimensions,
say) goes through the LP of :func:`geometry.vertex_decompose`; all such
states of a step go in one call, which solves their LPs as one stack of
tableaux (:func:`lp_core.solve_batch`).

:func:`simulate_closed_loop` steps a whole stack of starts together as
arrays; one start is a stack of one.  Simulation keeps going when a
trajectory leaves the set (an exit is data, not an error): from a start's
first exit step onwards its input is frozen at zero and the step is
flagged.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DimensionMismatch, InvalidArguments, InvarcertError
from .geometry import DEFAULT_TOL, DecompositionInfeasible, Polytope
from .scenario import AffinePolicy, chunks, is_admissible

DEFAULT_HORIZON = 50
DEFAULT_MC_SAMPLES = 10_000
# the most states (starts x (horizon + 1) x dimension) one simulation may
# hold: 80 MB of float64
MAX_STATES = 10_000_000


class DistributionUnavailable(InvarcertError):
    pass


@dataclass(frozen=True)
class Trajectory:
    """One closed-loop run: states x(0..T), inputs u(0..T-1), gauge trace."""

    states: np.ndarray  # (T+1, n)
    inputs: np.ndarray  # (T, m)
    gauges: np.ndarray  # (T+1,)
    delta: np.ndarray
    policy_fingerprint: str | None = None
    first_exit: int | None = None

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]

    @property
    def max_gauge(self) -> float:
        return float(self.gauges.max())


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ x`` for every row ``x`` of ``X`` (N, n); ``M`` is one matrix or
    one per row.  Each row is its own product, so a row's result does not
    depend on how many rows are stacked with it."""
    return (M @ X[:, :, None])[:, :, 0]


def _vertex_law(S, facet_inputs, vertex_inputs, X, Fx):
    """Vertex-law inputs (N, m) at the states ``X`` (N, n) inside ``S``.

    ``Fx`` (N, p) holds ``F x`` for every state and ``facet_inputs`` (p,
    n, m) the inputs at each facet's simplex vertices.  On a simplicial
    facet ``k = argmax F x`` (lowest index on ties) the decomposition is
    ``V_k^{-1} x``; it is accepted when no weight is below -1e-11 and
    clipped at zero.  Every other state goes into one stacked
    :func:`geometry.vertex_decompose`.  Returns the inputs and the rows no
    decomposition reaches, whose input is zero.
    """
    facets = S.facet_simplices
    k = Fx.argmax(axis=1)
    gamma = _apply(facets.inverses[k], X)
    explicit = facets.simplex[k] & (gamma.min(axis=1) >= -1e-11)
    u = (np.maximum(gamma, 0.0)[:, None, :] @ facet_inputs[k])[:, 0]
    rows = (~explicit).nonzero()[0]
    if not rows.size:
        return u, rows
    weights = geometry.vertex_decompose(S, X[rows])
    u[rows] = (weights[:, None, :] @ vertex_inputs)[:, 0]
    failed = rows[np.isnan(weights[:, 0])]
    u[failed] = 0.0
    return u, failed


def vertex_control_input(S: Polytope, vertex_inputs, x) -> np.ndarray:
    """Input prescribed by the vertex control law at state ``x``.

    ``vertex_inputs`` holds one input per vertex of ``S`` (shape (N, m)).
    """
    VU = np.asarray(vertex_inputs, dtype=float)
    if VU.ndim == 1:
        VU = VU[:, None]
    if VU.shape[0] != S.vertex_count:
        raise DimensionMismatch(
            f"expected {S.vertex_count} vertex inputs, got {VU.shape[0]}"
        )
    x = np.asarray(x, dtype=float).ravel()
    if geometry.minkowski_gauge(S, x) > 1.0 + DEFAULT_TOL:
        raise DecompositionInfeasible(f"point outside polytope beyond tol={DEFAULT_TOL}")
    X = x[None]
    facet_inputs = VU[S.facet_simplices.vertices]
    u, failed = _vertex_law(S, facet_inputs, VU, X, _apply(S.facets, X))
    if failed.size:
        raise DecompositionInfeasible("no nonnegative vertex combination reaches x")
    return u[0]


def check_size(N: int, T: int, n: int) -> None:
    """Refuse a simulation of ``N`` starts over ``T`` steps in ``n``
    dimensions that would hold more than :data:`MAX_STATES` states."""
    if N * (T + 1) * n > MAX_STATES:
        raise InvalidArguments(
            f"{N} starts over {T} steps in {n} dimensions are "
            f"{N * (T + 1) * n} states, more than the cap of {MAX_STATES}"
        )


def _check_policy_shape(family, S: Polytope, policy: AffinePolicy) -> None:
    """A policy must give one (m, ell) gain per vertex of ``S``."""
    expected = (S.vertex_count, family.m, family.ell)
    if policy.gains.shape != expected:
        raise DimensionMismatch(
            f"policy gains have shape {policy.gains.shape}, expected {expected} "
            "(vertices of S, inputs, parameters)"
        )


def simulate_closed_loop(
    family,
    delta,
    S: Polytope,
    policy: AffinePolicy,
    x0,
    T: int = DEFAULT_HORIZON,
):
    """Closed-loop trajectories under the vertex control law.

    ``x0`` is one start (n,), which gives one :class:`Trajectory`, or a
    stack of starts (N, n), which gives a list of N trajectories; the
    stack is stepped as arrays.  The per-vertex inputs are fixed once from
    the runtime parameter (``u_i = C_i delta + d_i``); at every step the
    law recombines them via the decomposition of the current state.  From
    a start's first exit from ``S`` on, its input is zero and
    ``first_exit`` records the step.  A policy whose gains are not
    (vertices of ``S``, m, ell) raises :class:`DimensionMismatch` first,
    and a run of more than :data:`MAX_STATES` states raises
    :class:`InvalidArguments` before anything is allocated.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    _check_policy_shape(family, S, policy)
    delta = np.asarray(delta, dtype=float).ravel()
    A, B = family.instantiate(delta)
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim < 2
    X = x0.reshape(1, -1) if single else x0
    if X.ndim != 2 or X.shape[1] != S.dim:
        raise DimensionMismatch(
            f"x0 has shape {x0.shape}, expected ({S.dim},) or (N, {S.dim})"
        )
    check_size(X.shape[0], T, S.dim)
    Fx = _apply(S.facets, X)
    outside = np.flatnonzero((Fx > 1.0 + DEFAULT_TOL).any(axis=1))
    if outside.size:
        raise DecompositionInfeasible(f"start {outside[0]} lies outside S")

    vertex_inputs = policy.vertex_inputs(delta)
    facet_inputs = vertex_inputs[S.facet_simplices.vertices]
    N, n, m = X.shape[0], S.dim, vertex_inputs.shape[1]
    states = np.empty((N, T + 1, n))
    inputs = np.zeros((N, T, m))
    gauges = np.empty((N, T + 1))
    states[:, 0] = X
    gauges[:, 0] = np.maximum(Fx.max(axis=1), 0.0)
    first_exit = np.full(N, -1)
    live = slice(None)  # the starts that have not exited: all, until one does
    for t in range(T):
        inputs[live, t], failed = _vertex_law(
            S, facet_inputs, vertex_inputs, X[live], Fx[live]
        )
        X = _apply(A, X) + _apply(B, inputs[:, t])
        Fx = _apply(S.facets, X)
        states[:, t + 1] = X
        gauges[:, t + 1] = np.maximum(Fx.max(axis=1), 0.0)
        out = gauges[:, t + 1] > 1.0 + DEFAULT_TOL
        if failed.size or out.any():
            first_exit[np.arange(N)[live][failed]] = t
            first_exit[(first_exit < 0) & out] = t + 1
            live = (first_exit < 0).nonzero()[0]
    fingerprint = policy.fingerprint
    trajectories = [
        Trajectory(
            states=states[s],
            inputs=inputs[s],
            gauges=gauges[s],
            delta=delta,
            policy_fingerprint=fingerprint,
            first_exit=None if first_exit[s] < 0 else int(first_exit[s]),
        )
        for s in range(N)
    ]
    return trajectories[0] if single else trajectories


def empirical_violation(family, S, U, policy, samples):
    """Fraction of the given samples at which the policy is inadmissible."""
    _check_policy_shape(family, S, policy)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    ok = np.empty(samples.shape[0], dtype=bool)
    for lo, hi in chunks(samples.shape[0]):
        part = samples[lo:hi]
        ok[lo:hi] = is_admissible(
            family, S, U, part, policy.vertex_inputs(part), first=lo
        )
    failures = np.flatnonzero(~ok).tolist()
    return len(failures) / samples.shape[0], failures


@dataclass(frozen=True)
class ViolationEstimate:
    v_hat: float
    std_error: float
    sample_count: int
    seed: int
    failures: tuple  # indices into the drawn multisample


def estimate_violation(
    family,
    S: Polytope,
    U: Polytope,
    policy: AffinePolicy,
    distribution,
    M: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> ViolationEstimate:
    """Monte Carlo estimate of the policy's violation probability.

    Draws ``M`` fresh i.i.d. parameters from ``distribution`` (seeded,
    reproducible) and counts those whose realized system makes the policy
    inadmissible at some vertex.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if distribution is None or not hasattr(distribution, "draw"):
        raise DistributionUnavailable(
            "no sampling distribution available for this family"
        )
    rng = np.random.default_rng(seed)
    draws = distribution.draw(M, rng)
    v_hat, failures = empirical_violation(family, S, U, policy, draws)
    return ViolationEstimate(
        v_hat=v_hat,
        std_error=float(np.sqrt(v_hat * (1.0 - v_hat) / M)),
        sample_count=M,
        seed=seed,
        failures=tuple(failures),
    )


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """Dump one trajectory: columns t, x_1..x_n, u_1..u_m, gauge."""
    n = trajectory.states.shape[1]
    m = trajectory.inputs.shape[1]
    header = (
        ["t"]
        + [f"x_{k + 1}" for k in range(n)]
        + [f"u_{k + 1}" for k in range(m)]
        + ["gauge"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(trajectory.states.shape[0]):
            u = (
                [repr(float(v)) for v in trajectory.inputs[t]]
                if t < trajectory.horizon
                else [""] * m
            )
            writer.writerow(
                [t]
                + [repr(float(v)) for v in trajectory.states[t]]
                + u
                + [repr(float(trajectory.gauges[t]))]
            )
