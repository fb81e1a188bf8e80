"""Vertex control law, closed-loop simulation and violation estimation.

The vertex control law recombines fixed per-vertex inputs through the
minimal vertex decomposition of the current state: with
``gamma = vertex_decompose(S, x)`` the applied input is
``u = sum_i gamma_i u_i``.  For a policy feasible at the running
parameter, one step maps each vertex into ``S`` and convexity keeps every
interior point inside as well, so the gauge trace is the natural monitor.

Simulation keeps going when a trajectory leaves the set (an exit is data,
not an error): from the first exit step onwards the input is frozen at
zero and the step is flagged.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DimensionMismatch, InvarcertError
from .geometry import DecompositionInfeasible, Polytope
from .scenario import CHUNK, AffinePolicy, is_admissible

DEFAULT_HORIZON = 50
DEFAULT_MC_SAMPLES = 10_000


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


def vertex_control_input(S: Polytope, vertex_inputs, x, tol: float = 1e-8) -> np.ndarray:
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
    gamma = geometry.vertex_decompose(S, x, tol)
    return gamma @ VU


class _CachedDecomposer:
    """Vertex decomposition with basis reuse along a trajectory.

    Consecutive states of a converging trajectory usually share the
    optimal basis.  A cached basis is reused only when it proves the
    optimum unique (strictly positive reduced costs on every nonbasic
    column), so the result is identical to a fresh LP solve; anything
    else falls back to the LP core.
    """

    def __init__(self, S: Polytope, tol: float):
        self.S = S
        self.tol = tol
        self._columns = None  # vertex indices forming the basis
        self._basis_matrix = None
        self._unique = False

    def __call__(self, x) -> np.ndarray:
        if self._unique:
            gamma_b = np.linalg.solve(self._basis_matrix, x)
            if np.all(gamma_b >= -1e-11):
                gamma = np.zeros(self.S.vertex_count)
                gamma[self._columns] = np.maximum(gamma_b, 0.0)
                return gamma
        gamma = geometry.vertex_decompose(self.S, x, self.tol)
        self._adopt(gamma)
        return gamma

    def _adopt(self, gamma) -> None:
        self._unique = False
        support = np.flatnonzero(gamma > 1e-12)
        if support.size != self.S.dim:
            return
        basis = self.S.vertices[support].T  # (n, n)
        if abs(np.linalg.det(basis)) < 1e-12:
            return
        dual = np.linalg.solve(basis.T, np.ones(support.size))
        reduced = 1.0 - self.S.vertices @ dual
        reduced[support] = np.inf
        if reduced.min() > 1e-9:
            self._columns = support
            self._basis_matrix = basis
            self._unique = True


def simulate_closed_loop(
    family,
    delta,
    S: Polytope,
    policy: AffinePolicy,
    x0,
    T: int = DEFAULT_HORIZON,
    tol: float = 1e-8,
) -> Trajectory:
    """Closed-loop trajectory under the vertex control law.

    The per-vertex inputs are fixed once from the runtime parameter
    (``u_i = C_i delta + d_i``); at every step the law recombines them via
    the decomposition of the current state.  After the first exit from
    ``S`` the input is zero and ``first_exit`` records the step.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    delta = np.asarray(delta, dtype=float).ravel()
    A, B = family.instantiate(delta)
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != S.dim:
        raise DimensionMismatch(f"x0 has dimension {x.size}, expected {S.dim}")
    if not geometry.contains(S, x, tol):
        raise DecompositionInfeasible("x0 lies outside S")

    vertex_inputs = policy.vertex_inputs(delta)
    decompose = _CachedDecomposer(S, tol)
    n, m = S.dim, vertex_inputs.shape[1]
    states = np.empty((T + 1, n))
    inputs = np.empty((T, m))
    gauges = np.empty(T + 1)
    states[0] = x
    gauges[0] = geometry.minkowski_gauge(S, x)
    first_exit = None
    for t in range(T):
        if first_exit is None:
            try:
                u = decompose(states[t]) @ vertex_inputs
            except DecompositionInfeasible:
                first_exit = t
                u = np.zeros(m)
        else:
            u = np.zeros(m)
        inputs[t] = u
        states[t + 1] = A @ states[t] + B @ u
        gauges[t + 1] = geometry.minkowski_gauge(S, states[t + 1])
        if first_exit is None and gauges[t + 1] > 1.0 + tol:
            first_exit = t + 1
    return Trajectory(
        states=states,
        inputs=inputs,
        gauges=gauges,
        delta=delta,
        policy_fingerprint=policy.fingerprint,
        first_exit=first_exit,
    )


def empirical_violation(family, S, U, policy, samples, tol: float = 1e-8):
    """Fraction of the given samples at which the policy is inadmissible."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    ok = np.empty(samples.shape[0], dtype=bool)
    for lo in range(0, samples.shape[0], CHUNK):
        part = samples[lo : lo + CHUNK]
        ok[lo : lo + CHUNK] = is_admissible(
            family, S, U, part, policy.vertex_inputs(part), tol
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
    failed_samples: np.ndarray = None  # the offending draws, (len(failures), ell)


def estimate_violation(
    family,
    S: Polytope,
    U: Polytope,
    policy: AffinePolicy,
    distribution,
    M: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    tol: float = 1e-8,
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
    v_hat, failures = empirical_violation(family, S, U, policy, draws, tol)
    return ViolationEstimate(
        v_hat=v_hat,
        std_error=float(np.sqrt(v_hat * (1.0 - v_hat) / M)),
        sample_count=M,
        seed=seed,
        failures=tuple(failures),
        failed_samples=draws[list(failures)],
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
