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
state whose facet is not a simplex goes through the LP of
:func:`geometry.vertex_decompose`; all such states of a step go in one
call, which solves their LPs as one stack by walking the program's cache
of pivot paths (:func:`lp_core._solve_stack`).  A polytope with
no simplicial facet (a box in three or more dimensions, say) sends every
state there, with no explicit law tried.

:func:`simulate_closed_loop` steps a whole stack of starts together as
column stacks; one start is a stack of one.  A step runs the products
that set the bits and one scalar exit test; the gauges are taken from the
kept ``F x`` after the loop.  Simulation keeps going when a trajectory
leaves the set (an exit is data, not an error): from a start's first exit
step onwards its input is frozen at zero and the step is flagged.  A
failed decomposition is no exit but a numerical fault (its LP is feasible
and bounded), and raises :class:`DecompositionInfeasible`.
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
# hold: 80 MB of float64, and facets / dimension times that for their F x
MAX_STATES = 10_000_000


class DistributionUnavailable(InvarcertError):
    pass


class TrajectoryOverflow(InvarcertError):
    """A simulated state is not finite."""


class PlantAt:
    """A family at one parameter: its ``m``, ``ell`` and its ``plant``
    ``A(delta), B(delta)``, built once and checked finite.  A plant that is
    not finite raises :class:`InvalidArguments` naming ``delta``.
    :func:`simulate_closed_loop` takes one in place of its family and does
    not build or check the plant again."""

    def __init__(self, family, delta):
        with np.errstate(over="ignore", invalid="ignore"):
            A, B = family.instantiate(delta)
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise InvalidArguments(f"parameter {delta.tolist()} gives a non-finite plant")
        self.m, self.ell, self.plant = family.m, family.ell, (A, B)


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


def _vertex_law(S, simplicial, has_simplex, facet_inputs, vertex_inputs, X, Fx, out=None):
    """Vertex-law inputs, as rows (N, 1, m), at the column stack of states
    ``X`` (N, n, 1) inside ``S``, written into ``out`` if given.

    ``Fx`` (N, p, 1) holds ``F x`` for every state and ``facet_inputs`` (p,
    n, m) the inputs at each facet's simplex vertices.  On a simplicial
    facet ``k = argmax F x`` (lowest index on ties) the decomposition is
    ``V_k^{-1} x``; it is accepted when no weight is below -1e-11 and
    clipped at zero, by one scalar test of the whole stack when every facet
    is a simplex (``simplicial``).  Every other state goes into one stacked
    :func:`geometry.vertex_decompose`, which raises
    :class:`DecompositionInfeasible` on a numerical fault, and which skips
    its outside test: ``Fx`` has passed the caller's.  When no facet is a
    simplex (not ``has_simplex``), the whole stack goes there at once.
    """
    if not has_simplex:
        weights = geometry.vertex_decompose(S, X[:, :, 0], inside=True)
        return np.matmul(weights[:, None, :], vertex_inputs, out=out)
    facets = S.facet_simplices
    k = Fx[:, :, 0].argmax(axis=1)
    gamma = facets.inverses.take(k, axis=0) @ X
    # ``item(argmin())`` is ``min()``, NaN included, without its overhead
    if simplicial and gamma.item(gamma.argmin()) >= -1e-11:
        rows = ()
    else:
        explicit = facets.simplex[k] & (gamma.min(axis=(1, 2)) >= -1e-11)
        rows = (~explicit).nonzero()[0]
    u = np.matmul(np.maximum(gamma, 0.0).transpose(0, 2, 1), facet_inputs.take(k, axis=0), out=out)
    if len(rows):
        weights = geometry.vertex_decompose(S, X[rows, :, 0], inside=True)
        u[rows] = weights[:, None, :] @ vertex_inputs
    return u


def check_size(N: int, T: int, n: int) -> None:
    """Refuse a simulation of ``N`` starts over ``T`` steps in ``n``
    dimensions unless ``T >= 1`` and it holds at most :data:`MAX_STATES`
    states."""
    if T < 1:
        raise InvalidArguments("horizon must be >= 1")
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
    law recombines them via the decomposition of the current state.  A
    start exits at the first step where its gauge exceeds ``1 +
    DEFAULT_TOL`` or its state is not finite; from then on its input is
    zero and ``first_exit`` records the step.  A failed decomposition is
    no exit: it raises :class:`DecompositionInfeasible`.  A policy whose
    gains are not (vertices of ``S``, m, ell) raises
    :class:`DimensionMismatch` first, and a horizon ``T < 1``, a run of
    more than :data:`MAX_STATES` states or a parameter that is not finite
    raises :class:`InvalidArguments` before anything is allocated; a start
    outside ``S``, or not finite, raises :class:`DecompositionInfeasible`
    before any step, and a parameter whose plant ``A(delta), B(delta)`` is
    not finite raises :class:`InvalidArguments`, also before any step; a
    :class:`PlantAt` in place of ``family`` has been checked already.  An
    empty stack of starts gives an empty list.  A run that overflows raises
    :class:`TrajectoryOverflow`, naming the first start with a non-finite
    state and its first such step.
    """
    _check_policy_shape(family, S, policy)
    delta = np.asarray(delta, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(delta))
    if bad.size:
        raise InvalidArguments(f"parameter entry {bad[0]} is {delta[bad[0]]}, not finite")
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim < 2
    X = x0.reshape(1, -1) if single else x0
    if X.ndim != 2 or X.shape[1] != S.dim:
        raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({S.dim},) or (N, {S.dim})")
    check_size(X.shape[0], T, S.dim)
    Fx = S.facets @ X[:, :, None]
    bound = 1.0 + DEFAULT_TOL
    outside = np.flatnonzero(~(Fx <= bound).all(axis=(1, 2)))  # a NaN start too
    if outside.size:
        raise DecompositionInfeasible(f"start {outside[0]} lies outside S")
    N = X.shape[0]
    # an overflow shows as a non-finite plant, refused here, or as a
    # non-finite state, refused once after the loop
    A, B = (family if isinstance(family, PlantAt) else PlantAt(family, delta)).plant
    with np.errstate(over="ignore", invalid="ignore"):
        if not N:
            return []
        # step-major column stacks of the states, their F x and the inputs (as rows); a
        # stacked product is one product per row, so a start's bits do not depend on the stack
        states = np.empty((T + 1, N, S.dim, 1))
        images = np.empty((T + 1, N, S.facet_count, 1))
        inputs = np.zeros((T, N, 1, family.m))
        states[0], images[0] = X[:, :, None], Fx
        first_exit = np.full(N, -1)
        live = None  # the starts that have not exited: all, until one does
        vertex_inputs = policy.vertex_inputs(delta)
        facets = S.facet_simplices
        simplicial = bool(facets.simplex.all())
        has_simplex = simplicial or bool(facets.simplex.any())
        law = (S, simplicial, has_simplex, vertex_inputs[facets.vertices], vertex_inputs)
        for t in range(T):
            X, U = states[t], inputs[t]
            if live is None:
                _vertex_law(*law, X, images[t], out=U)
            elif live.size:
                U[live] = _vertex_law(*law, X[live], images[t][live])
            X = np.matmul(A, X, out=states[t + 1])
            X += B @ U.transpose(0, 2, 1)
            Fx = np.matmul(S.facets, X, out=images[t + 1])
            if not Fx.item(Fx.argmax()) <= bound:  # ``max()``: a NaN state exits too
                first_exit[(first_exit < 0) & ~(Fx.max(axis=(1, 2)) <= bound)] = t + 1
                live = (first_exit < 0).nonzero()[0]
        gauges = np.maximum(images.max(axis=(2, 3)), 0.0).T.copy()
    states = states[:, :, :, 0].transpose(1, 0, 2).copy()
    inputs = inputs[:, :, 0].transpose(1, 0, 2).copy()
    finite = np.isfinite(states).all(axis=2)
    if not finite.all():
        s = int((~finite).any(axis=1).argmax())
        raise TrajectoryOverflow(
            f"the state of start {s} at step {int((~finite[s]).argmax())} is not finite"
        )
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
