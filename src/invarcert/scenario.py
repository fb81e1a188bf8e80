"""Scenario feasibility programs for affine vertex policies.

Given a candidate invariant polytope ``S`` (vertices ``x_i``), an input
polytope ``U`` and ``K`` sampled parameter vectors, the central object is
the feasibility program

    find (C_i, d_i), i = 1..N   such that for every sample delta and
    every vertex:  H (C_i delta + d_i) <= 1   and
                   F A(delta) x_i + F B(delta) (C_i delta + d_i) <= 1.

The program decouples across vertices, so each block is solved as a small
LP over ``z_i = (vec C_i, d_i)`` with a 1-norm tie-break objective and
deterministic constraint generation: the map from the ordered sample list
to the returned policy is single-valued, which is what the downstream
certificate requires.

The module also provides the conservative common-input baseline (one
fixed input per vertex for all samples), admissibility checks, and the
greedy support-subsample reduction of a synthesized policy, whose
cardinality drives the certificate.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import lp_core
from .errors import DimensionMismatch, InvarcertError, NumericalBreakdown
from .geometry import DEFAULT_TOL, Polytope
from .system_family import UnknownSample

SOLUTION_TOL = 1e-6
_CG_BATCH = 8  # violated rows added per constraint-generation round
_ACTIVE_TOL = 1e-7  # slack below this marks a sample as potentially supporting
CHUNK = 512  # draws per batched assembly; bounds the temporaries


def chunks(count: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` of the runs of at most :data:`CHUNK` draws that cover
    ``count`` draws in order; every batched pass over a sample list
    (synthesis, Monte Carlo, minor enumeration) is cut here."""
    return [(lo, min(lo + CHUNK, count)) for lo in range(0, count, CHUNK)]


class Infeasible(InvarcertError):
    """The scenario program admits no policy.

    Carries the first violated ``(sample, vertex, row)`` triple when the
    failure could be localized.
    """

    def __init__(self, message, sample=None, vertex=None, row=None):
        self.sample, self.vertex, self.row = sample, vertex, row
        super().__init__(message)


class InfeasibleOnSubsample(InvarcertError):
    """A subsample re-solve reported infeasibility.

    A subset of a feasible constraint system is always feasible, so this
    flags a determinism or numerical fault and must not occur.
    """


class MismatchedFingerprints(InvarcertError):
    pass


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class UniformBox:
    """Uniform product distribution on the box [lower, upper]."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = np.array(lower, dtype=float).ravel()
        hi = np.array(upper, dtype=float).ravel()
        if lo.size != hi.size:
            raise DimensionMismatch("lower and upper lengths differ")
        if np.any(lo > hi):
            raise ValueError("lower must be <= upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))


@dataclass(frozen=True)
class DiscreteUniform:
    """Uniform distribution over table indices 0..count-1 (dimension 1)."""

    count: int

    @property
    def dim(self) -> int:
        return 1

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.count, size=(count, 1)).astype(float)


@dataclass(frozen=True)
class ScenarioSet:
    """Ordered K-multisample of parameter vectors.

    The order matters: policy synthesis is a deterministic function of the
    ordered list, and support-subsample indices refer to it.
    """

    samples: np.ndarray  # (K, ell)
    distribution: object = None
    seed: int | None = None

    def __post_init__(self):
        s = np.array(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError("samples must be a nonempty (K, ell) array")
        finite = np.isfinite(s).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"sample {bad} is not finite: {s[bad].tolist()}")
        if isinstance(self.distribution, UniformBox):
            if self.distribution.dim != s.shape[1]:
                raise DimensionMismatch("distribution dimension != sample dimension")
            if np.any(s < self.distribution.lower - 1e-12) or np.any(
                s > self.distribution.upper + 1e-12
            ):
                raise ValueError("samples fall outside the declared uniform box")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def from_uniform_box(cls, lower, upper, count: int, seed: int) -> "ScenarioSet":
        dist = UniformBox(lower, upper)
        rng = np.random.default_rng(seed)
        return cls(samples=dist.draw(count, rng), distribution=dist, seed=seed)

    @classmethod
    def from_csv(cls, path) -> "ScenarioSet":
        with open(path) as fh:
            lines = fh.read().splitlines() or [""]
        skip = 0
        try:
            [float(tok) for tok in lines[0].replace(",", " ").split()]
        except ValueError:
            skip = 1  # header line
        if not any(line.split("#")[0].strip() for line in lines[skip:]):
            raise ValueError(f"{path}: no sample rows (the file is empty or only a header)")
        try:
            samples = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls(samples=samples)

    @property
    def K(self) -> int:
        return self.samples.shape[0]

    @property
    def ell(self) -> int:
        return self.samples.shape[1]

    @property
    def fingerprint(self) -> str:
        return _digest(self.samples)


@dataclass(frozen=True)
class AffinePolicy:
    """Per-vertex affine maps ``u_i(delta) = gains[i] @ delta + offsets[i]``."""

    gains: np.ndarray  # (N, m, ell)
    offsets: np.ndarray  # (N, m)
    scenario_fingerprint: str | None = None
    # the program a synthesized policy solves, which greedy reduces it on;
    # it lives as long as the policy
    _program: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.array(self.gains, dtype=float)
        d = np.array(self.offsets, dtype=float)
        if g.ndim != 3 or d.ndim != 2 or g.shape[:2] != d.shape:
            raise DimensionMismatch("gains must be (N, m, ell) and offsets (N, m)")
        finite = np.isfinite(g).all(axis=(1, 2)) & np.isfinite(d).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"policy gains and offsets of vertex {bad} must be finite")
        g.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "offsets", d)

    @property
    def fingerprint(self) -> str:
        return _digest(self.gains, self.offsets)

    def vertex_inputs(self, delta) -> np.ndarray:
        """Inputs at every vertex: (M, N, m) for a (M, ell) stack of draws,
        (N, m) for one draw, which is a stack of one."""
        d = np.asarray(delta, dtype=float)
        ell = self.gains.shape[2]
        stack = d.ndim == 2 and d.shape[1] == ell
        D = d if stack else d.reshape(1, -1)
        if D.shape[1] != ell:
            raise DimensionMismatch(f"expected parameter of dimension {ell}, got {d.size}")
        U = (D @ self.gains.transpose(0, 2, 1)).transpose(1, 0, 2) + self.offsets
        return U if stack else U[0]


def vertex_constraints(family, S: Polytope, U: Polytope, deltas, first: int = 0):
    """Input-space rows of every vertex block, for a (K, ell) stack of draws.

    Returns ``G`` (K, q+p, m), the rows ``col(H, F B(delta_k))``, and ``l``
    (K, N, q+p), the right-hand sides ``col(1, 1 - F A(delta_k) x_i)``:
    the input ``u`` at vertex ``x_i`` is admissible for draw k, that is it
    lies in ``U`` and maps the vertex into ``S``, iff ``G[k] u <= l[k, i]``.
    ``first`` is the position of ``deltas[0]`` in the whole sample list; an
    :class:`UnknownSample` names its draw by that position.
    """
    try:
        A, B = family.instantiate_batch(deltas)
    except UnknownSample as exc:
        raise UnknownSample(first + exc.row, exc.value, exc.count) from None
    if A.shape[1:] != (S.dim, S.dim) or B.shape[1:] != (S.dim, U.dim):
        raise DimensionMismatch("family output does not match S and U")
    q = U.facet_count
    G = np.empty((A.shape[0], q + S.facet_count, U.dim))
    G[:, :q] = U.facets
    G[:, q:] = S.facets @ B
    l = np.ones((A.shape[0], S.vertex_count, q + S.facet_count))
    l[:, :, q:] -= (S.facets @ A @ S.vertices.T).transpose(0, 2, 1)
    return G, l


def is_admissible(family, S: Polytope, U: Polytope, delta, u, *, first: int = 0):
    """True iff every vertex input lies in ``U`` and maps its vertex into ``S``,
    within :data:`geometry.DEFAULT_TOL`.

    ``delta`` is one draw with vertex inputs ``u`` (N, m), or a (M, ell)
    stack of draws with inputs (M, N, m), which gives a boolean mask (M,).
    ``first`` is as in :func:`vertex_constraints`.
    """
    deltas = np.atleast_2d(np.asarray(delta, dtype=float))
    G, l = vertex_constraints(family, S, U, deltas, first)
    u = np.asarray(u, dtype=float).reshape(deltas.shape[0], S.vertex_count, U.dim)
    ok = np.all(u @ G.transpose(0, 2, 1) <= l + DEFAULT_TOL, axis=(1, 2))
    return bool(ok[0]) if np.ndim(delta) < 2 else ok


class _BlockProgram:
    """Stacked per-sample constraint rows over the per-vertex unknowns.

    For the affine policy the unknown is ``z_i = (vec C_i, d_i)``, so the
    rows are the input-space rows ``G`` composed with the policy map
    ``u = C_i delta + d_i``; for the constant-input baseline it is ``d_i``
    alone.  The rows are indexed by sample, ``rows`` (K, block_rows, dvar)
    shared by all vertices and ``rhs`` (N, K, block_rows), since only the
    image right-hand side depends on the vertex.

    Every working LP of constraint generation has only its working rows:
    ``z = p - q`` with ``p, q >= 0`` minimizing ``sum(p + q)``, the 1-norm
    of ``z``.  Greedy re-solves start from the rows active at the policy;
    synthesis and every cold check start from none.
    """

    def __init__(self, family, S, U, samples, affine=True):
        self.inputs = (family, S, U, samples)
        samples = np.asarray(samples, dtype=float)
        self.K, ell = samples.shape
        self.N = S.vertex_count
        self.m = U.dim
        self.dvar = d = self.m * (ell + 1) if affine else self.m
        self.block_rows = U.facet_count + S.facet_count

        self.rows = np.empty((self.K, self.block_rows, d))
        self.rhs = np.empty((self.N, self.K, self.block_rows))
        for lo, hi in chunks(self.K):
            part = samples[lo:hi]
            G, l = vertex_constraints(family, S, U, part, lo)
            self.rhs[:, lo:hi] = l.transpose(1, 0, 2)
            block = self.rows[lo:hi]
            block[:, :, d - self.m :] = G
            if affine:  # column (a, k) of C_i multiplies G[:, a] by delta_k
                gains = block[:, :, : self.m * ell]
                np.multiply(
                    G[:, :, :, None],
                    part[:, None, None, :],
                    out=gains.reshape(part.shape[0], self.block_rows, self.m, ell),
                )

    def built_from(self, family, S, U, samples) -> bool:
        """True iff this program was built from these very objects."""
        return all(a is b for a, b in zip(self.inputs, (family, S, U, samples)))

    def solve_vertex(self, vertex: int, sample_indices, start=None) -> np.ndarray | None:
        """1-norm-minimal feasible point of the vertex block, or None.

        Deterministic constraint generation: starting from the empty
        working set (solution 0), each round adds the rows chosen by
        :func:`_most_violated` -- the at most ``_CG_BATCH`` largest
        violations above ``lp_core.DEFAULT_FEAS_TOL``, ties going to the
        lowest position in the ordered sample list -- and re-solves with
        the deterministic simplex core.  Given a point ``start``, the
        first working set is instead the subsample's rows whose slack at
        ``start`` is below :data:`_ACTIVE_TOL`, the first ``dvar`` of
        them; the rounds then go on as above.  More than ``dvar`` rows are
        active only at a degenerate point; the rest would cost phase-1
        pivots, and the rounds add any of them that is violated.

        The subsample's rows and right-hand side are taken once, and every
        round reads both from that pair.  Samples forming one increasing
        run, as in synthesis, are a view of the stored rows: the same
        product as on their gathered copy.  Any other subsample is
        gathered, because BLAS may compute the last few rows of a product
        with another kernel, so its rows read within the full matrix could
        round differently.
        """
        take = np.asarray(sample_indices, dtype=int)
        z = np.zeros(self.dvar)
        if take.size == 0:
            return z
        if np.all(np.diff(take) == 1):
            take = slice(int(take[0]), int(take[-1]) + 1)
        A = self.rows[take].reshape(-1, self.dvar)
        b = self.rhs[vertex, take].reshape(-1)
        working: list[int] = []
        in_working = np.zeros(b.size, dtype=bool)
        if start is not None:
            working = np.flatnonzero(b - A @ start < _ACTIVE_TOL)[: self.dvar].tolist()
            in_working[working] = True
        if working:
            z = self._solve_working(A[working], b[working])
            if z is None:
                return None
        for _ in range(b.size + 1):
            viol = A @ z - b
            viol[in_working] = -np.inf  # already enforced exactly
            batch = _most_violated(viol, lp_core.DEFAULT_FEAS_TOL)
            if batch.size == 0:
                return z
            working.extend(batch)
            in_working[batch] = True
            z = self._solve_working(A[working], b[working])
            if z is None:
                return None
        raise NumericalBreakdown("constraint generation failed to converge")

    def _solve_working(self, A_w: np.ndarray, b_w: np.ndarray) -> np.ndarray | None:
        """1-norm-minimal ``z`` with ``A_w z <= b_w``, or None.  The cost
        of ``p`` and ``q`` is positive, so no optimum has both ``p_k`` and
        ``q_k`` positive."""
        d = self.dvar
        lp = lp_core.LinearProgram(c=np.ones(2 * d), A_in=np.hstack([A_w, -A_w]), b_in=b_w)
        outcome = lp_core.solve(lp)
        if outcome.status is lp_core.LpStatus.INFEASIBLE:
            return None
        if not outcome.is_optimal:  # a numerical fault: the objective is bounded below
            raise NumericalBreakdown(f"unexpected LP status {outcome.status}")
        return outcome.z[:d] - outcome.z[d:]

    def solve_all(self, sample_indices):
        """Solutions for every vertex, or None when some vertex fails."""
        out = np.empty((self.N, self.dvar))
        for i in range(self.N):
            z = self.solve_vertex(i, sample_indices)
            if z is None:
                return None
            out[i] = z
        return out

    def diagnose(self) -> tuple[int, int, int]:
        """First (sample, vertex, row) triple at which the program fails.

        Prefix feasibility is monotone in the ordered sample list, so the
        first breaking sample is found by bisection; the reported row is
        the most violated one of that sample's block at the solution of
        the prefix without it.
        """
        lo, hi = 0, self.K  # prefix [:lo] feasible, [:hi] infeasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.solve_all(range(mid)) is None:
                hi = mid
            else:
                lo = mid
        culprit = hi - 1
        vertex = next(
            i for i in range(self.N) if self.solve_vertex(i, range(hi)) is None
        )
        z = self.solve_vertex(vertex, range(culprit))
        if z is None:  # a numerical fault: the prefix was verified feasible
            raise NumericalBreakdown("diagnosis lost feasibility")
        block = self.rows[culprit] @ z - self.rhs[vertex, culprit]
        return culprit, vertex, int(np.argmax(block))


def _most_violated(viol: np.ndarray, feas_tol: float) -> np.ndarray:
    """Positions of the at most ``_CG_BATCH`` largest entries of ``viol``
    above ``feas_tol``, largest first, ties to the lowest position.

    Only the candidates above ``feas_tol`` are sorted: each of them ranks
    above every other entry, and they are taken in increasing position,
    so the stable sort breaks ties exactly as a stable sort of all of
    ``viol`` would.
    """
    cand = np.flatnonzero(viol > feas_tol)
    return cand[np.argsort(-viol[cand], kind="stable")[:_CG_BATCH]]


def _solve_program(prog: _BlockProgram, what: str) -> np.ndarray:
    """Per-vertex solutions of the whole program, or :class:`Infeasible`
    with the first violated triple and ``what`` naming the missing object."""
    Z = prog.solve_all(range(prog.K))
    if Z is None:
        sample, vertex, row = prog.diagnose()
        raise Infeasible(
            f"no {what}: sample {sample}, vertex {vertex}, row {row}",
            sample=sample,
            vertex=vertex,
            row=row,
        )
    return Z


def solve_affine_policy(
    family, S: Polytope, U: Polytope, scenarios: ScenarioSet
) -> AffinePolicy:
    """Affine vertex policy feasible for every scenario (the map Theta_K).

    Deterministic in the ordered sample list.  Raises :class:`Infeasible`
    with the first violated (sample, vertex, row) triple otherwise.
    """
    prog = _BlockProgram(family, S, U, scenarios.samples)
    Z = _solve_program(prog, "affine policy")
    m, ell = U.dim, scenarios.ell
    policy = AffinePolicy(
        gains=Z[:, : m * ell].reshape(-1, m, ell),
        offsets=Z[:, m * ell :],
        scenario_fingerprint=scenarios.fingerprint,
    )
    object.__setattr__(policy, "_program", prog)
    return policy


def solve_constant_input(
    family, S: Polytope, U: Polytope, scenarios: ScenarioSet
) -> np.ndarray:
    """One fixed input per vertex, valid for all samples simultaneously.

    The conservative baseline: equivalent to restricting the affine policy
    to zero gains.  Returns a (N, m) array or raises :class:`Infeasible`.
    """
    prog = _BlockProgram(family, S, U, scenarios.samples, affine=False)
    return _solve_program(prog, "common input")


def greedy_support_subsample(
    family, S: Polytope, U: Polytope, scenarios: ScenarioSet, *, policy: AffinePolicy
) -> list[int]:
    """Single-pass greedy support subsample of the scenario program.

    ``policy`` must come from :func:`solve_affine_policy` called with these
    very arguments, and is reduced on the program that call built.  Any
    other policy (of other scenarios or of equal but distinct objects,
    loaded from a file or built by hand) raises
    :class:`MismatchedFingerprints` before any re-solve.  Scans samples in
    ascending order; a sample is discarded when re-solving without it
    reproduces the policy within :data:`SOLUTION_TOL` (max-norm over all
    policy entries).  Returns the retained indices (increasing); re-solving
    on exactly that subsample reproduces the policy, which is verified
    before returning.

    Samples whose constraint rows are all strictly slack (by at least
    :data:`_ACTIVE_TOL`) at the policy cannot move the 1-norm optimum of
    any vertex block; they are discarded without a re-solve, and the final
    verification guards the shortcut.  Re-solves touching only the affected
    vertices cover the rest; each starts constraint generation from the
    subsample's rows that are active (slack below :data:`_ACTIVE_TOL`) at
    the policy for its vertex, at most ``dvar`` of them (see
    :meth:`_BlockProgram.solve_vertex`).  The final verification starts
    cold.  If it fails, the literal pass re-solves every vertex for every
    removal, cold.
    """
    prog = policy._program
    if prog is None or not prog.built_from(family, S, U, scenarios.samples):
        raise MismatchedFingerprints(
            "policy was not synthesized by solve_affine_policy from these arguments"
        )
    full = np.hstack([policy.gains.reshape(prog.N, -1), policy.offsets])

    # per (vertex, sample) minimum slack at the full solution
    rows = prog.rows.reshape(-1, prog.dvar)
    slack = np.empty((prog.N, prog.K))
    for i in range(prog.N):
        slack[i] = (prog.rhs[i] - (rows @ full[i]).reshape(prog.K, -1)).min(axis=1)
    touches = slack < _ACTIVE_TOL  # (N, K)

    retained = _reduce(prog, full, touches, seeded=True)
    if retained is None:
        # shortcut assumptions failed (ties between optima); literal pass
        retained = _reduce(prog, full, np.ones_like(touches))
    if retained is None:
        raise MismatchedFingerprints("policy is not the solution of this scenario program")
    return retained


def _reduce(prog, full, touches, seeded=False) -> list[int] | None:
    """The one-removal-at-a-time pass: sample j is dropped when re-solving
    the vertices ``touches[:, j]`` marks, without it and every sample
    dropped before, reproduces ``full`` within :data:`SOLUTION_TOL`.  A
    sample that touches no vertex is dropped without a re-solve, so only
    the touched samples are visited.  With ``seeded``, each re-solve of
    vertex i starts from the rows active at ``full[i]``; otherwise cold.
    Returns the retained indices, or None when cold re-solves of every
    vertex on them do not reproduce ``full``."""

    def matches(subset, vertices, seeded) -> bool:
        for i in vertices:
            z = prog.solve_vertex(i, subset, full[i] if seeded else None)
            if z is None:
                raise InfeasibleOnSubsample(
                    f"vertex {i} infeasible on a subsample; determinism fault"
                )
            if np.max(np.abs(z - full[i])) > SOLUTION_TOL:
                return False
        return True

    keep = np.ones(prog.K, dtype=bool)
    untested = 0  # the samples from here on have not been visited
    for j in np.flatnonzero(touches.any(axis=0)).tolist():
        keep[untested : j + 1] = False  # j, and the untouched samples before it
        if not matches(np.flatnonzero(keep), np.flatnonzero(touches[:, j]), seeded):
            keep[j] = True
        untested = j + 1
    keep[untested:] = False
    retained = np.flatnonzero(keep).tolist()
    return retained if matches(retained, range(prog.N), False) else None
