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
from functools import cached_property

import numpy as np

from . import lp_core
from .errors import DimensionMismatch, InvalidArguments, InvarcertError, NumericalBreakdown
from .geometry import DEFAULT_TOL, Polytope
from .system_family import NonFiniteParameter, UnknownSample

SOLUTION_TOL = 1e-6
_CG_BATCH = 8  # violated rows added per constraint-generation round
_ACTIVE_TOL = 1e-7  # slack below this marks a sample as potentially supporting
_KEEP_MARGIN = 2.0  # a keep certificate's bound must clear SOLUTION_TOL by this factor
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


class MismatchedFingerprints(InvarcertError):
    """A policy with no scenario program, or paired with scenarios it was not synthesized from."""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class UniformBox:
    """Uniform product distribution on the box [lower, upper]; every entry
    needs a finite width ``upper - lower``."""

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = np.array(lower, dtype=float).ravel()
        hi = np.array(upper, dtype=float).ravel()
        if lo.size != hi.size:
            raise DimensionMismatch("lower and upper lengths differ")
        if np.any(lo > hi):
            raise InvalidArguments("lower must be <= upper componentwise")
        with np.errstate(over="ignore", invalid="ignore"):
            wide = np.flatnonzero(~np.isfinite(hi - lo))
        if wide.size:
            i = wide[0]
            raise InvalidArguments(
                f"uniform box entry {i} is [{lo[i]}, {hi[i]}], whose width is not finite"
            )
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
            raise InvalidArguments("samples must be a nonempty (K, ell) array")
        finite = np.isfinite(s).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise InvalidArguments(f"sample {bad} is not finite: {s[bad].tolist()}")
        if isinstance(self.distribution, UniformBox):
            if self.distribution.dim != s.shape[1]:
                raise DimensionMismatch("distribution dimension != sample dimension")
            if np.any(s < self.distribution.lower - 1e-12) or np.any(
                s > self.distribution.upper + 1e-12
            ):
                raise InvalidArguments("samples fall outside the declared uniform box")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def from_uniform_box(cls, lower, upper, count: int, seed: int) -> "ScenarioSet":
        dist = UniformBox(lower, upper)
        rng = np.random.default_rng(seed)
        return cls(samples=dist.draw(count, rng), distribution=dist, seed=seed)

    @classmethod
    def from_csv(cls, path) -> "ScenarioSet":
        """Samples from a CSV file, one per row, after an optional byte-order
        mark and header line; ``#`` starts a comment, and a line blank
        without it is skipped.  A bad file is named with the line (counting
        header, blank and comment lines) and column at fault."""
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.read().splitlines() or [""]
        except UnicodeDecodeError as exc:
            raise InvalidArguments(f"scenarios file {path} is not UTF-8: {exc}") from None
        skip = 0
        try:
            [float(tok) for tok in lines[0].split("#")[0].replace(",", " ").split()]
        except ValueError:
            skip = 1  # header line
        # (line number, text before any comment) of each sample row
        rows = [(n, line.split("#")[0]) for n, line in enumerate(lines, 1) if n > skip]
        rows = [(n, text) for n, text in rows if text.strip()]
        if not rows:
            raise InvalidArguments(f"{path}: no sample rows (the file is empty or only a header)")
        (first, width), *rest = [(n, text.count(",") + 1) for n, text in rows]
        for n, w in rest:
            if w != width:
                raise InvalidArguments(
                    f"{path}: line {n} has {w} field(s) but line {first} has {width}"
                )

        def number(cell: str, n: int, k: int) -> float:
            try:
                return float(cell)
            except ValueError:
                raise InvalidArguments(
                    f"{path}: could not convert string {cell.strip()!r} to float "
                    f"at line {n}, column {k}"
                ) from None

        samples = [
            [number(cell, n, k) for k, cell in enumerate(text.split(","), 1)] for n, text in rows
        ]
        return cls(samples=samples)

    @property
    def K(self) -> int:
        return self.samples.shape[0]

    @property
    def ell(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def fingerprint(self) -> str:
        """Digest of the samples, which are read-only: taken once."""
        return _digest(self.samples)


@dataclass(frozen=True)
class AffinePolicy:
    """Per-vertex affine maps ``u_i(delta) = gains[i] @ delta + offsets[i]``."""

    gains: np.ndarray  # (N, m, ell)
    offsets: np.ndarray  # (N, m)
    scenario_fingerprint: str | None = None
    # the scenario program a synthesized policy solves, which greedy reduces
    # it on; None for any other policy, and it lives as long as the policy
    _program: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.array(self.gains, dtype=float)
        d = np.array(self.offsets, dtype=float)
        if g.ndim != 3 or d.ndim != 2 or g.shape[:2] != d.shape:
            raise DimensionMismatch("gains must be (N, m, ell) and offsets (N, m)")
        finite = np.isfinite(g).all(axis=(1, 2)) & np.isfinite(d).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise InvalidArguments(f"policy gains and offsets of vertex {bad} must be finite")
        g.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "offsets", d)

    @cached_property
    def fingerprint(self) -> str:
        """Digest of the gains and offsets, which are read-only: taken once."""
        return _digest(self.gains, self.offsets)

    def vertex_inputs(self, delta) -> np.ndarray:
        """Inputs at every vertex: (M, N, m) for a (M, ell) stack of draws,
        (N, m) for one draw, which is a stack of one.  The result is in C
        order, so its (M * N, m) rows are a view."""
        d = np.asarray(delta, dtype=float)
        ell = self.gains.shape[2]
        stack = d.ndim == 2 and d.shape[1] == ell
        D = d if stack else d.reshape(1, -1)
        if D.shape[1] != ell:
            raise DimensionMismatch(f"expected parameter of dimension {ell}, got {d.size}")
        products = (D @ self.gains.transpose(0, 2, 1)).transpose(1, 0, 2)
        U = np.add(products, self.offsets, out=np.empty(products.shape))
        return U if stack else U[0]


def _plants(family, S: Polytope, U: Polytope, deltas, first: int):
    """``family.instantiate_batch(deltas)``, checked against ``S`` and ``U``.
    ``first`` is the position of ``deltas[0]`` in the whole sample list; an
    :class:`UnknownSample` or a :class:`NonFiniteParameter` names its draw
    by that position."""
    try:
        A, B = family.instantiate_batch(deltas)
    except UnknownSample as exc:
        raise UnknownSample(first + exc.row, exc.value, exc.count) from None
    except NonFiniteParameter as exc:
        raise NonFiniteParameter(first + exc.row, exc.value, exc.what) from None
    if A.shape[1:] != (S.dim, S.dim) or B.shape[1:] != (S.dim, U.dim):
        raise DimensionMismatch("family output does not match S and U")
    return A, B


def vertex_constraints(family, S: Polytope, U: Polytope, deltas, first: int = 0):
    """Input-space rows of every vertex block, for a (K, ell) stack of draws.

    Returns ``G`` (K, q+p, m), the rows ``col(H, F B(delta_k))``, and ``l``
    (K, N, q+p), the right-hand sides ``col(1, 1 - F A(delta_k) x_i)``:
    the input ``u`` at vertex ``x_i`` is admissible for draw k, that is it
    lies in ``U`` and maps the vertex into ``S``, iff ``G[k] u <= l[k, i]``.
    ``first`` is the position of ``deltas[0]`` in the whole sample list; an
    :class:`UnknownSample` or a :class:`NonFiniteParameter` names its draw
    by that position, and so does the refusal of a finite plant whose rows
    or right-hand sides overflow.
    """
    A, B = _plants(family, S, U, deltas, first)
    q = U.facet_count
    G = np.empty((A.shape[0], q + S.facet_count, U.dim))
    G[:, :q] = U.facets
    l = np.ones((A.shape[0], S.vertex_count, q + S.facet_count))
    with np.errstate(over="ignore", invalid="ignore"):
        G[:, q:] = S.facets @ B
        l[:, :, q:] -= (S.facets @ A @ S.vertices.T).transpose(0, 2, 1)
    finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(l).all(axis=(1, 2))
    if not finite.all():
        row = int(finite.argmin())
        value = np.asarray(deltas, dtype=float)[row].tolist()
        raise NonFiniteParameter(first + row, value, "gives non-finite constraint rows")
    return G, l


def is_admissible(family, S: Polytope, U: Polytope, delta, u, *, first: int = 0):
    """True iff every vertex input lies in ``U`` and maps its vertex into ``S``,
    within :data:`geometry.DEFAULT_TOL`: ``H u_i <= 1`` and
    ``F (A x_i + B u_i) <= 1`` for every vertex ``x_i``.

    ``delta`` is one draw with vertex inputs ``u`` (N, m), or a (M, ell)
    stack of draws with inputs (M, N, m), which gives a boolean mask (M,).
    ``first`` is as in :func:`vertex_constraints`.  The images of all
    vertices under all draws are formed at once: ``A X^T`` as one product
    over the stacked rows of every ``A``, then ``B u`` as m multiply-adds.
    """
    deltas = np.atleast_2d(np.asarray(delta, dtype=float))
    A, B = _plants(family, S, U, deltas, first)
    M, n = A.shape[:2]
    u = np.asarray(u, dtype=float)
    if u.size != M * S.vertex_count * U.dim:
        expected = (M, S.vertex_count, U.dim)
        raise DimensionMismatch(f"vertex inputs have shape {u.shape}, not (M, N, m) = {expected}")
    u = u.reshape(M, S.vertex_count, U.dim)
    images = (A.reshape(M * n, n) @ S.vertices.T).reshape(M, n, -1)  # column i: A x_i
    for a in range(U.dim):
        images += B[:, :, a, None] * u[:, None, :, a]
    bound = 1.0 + DEFAULT_TOL
    ok = np.all((S.facets @ images).reshape(M, -1) <= bound, axis=1)
    ok &= np.all((u.reshape(-1, U.dim) @ U.facets.T).reshape(M, -1) <= bound, axis=1)
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
    of ``z``.  :meth:`solve` runs the blocks' constraint generation in
    lockstep, one product with the shared rows per round.  Greedy
    re-solves, one vertex at a time, start from the rows active at the
    policy; synthesis and every cold check start from none.
    """

    def __init__(self, family, S, U, samples, affine=True):
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

    def solve(self, vertices, sample_indices, seeds=None) -> np.ndarray | None:
        """1-norm-minimal feasible points ``(len(vertices), dvar)`` of the
        listed vertex blocks on a subsample, or None when one is infeasible.

        Deterministic constraint generation: starting from the empty
        working set (solution 0), each round adds the rows chosen by
        :func:`_most_violated` -- the at most ``_CG_BATCH`` largest
        violations above ``lp_core.DEFAULT_FEAS_TOL``, ties going to the
        lowest position in the ordered sample list -- and re-solves with
        the dual simplex.  Given ``seeds``, a boolean mask shaped like
        ``rhs`` of the rows active at some point, each block's first
        working set is instead its first ``dvar`` seed rows in the
        subsample; the rounds then go on as above.  More than ``dvar``
        rows are active only at a degenerate point; the rest would cost
        pivots, and the rounds add any of them that is violated.

        The blocks run their rounds in lockstep: they share ``rows``, so a
        round is one product of the live blocks' points with the rows,
        into one buffer, from which each block subtracts its own
        right-hand side in place.  The product of one block is the
        matrix-vector product bit for bit; several blocks may round
        differently in the last bit.  The subsample's rows are taken once.
        Samples forming one increasing run, as in synthesis, are a view of
        the stored rows: the same product as on their gathered copy.  Any
        other subsample is gathered, because BLAS may compute the last few
        rows of a product with another kernel, so its rows read within the
        full matrix could round differently.
        """
        take = np.asarray(sample_indices, dtype=int)
        Z = np.zeros((len(vertices), self.dvar))
        if take.size == 0:
            return Z
        if np.all(np.diff(take) == 1):
            take = slice(int(take[0]), int(take[-1]) + 1)
        A = self.rows[take].reshape(-1, self.dvar)
        b = [self.rhs[i, take].reshape(-1) for i in vertices]
        working = [[] for _ in vertices]

        def enforce(k) -> bool:  # re-solve block k on its working rows
            z = self._solve_working(A[working[k]], b[k][working[k]])
            if z is not None:
                Z[k] = z
            return z is not None

        for k, i in enumerate(vertices):
            if seeds is not None:
                working[k] = np.flatnonzero(seeds[i, take])[: self.dvar].tolist()
            if working[k] and not enforce(k):
                return None
        live = list(range(len(vertices)))
        viol = np.empty((len(vertices), A.shape[0]))
        for _ in range(A.shape[0] + 1):
            products = viol[: len(live)]
            np.matmul(Z[live], A.T, out=products)
            still = []
            for v, k in zip(products, live):
                v -= b[k]
                v[working[k]] = -np.inf  # already enforced exactly
                batch = _most_violated(v)
                if batch.size:
                    working[k].extend(batch)
                    if not enforce(k):
                        return None
                    still.append(k)
            if not still:
                return Z
            live = still
        raise NumericalBreakdown("constraint generation failed to converge")

    def _solve_working(self, A_w: np.ndarray, b_w: np.ndarray) -> np.ndarray | None:
        """1-norm-minimal ``z`` with ``A_w z <= b_w``, or None.  The cost
        of ``p`` and ``q`` is positive, so no optimum has both ``p_k`` and
        ``q_k`` positive, and the dual simplex (:func:`lp_core.solve_dual`)
        starts from the all-slack basis with no phase 1."""
        d = self.dvar
        lp = lp_core.LinearProgram(c=np.ones(2 * d), A_in=np.hstack([A_w, -A_w]), b_in=b_w)
        outcome = lp_core.solve_dual(lp)
        if outcome.status is lp_core.LpStatus.INFEASIBLE:
            return None
        if not outcome.is_optimal:  # a numerical fault: the objective is bounded below
            raise NumericalBreakdown(f"unexpected LP status {outcome.status}")
        return outcome.z[:d] - outcome.z[d:]

    def diagnose(self) -> tuple[int, int, int]:
        """First (sample, vertex, row) triple at which the program fails.

        Prefix feasibility is monotone in the ordered sample list, so the
        first breaking sample is found by bisection; the reported row is
        the most violated one of that sample's block at the solution of
        the prefix without it.  Each prefix is solved one vertex at a time,
        up to the first infeasible one: in lockstep every vertex would run
        until that one fails.
        """
        lo, hi = 0, self.K  # prefix [:lo] feasible, [:hi] infeasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if all(self.solve([i], range(mid)) is not None for i in range(self.N)):
                lo = mid
            else:
                hi = mid
        culprit = hi - 1
        vertex = next(i for i in range(self.N) if self.solve([i], range(hi)) is None)
        Z = self.solve([vertex], range(culprit))
        if Z is None:  # a numerical fault: the prefix was verified feasible
            raise NumericalBreakdown("diagnosis lost feasibility")
        block = self.rows[culprit] @ Z[0] - self.rhs[vertex, culprit]
        return culprit, vertex, int(np.argmax(block))


def _most_violated(viol: np.ndarray) -> np.ndarray:
    """Positions of the at most ``_CG_BATCH`` largest entries of ``viol``
    above ``lp_core.DEFAULT_FEAS_TOL``, largest first, ties to the lowest position.

    Only the candidates above that tolerance at or above the
    ``_CG_BATCH``-th largest of them (found by a partition) are sorted:
    each of them ranks above every other entry, ties at that place
    included, and they are taken in increasing position, so the stable
    sort picks exactly the rows a stable sort of all of ``viol`` would.
    """
    cand = np.flatnonzero(viol > lp_core.DEFAULT_FEAS_TOL)
    if cand.size > _CG_BATCH:
        top = viol[cand]
        cand = cand[top >= np.partition(top, -_CG_BATCH)[-_CG_BATCH]]
    return cand[np.argsort(-viol[cand], kind="stable")[:_CG_BATCH]]


def _solve_program(prog: _BlockProgram, what: str) -> np.ndarray:
    """Per-vertex solutions of the whole program, or :class:`Infeasible`
    with the first violated triple and ``what`` naming the missing object."""
    Z = prog.solve(range(prog.N), range(prog.K))
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


def greedy_support_subsample(policy: AffinePolicy) -> list[int]:
    """Single-pass greedy support subsample of the program ``policy`` solves.

    ``policy`` is reduced on the scenario program that
    :func:`solve_affine_policy` built and kept with it; a policy without
    one (loaded from a file, built by hand or made by
    ``dataclasses.replace``) raises :class:`MismatchedFingerprints` before
    any re-solve.  Scans samples in ascending order; a sample is discarded
    when re-solving without it reproduces the policy within
    :data:`SOLUTION_TOL` (max-norm over all policy entries).  Returns the
    retained indices (increasing); re-solving on exactly that subsample
    reproduces the policy, which is verified before returning.

    Samples whose constraint rows are all strictly slack (by at least
    :data:`_ACTIVE_TOL`) at the policy cannot move the 1-norm optimum of
    any vertex block; they are discarded without a re-solve, and the final
    verification guards the shortcut.  A touched sample is kept without a
    re-solve when a keep certificate (:func:`_certifies_keep`) of a vertex
    it touches proves that the re-solve would move that vertex by more
    than :data:`SOLUTION_TOL`; the vertices are tried in order, each with
    its slack at hand, before the pass.  A certificate depends only on the
    full program without the sample, never on earlier drops.  A sample
    whose removal leaves more than ``dvar`` rows of the vertex active sits
    at a degenerate point and gets no certificate there.  Re-solves
    touching only the affected vertices, one vertex at a time, decide the
    rest; each starts constraint generation from the subsample's rows that
    are active (slack below :data:`_ACTIVE_TOL`) at the policy for its
    vertex, at most ``dvar`` of them, read from one mask of the rows
    active at the policy (see :meth:`_BlockProgram.solve`).  The final
    verification solves every vertex, cold.  If it fails, the literal pass
    re-solves every vertex for every removal, cold, with no certificate.
    A re-solve that is infeasible on a subsample, or a policy that neither
    pass reproduces, is a determinism fault and raises
    :class:`NumericalBreakdown`.
    """
    prog = policy._program
    if prog is None:
        raise MismatchedFingerprints("policy was not synthesized by solve_affine_policy")
    full = np.hstack([policy.gains.reshape(prog.N, -1), policy.offsets])

    # the (vertex, sample, row) triples active at the full solution, one
    # matrix-vector product per vertex into one reused slack buffer, and the
    # keep certificates of each vertex while its slack is at hand
    rows = prog.rows.reshape(-1, prog.dvar)
    active = np.empty(prog.rhs.shape, dtype=bool)
    touches = np.empty((prog.N, prog.K), dtype=bool)
    slack = np.empty(rows.shape[0])
    reach = max(rows.max(), -rows.min())  # |row @ d| <= reach * ||d||_1 for every row
    kept = set()
    for i in range(prog.N):
        np.matmul(rows, full[i], out=slack)
        np.subtract(prog.rhs[i].reshape(-1), slack, out=slack)
        np.less(slack.reshape(prog.K, -1), _ACTIVE_TOL, out=active[i])
        at = np.flatnonzero(active[i])  # positions in rows
        counts = np.bincount(at // prog.block_rows, minlength=prog.K)
        np.greater(counts, 0, out=touches[i])
        # the samples whose removal leaves at most dvar rows active
        for j in np.flatnonzero(touches[i] & (at.size - counts <= prog.dvar)).tolist():
            if j not in kept and _certifies_keep(prog, full[i], slack, at, j, reach):
                kept.add(j)

    retained = _reduce(prog, full, touches, seeds=active, kept=kept)
    if retained is None:
        # shortcut assumptions failed (ties between optima); literal pass
        retained = _reduce(prog, full, np.ones_like(touches))
    if retained is None:  # a numerical fault: the policy solves this program
        raise NumericalBreakdown("policy is not the solution of this scenario program")
    return retained


def _certifies_keep(prog, x, slack, at, j, reach) -> bool:
    """True when removing sample ``j`` provably moves the solution ``x`` of
    one vertex block by more than :data:`SOLUTION_TOL`, so greedy keeps it.

    ``slack`` is ``b - A x`` over all rows of the block, ``at`` the
    positions of the rows active at ``x``, at most ``dvar`` of them outside
    ``j``, and ``reach`` the largest entry magnitude of the rows.  A small
    LP gives an improving direction ``d``: the least directional derivative
    of ``||z||_1`` at ``x`` over ``||d||_1 <= 1`` with ``A_act d <= 0`` on
    the active rows outside ``j``.  Then ``y = x + t d`` steps as far as
    the other rows outside ``j`` allow, up to the first kink of
    ``||x + t d||_1`` and to twice the step the threshold needs; a row
    moves by at most ``reach * t``, so only the rows with less slack than
    that are multiplied with ``d``.  ``y`` meets every row but ``j``'s, so
    it is feasible for every subsample greedy can reach without ``j``, and
    the re-solve there, optimal on rows of that subsample, has a 1-norm of
    at most ``||y||_1``.  Its max-norm distance to ``x`` is then at least
    ``(||x||_1 - ||y||_1) / dvar``; the certificate holds when that bound
    is above ``_KEEP_MARGIN`` times :data:`SOLUTION_TOL`.  Any other
    outcome, a derivative that would need a step of 2 or more among them,
    decides nothing.
    """
    dvar, width = prog.dvar, prog.block_rows
    rows = prog.rows.reshape(-1, dvar)
    A = rows[at[at // width != j]]
    # d = p - q, p, q >= 0: the derivative is sign(x_k) d_k, or |d_k| where x_k = 0
    sign = np.sign(x)
    lp = lp_core.LinearProgram(
        c=np.concatenate([sign, -sign]) + np.tile(sign == 0.0, 2),
        A_in=np.vstack([np.hstack([A, -A]), np.ones(2 * dvar)]),
        b_in=np.append(np.zeros(len(A)), 1.0),
    )
    outcome = lp_core.solve(lp)
    need = _KEEP_MARGIN * dvar * SOLUTION_TOL  # the 1-norm drop that decides
    if not outcome.is_optimal or not outcome.objective < -need:
        return False
    d = outcome.z[:dvar] - outcome.z[dvar:]
    t = 2.0 * need / -outcome.objective
    shrinking = x * d < 0.0
    t = min(t, (-x[shrinking] / d[shrinking]).min(initial=np.inf))
    # the inactive rows outside j that may stop the step before t
    near = np.flatnonzero(slack < reach * t)
    near = near[(slack[near] >= _ACTIVE_TOL) & (near // width != j)]
    rise = rows[near] @ d
    up = rise > 0.0
    t = min(t, (slack[near][up] / rise[up]).min(initial=np.inf))
    return np.abs(x).sum() - np.abs(x + t * d).sum() > need


def _reduce(prog, full, touches, seeds=None, kept=frozenset()) -> list[int] | None:
    """The one-removal-at-a-time pass: sample j is dropped when re-solving
    the vertices ``touches[:, j]`` marks, one at a time, without it and
    every sample dropped before, reproduces ``full`` within
    :data:`SOLUTION_TOL`.  A sample that touches no vertex is dropped
    without a re-solve, so only the touched samples are visited; a sample
    in ``kept`` (certified, see :func:`_certifies_keep`) is kept without
    one.  Each re-solve starts from the ``seeds`` rows (see
    :meth:`_BlockProgram.solve`), or cold without them.  Returns the
    retained indices, or None when a cold solve of every vertex on them
    fails or does not reproduce ``full``."""

    def matches(subset, vertices) -> bool:
        for i in vertices:
            Z = prog.solve([i], subset, seeds)
            if Z is None:
                raise NumericalBreakdown(
                    f"vertex {i} infeasible on a subsample; determinism fault"
                )
            if np.max(np.abs(Z[0] - full[i])) > SOLUTION_TOL:
                return False
        return True

    keep = np.ones(prog.K, dtype=bool)
    untested = 0  # the samples from here on have not been visited
    for j in np.flatnonzero(touches.any(axis=0)).tolist():
        keep[untested : j + 1] = False  # j, and the untouched samples before it
        if j in kept or not matches(np.flatnonzero(keep), np.flatnonzero(touches[:, j])):
            keep[j] = True
        untested = j + 1
    keep[untested:] = False
    retained = np.flatnonzero(keep).tolist()
    Z = prog.solve(range(prog.N), retained)
    return retained if Z is not None and np.max(np.abs(Z - full)) <= SOLUTION_TOL else None
