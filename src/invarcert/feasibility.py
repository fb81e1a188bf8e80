"""Minor-enumeration feasibility checks for the vertex constraint blocks.

For one sample the vertex block ``{u : G u <= l}`` with
``G = col(H, F B)`` is nonempty iff some invertible m-by-m row submatrix
``G_I`` exists whose basic point ``G_I^{-1} l_I`` satisfies the remaining
rows.  Exhaustively enumerating the m-row subsets therefore decides
feasibility exactly (single sample) and gives a necessary condition when
quantified over all samples: one failing (vertex, sample) pair certifies
that no common policy exists, while passing proves nothing beyond the
per-sample blocks.  Both checks refuse a block of more than
:data:`ENUMERATION_CAP` row subsets before enumerating any.

The vertex blocks of a sample share ``G``, so one scan per sample walks
the lexicographic subsets for all of them, in slices of at most about
:data:`SLICE_FLOATS` floats per temporary: one stacked ``det`` over the
slice's minors, one stacked ``solve`` of each nonsingular minor against
each pending vertex (one right-hand side per pair) and one residual
product.  Each gives the bits of its one-minor call, so every vertex
keeps the first satisfying minor and the witness bytes of a loop over
the subsets.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArguments
from .geometry import DEFAULT_TOL, Polytope
from .scenario import chunks, vertex_constraints

DET_TOL = 1e-10
ENUMERATION_CAP = 1_000_000  # row subsets per vertex block
SLICE_FLOATS = 15_000  # floats per temporary of one slice of the scan


@dataclass(frozen=True)
class MinorWitness:
    """Invertible row minor certifying feasibility of one vertex block."""

    vertex: int
    sample: int
    input_rows: tuple  # indices into the rows of H
    image_rows: tuple  # indices into the rows of F B
    submatrix: np.ndarray  # (m, m)
    point: np.ndarray  # submatrix^{-1} l restricted to the chosen rows


@dataclass(frozen=True)
class SingleSampleResult:
    witnesses: tuple  # one MinorWitness per vertex when feasible
    failed_vertex: int | None = None

    @property
    def feasible(self) -> bool:
        return self.failed_vertex is None


@dataclass(frozen=True)
class MultisampleResult:
    first_failure: tuple | None = None  # (vertex, sample)

    @property
    def passed(self) -> bool:
        return self.first_failure is None


@functools.lru_cache(maxsize=4)
def _subsets(rows: int, m: int) -> np.ndarray:
    """The m-row subsets of ``rows`` rows in lexicographic order, (C, m)."""
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(rows), m)), dtype=np.intp
    ).reshape(-1, m)
    subsets.flags.writeable = False
    return subsets


def _scan(G, l) -> tuple[np.ndarray, np.ndarray, int | None]:
    """First (lexicographic) satisfying minor of every vertex block
    ``G u <= l[i]`` of one sample: its index into :func:`_subsets`, or -1
    where the block is empty, its basic point, (N,) and (N, m), and the
    first vertex with an empty block (or None)."""
    total, m = G.shape
    N = l.shape[0]
    subsets = _subsets(total, m)
    first = np.full(N, -1)
    points = np.zeros((N, m))
    pending = np.arange(N)
    step = max(1, SLICE_FLOATS // (N * max(total, m * m)))
    # the minors and pairs past a vertex's witness, which a loop never
    # reaches, warn of nothing
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, subsets.shape[0], step):
            rows = subsets[lo : lo + step]
            minors = G[rows]
            # LU with partial pivoting underlies both the det and the solve; a
            # NaN determinant is not singular, as in a one-minor test
            good = np.flatnonzero(~(np.abs(np.linalg.det(minors)) <= DET_TOL))
            if not good.size:
                continue
            rows = rows[good]
            P = pending.size
            # pair (minor j, vertex pending[v]) at j * P + v
            rhs = l[pending[None, :, None], rows[:, None, :]].reshape(-1, m, 1)
            pts = np.linalg.solve(np.repeat(minors[good], P, axis=0), rhs)
            # one matrix-vector product per pair keeps the bits of ``G @ point``
            # (a matrix product over all the points rounds differently)
            residual = (G @ pts).reshape(good.size, P, total) - l[pending]
            residual[np.arange(good.size)[:, None], :, rows] = 0.0
            ok = np.all(residual <= DEFAULT_TOL, axis=2)
            hit = np.flatnonzero(ok.any(axis=0))
            j = ok[:, hit].argmax(axis=0)
            first[pending[hit]] = lo + good[j]
            points[pending[hit]] = pts.reshape(good.size, P, m)[j, hit]
            pending = np.delete(pending, hit)
            if not pending.size:
                break
    return first, points, (int(pending[0]) if pending.size else None)


def _enumerable(family, S, U) -> int:
    """Number of input rows ``q``, after checking that the enumeration
    applies (n >= m) and that at most :data:`ENUMERATION_CAP` subsets per
    vertex are needed."""
    n, m = family.n, family.m
    if n < m:
        raise InvalidArguments(f"requires n >= m, got n={n}, m={m}")
    q, p = U.facet_count, S.facet_count
    if math.comb(q + p, m) > ENUMERATION_CAP:
        raise InvalidArguments(
            f"{math.comb(q + p, m)} row subsets exceed the cap of {ENUMERATION_CAP}"
        )
    return q


def single_sample_iff(
    family, S: Polytope, U: Polytope, delta, *, sample_index: int = 0
) -> SingleSampleResult:
    """Exact feasibility of the single-sample program by minor enumeration.

    Equivalent to LP feasibility of every vertex block; the returned
    witnesses carry the certifying basic points, each naming the sample as
    ``sample_index``, in vertex order up to the first infeasible block.
    ``delta`` is one draw of ``ell`` parameter values, and a refusal of the
    draw names it by ``sample_index``.  Requires n >= m and at most
    :data:`ENUMERATION_CAP` row subsets per vertex.
    """
    q = _enumerable(family, S, U)
    if np.ndim(delta) > 1 or np.size(delta) != family.ell:
        raise DimensionMismatch(
            f"expected one draw of {family.ell} parameter values, got shape {np.shape(delta)}"
        )
    G, l = vertex_constraints(family, S, U, np.reshape(delta, (1, -1)), sample_index)
    first, points, failed = _scan(G[0], l[0])
    witnesses = tuple(
        MinorWitness(
            vertex=i,
            sample=sample_index,
            input_rows=tuple(int(k) for k in subset if k < q),
            image_rows=tuple(int(k) - q for k in subset if k >= q),
            submatrix=G[0][subset],
            point=points[i],
        )
        for i, subset in enumerate(_subsets(*G[0].shape)[first[:failed]])
    )
    return SingleSampleResult(witnesses=witnesses, failed_vertex=failed)


def multisample_necessary(family, S: Polytope, U: Polytope, scenarios) -> MultisampleResult:
    """Necessary condition for the joint scenario program over all samples.

    Fails (with the first failing (vertex, sample) pair) as soon as one
    sample's block is infeasible, which certifies the joint program empty.
    Passing does NOT certify joint feasibility: a shared affine policy may
    still not exist even when every sample is individually controllable.
    The enumeration bounds of :func:`single_sample_iff` apply.
    """
    _enumerable(family, S, U)
    for lo, hi in chunks(scenarios.K):
        G, l = vertex_constraints(family, S, U, scenarios.samples[lo:hi], lo)
        for k in range(G.shape[0]):
            failed = _scan(G[k], l[k])[2]
            if failed is not None:
                return MultisampleResult(first_failure=(failed, lo + k))
    return MultisampleResult()
