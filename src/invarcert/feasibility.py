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
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArguments
from .geometry import DEFAULT_TOL, Polytope
from .scenario import chunks, vertex_constraints

DET_TOL = 1e-10
ENUMERATION_CAP = 1_000_000  # row subsets per vertex block


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


def _check_vertex(G, l, q, vertex, sample) -> MinorWitness | None:
    """First (lexicographic) satisfying minor of one vertex block, or None."""
    total, m = G.shape
    for subset in itertools.combinations(range(total), m):
        sub = G[list(subset)]
        # LU with partial pivoting underlies both the det and the solve
        if abs(np.linalg.det(sub)) <= DET_TOL:
            continue
        point = np.linalg.solve(sub, l[list(subset)])
        residual = G @ point - l
        residual[list(subset)] = 0.0
        if np.all(residual <= DEFAULT_TOL):
            return MinorWitness(
                vertex=vertex,
                sample=sample,
                input_rows=tuple(k for k in subset if k < q),
                image_rows=tuple(k - q for k in subset if k >= q),
                submatrix=sub,
                point=point,
            )
    return None


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


def _check_sample(G, l, q, sample) -> tuple[tuple, int | None]:
    """Witnesses of the vertex blocks ``G u <= l[i]`` of one sample, in
    vertex order up to the first infeasible one, and that vertex (or None)."""
    witnesses = []
    for i in range(l.shape[0]):
        w = _check_vertex(G, l[i], q, vertex=i, sample=sample)
        if w is None:
            return tuple(witnesses), i
        witnesses.append(w)
    return tuple(witnesses), None


def single_sample_iff(
    family, S: Polytope, U: Polytope, delta, *, sample_index: int = 0
) -> SingleSampleResult:
    """Exact feasibility of the single-sample program by minor enumeration.

    Equivalent to LP feasibility of every vertex block; the returned
    witnesses carry the certifying basic points, each naming the sample as
    ``sample_index``.  Requires n >= m and at most :data:`ENUMERATION_CAP`
    row subsets per vertex.
    """
    q = _enumerable(family, S, U)
    G, l = vertex_constraints(family, S, U, np.reshape(delta, (1, -1)))
    witnesses, failed = _check_sample(G[0], l[0], q, sample_index)
    return SingleSampleResult(witnesses=witnesses, failed_vertex=failed)


def multisample_necessary(family, S: Polytope, U: Polytope, scenarios) -> MultisampleResult:
    """Necessary condition for the joint scenario program over all samples.

    Fails (with the first failing (vertex, sample) pair) as soon as one
    sample's block is infeasible, which certifies the joint program empty.
    Passing does NOT certify joint feasibility: a shared affine policy may
    still not exist even when every sample is individually controllable.
    The enumeration bounds of :func:`single_sample_iff` apply.
    """
    q = _enumerable(family, S, U)
    for lo, hi in chunks(scenarios.K):
        G, l = vertex_constraints(family, S, U, scenarios.samples[lo:hi], lo)
        for k in range(G.shape[0]):
            _, failed = _check_sample(G[k], l[k], q, lo + k)
            if failed is not None:
                return MultisampleResult(first_failure=(failed, lo + k))
    return MultisampleResult()
