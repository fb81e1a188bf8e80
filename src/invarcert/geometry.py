"""Dual-representation polytopes with the origin in their interior.

A :class:`Polytope` carries both a facet matrix ``F`` (half-space form
``F x <= 1``, unit right-hand side) and an explicit vertex list.  The two
representations are validated against each other, within
:data:`DEFAULT_TOL`, rather than converted: facet/vertex enumeration is
exponential in general, and every routine in this package needs both
forms anyway.

Besides membership tests, the module provides the gauge function
``minkowski_gauge`` (smallest ``lam >= 0`` with ``x in lam * P``), the
minimal vertex decomposition used by the vertex control law, and the
per-facet inverses that make that decomposition explicit on simplicial
facets (:func:`facet_simplices`).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lp_core
from .errors import DimensionMismatch, InvarcertError

DEFAULT_TOL = 1e-8


class PolytopeError(InvarcertError, ValueError):
    """Base class for polytope validation failures."""


class RankDeficientFacets(PolytopeError):
    pass


class VertexOutsideFacets(PolytopeError):
    def __init__(self, vertex: int, row: int, slack: float):
        self.vertex, self.row, self.slack = vertex, row, slack
        super().__init__(
            f"vertex {vertex} violates facet row {row} by {slack:.3e}"
        )


class UnsupportedFacet(PolytopeError):
    def __init__(self, row: int, reach: float):
        self.row, self.reach = row, reach
        super().__init__(
            f"facet row {row} is never tight (max F x over vertices = {reach:.6g} < 1)"
        )


class OriginNotInterior(PolytopeError):
    pass


class PolytopeValidationError(PolytopeError):
    """Aggregates every violated invariant found during validation."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__(
            "; ".join(str(issue) for issue in self.issues) or "invalid polytope"
        )


class DecompositionInfeasible(InvarcertError):
    pass


@dataclass(frozen=True)
class FacetSimplices:
    """Per-facet data of the explicit vertex decomposition.

    Facet ``k`` is a simplex when exactly ``n`` vertices are tight on it
    and they are affinely independent; then ``vertices[k]`` holds their
    indices and ``inverses[k]`` is ``V_k^{-1}``, where the columns of
    ``V_k`` are those vertices.  Rows of non-simplicial facets are zero.
    """

    simplex: np.ndarray  # (p,) bool
    vertices: np.ndarray  # (p, n) int
    inverses: np.ndarray  # (p, n, n)


@dataclass(frozen=True)
class Polytope:
    """C-polytope ``{x | F x <= 1}`` together with its vertex list.

    Instances are produced by :func:`validate_polytope` or :func:`box` and
    are immutable afterwards; the arrays are marked read-only so values can
    be shared freely across threads.  The pivot-path cache of
    :attr:`decomposition_lp` only grows, and a node enters it only once
    fully built, so a thread never reads a half-built node.
    """

    facets: np.ndarray  # (p, n)
    vertices: np.ndarray  # (N, n)

    @property
    def dim(self) -> int:
        return self.facets.shape[1]

    @property
    def facet_count(self) -> int:
        return self.facets.shape[0]

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def decomposition_lp(self) -> lp_core.LinearProgram:
        """The LP of :func:`vertex_decompose`, built once: minimize
        ``sum(gamma)`` subject to ``vertices.T @ gamma = x``, ``gamma >= 0``,
        as the rows ``V.T`` then ``-V.T`` with right-hand side ``x`` then
        ``-x``, here at ``x = 0``; a state only replaces the right-hand side."""
        V = self.vertices
        return lp_core.LinearProgram(
            c=np.ones(len(V)), A_in=np.vstack([V.T, -V.T]), b_in=np.zeros(2 * self.dim)
        )

    @cached_property
    def facet_simplices(self) -> FacetSimplices:
        """Which facets are simplices, their vertices and ``V_k^{-1}``,
        built once.

        For ``x`` in the cone of a simplicial facet ``k`` (``k`` maximizes
        ``F x``), ``V_k^{-1} x`` is the minimal vertex decomposition of
        ``x`` on that facet's vertices (Gutman & Cwikel, IEEE TAC 1986): it
        is nonnegative and sums to ``(F x)_k``, the gauge.
        """
        n, p = self.dim, self.facet_count
        tight = np.abs(self.facets @ self.vertices.T - 1.0) <= DEFAULT_TOL  # (p, N)
        simplex = tight.sum(axis=1) == n
        vertices = np.zeros((p, n), dtype=int)
        vertices[simplex] = np.nonzero(tight[simplex])[1].reshape(-1, n)
        bases = np.broadcast_to(np.eye(n), (p, n, n)).copy()
        bases[simplex] = self.vertices[vertices[simplex]].transpose(0, 2, 1)
        # affinely independent: the unit-column determinant is clear of zero
        units = bases / np.linalg.norm(bases, axis=1, keepdims=True)
        simplex &= np.abs(np.linalg.det(units)) > 1e-12
        inverses = np.zeros((p, n, n))
        inverses[simplex] = np.linalg.inv(bases[simplex])
        vertices[~simplex] = 0
        for a in (simplex, vertices, inverses):
            a.setflags(write=False)
        return FacetSimplices(simplex=simplex, vertices=vertices, inverses=inverses)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def validate_polytope(facets, vertices) -> Polytope:
    """Validate a facet matrix (unit right-hand side, ``F x <= 1``) and a
    vertex list against each other, within :data:`DEFAULT_TOL`, and return
    a Polytope.

    A non-finite facet row or vertex is refused first, by a
    :class:`PolytopeError` naming it.  On any other failure, raises the
    specific error when a single invariant is violated, or a
    :class:`PolytopeValidationError` listing all of them.
    """
    F = np.array(facets, dtype=float)
    X = np.array(vertices, dtype=float)
    if F.ndim != 2 or X.ndim != 2:
        raise DimensionMismatch("facets and vertices must be 2-d arrays")
    if F.shape[1] != X.shape[1]:
        raise DimensionMismatch(
            f"facet columns ({F.shape[1]}) != vertex dimension ({X.shape[1]})"
        )
    for what, M in (("facet row", F), ("vertex", X)):
        finite = np.isfinite(M).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise PolytopeError(f"{what} {row} is not finite: {M[row].tolist()}")

    issues = []
    n = F.shape[1]
    if np.linalg.matrix_rank(F) < n:
        issues.append(RankDeficientFacets(f"facet matrix rank < {n}"))

    values = X @ F.T  # (N, p)
    over = values - 1.0
    for v, k in zip(*np.nonzero(over > DEFAULT_TOL)):
        issues.append(VertexOutsideFacets(int(v), int(k), float(over[v, k])))

    reach = values.max(axis=0)
    for k in np.flatnonzero(reach < 1.0 - DEFAULT_TOL):
        issues.append(UnsupportedFacet(int(k), float(reach[k])))

    if not _origin_in_hull(X):
        issues.append(OriginNotInterior("origin is not in the vertex hull"))

    if issues:
        raise issues[0] if len(issues) == 1 else PolytopeValidationError(issues)
    return Polytope(facets=_freeze(F), vertices=_freeze(X))


def _origin_in_hull(X: np.ndarray) -> bool:
    # 0 = sum lam_i x_i with lam >= 0, sum lam = 1, checked by LP phase 1;
    # each equality is two opposite rows
    A = np.vstack([X.T, np.ones((1, len(X)))])
    b = np.concatenate([np.zeros(X.shape[1]), [1.0]])
    lp = lp_core.LinearProgram(
        c=np.zeros(len(X)), A_in=np.vstack([A, -A]), b_in=np.hstack([b, -b])
    )
    return lp_core.solve(lp).is_optimal


def box(lower, upper) -> Polytope:
    """Axis-aligned box with both representations, origin strictly inside.

    Requires ``lower < 0 < upper`` componentwise so the unit-RHS facet form
    exists.  Vertices are ordered as ``itertools.product`` of the per-axis
    (lower, upper) pairs.
    """
    lo = np.asarray(lower, dtype=float).ravel()
    hi = np.asarray(upper, dtype=float).ravel()
    if lo.size != hi.size:
        raise DimensionMismatch("lower and upper lengths differ")
    if np.any(lo >= 0) or np.any(hi <= 0):
        raise OriginNotInterior("box must satisfy lower < 0 < upper")
    n = lo.size
    F = np.vstack([np.diag(1.0 / hi), np.diag(1.0 / lo)])
    verts = np.array(list(itertools.product(*zip(lo, hi))), dtype=float)
    return Polytope(facets=_freeze(F), vertices=_freeze(verts))


def contains(P: Polytope, x) -> bool:
    """True iff ``F x <= 1 + DEFAULT_TOL`` componentwise."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != P.dim:
        raise DimensionMismatch(f"point has dimension {x.size}, expected {P.dim}")
    return bool(np.all(P.facets @ x <= 1.0 + DEFAULT_TOL))


def minkowski_gauge(P: Polytope, x) -> float:
    """Gauge of ``x``: max(0, max_k (F x)_k).  <= 1 exactly on ``P``."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != P.dim:
        raise DimensionMismatch(f"point has dimension {x.size}, expected {P.dim}")
    return float(max(0.0, (P.facets @ x).max()))


def vertex_decompose(P: Polytope, x, *, inside: bool = False) -> np.ndarray:
    """Minimal-weight vertex decomposition of a point of ``P``, or of every
    row of a stack of points (N, n).

    Returns ``gamma >= 0`` with ``sum_i gamma_i vertex_i = x`` and
    ``sum(gamma) = minkowski_gauge(P, x)``, one row per point of a stack;
    ties are settled by the LP core's deterministic pivoting.  The bound
    ``gamma_i <= 1`` is implied by the gauge being <= 1 and is not imposed
    explicitly.  All the points are decomposed as one stack of
    :func:`lp_core._solve_stack` lanes, whose ``z`` rows are read directly.
    A point outside ``P`` (``F x > 1 + DEFAULT_TOL``) raises
    :class:`DecompositionInfeasible`, and so does a point whose LP is not
    solved to its optimum: that LP is always feasible and bounded (the
    origin is interior, so the vertices' cone is all of R^n, and
    ``sum(gamma) >= 0``), so any other outcome is a numerical fault.
    ``inside=True`` skips the outside test, for a caller that has just made
    it on the same ``F x``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim < 2
    X = x.reshape(1, -1) if single else x
    if X.ndim != 2 or X.shape[1] != P.dim:
        raise DimensionMismatch(
            f"points have shape {x.shape}, expected ({P.dim},) or (N, {P.dim})"
        )
    if not inside:
        outside = P.facets @ X[:, :, None] > 1.0 + DEFAULT_TOL
        if outside.any():
            which = "point" if single else f"point {outside.any(axis=(1, 2)).argmax()}"
            raise DecompositionInfeasible(f"{which} outside polytope beyond tol={DEFAULT_TOL}")
    Z, _, _, alone = lp_core._solve_stack(P.decomposition_lp, np.concatenate((X, -X), axis=1))
    for row, outcome in alone.items():
        if not outcome.is_optimal:
            which = "the point" if single else f"point {row}"
            raise DecompositionInfeasible(f"decomposition LP of {which} is {outcome.status.value}")
    gamma = np.maximum(Z, 0.0, out=Z)
    return gamma[0] if single else gamma
