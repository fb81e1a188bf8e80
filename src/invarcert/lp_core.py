"""Deterministic dense linear-programming core.

A small two-phase tableau simplex.  Pricing picks the most negative
reduced cost and falls back to Bland's anti-cycling rule after
``_Tableau.stall_limit`` degenerate pivots; a solve takes at most
:func:`_max_iterations` pivots.  The solver is a pure function of its
input: fixed rules, no randomized perturbation, so repeated calls on
identical data return bit-identical solutions.  That determinism is what
the rest of the toolbox leans on to make policy synthesis single-valued.

Problem form::

    minimize    c @ z
    subject to  A_in @ z <= b_in
                z >= 0

This is the only form.  A caller states a free variable as the difference
of two columns, a finite bound as an inequality row and an equality as
two opposite rows (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, ch. 1).  Intended for small dense problems (hundreds
of rows); there is no sparse path.

:func:`solve_batch` solves a family of programs that differ only in
their right-hand side ``b_in`` (the vertex decomposition of
:mod:`invarcert.geometry`).  A tableau's reduced costs, entering column,
eligible pivot rows, pivot factors and basis matrix depend on the rows
flipped for a negative right-hand side and on the pivots made so far, not
on the right-hand side itself; only the ratio test and the basic values
do (ch. 5).  So a program keeps a pivot-path cache
(:attr:`LinearProgram._paths`): a tree of the tableaux that the lone solve
reaches (:class:`_Node`), one root per flip pattern, each node built once
from its parent.  A lane walks the tree on its own right-hand side, in
Python floats: per pivot one ratio test and one update of the right-hand
side with the operations of :meth:`_Tableau._pivot` (:func:`_walk`).  The
rest is shared with the lone solve, a stack of one: the basic solutions
(:func:`_solutions`), the phase-1 test (:func:`_infeasible`) and the
optimal finish (:func:`_finish`).  Any other lane (Bland's rule, the
iteration cap, a second-choice entering column, an unbounded or
infeasible program, a singular or non-finite basis solve, a primal
violation) is solved again from the start by :func:`solve` with its own
``b_in``.  So each outcome is bit for bit that of :func:`solve`, whatever
filled the cache before, and the rare rules live in one place.
"""

import copy
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MaxIterationsExceeded, NumericalBreakdown


DEFAULT_FEAS_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-11


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Dense LP data over nonnegative variables ``z >= 0``.

    The data must not be modified after construction: the pivot-path
    cache of :func:`solve_batch` is built from ``c`` and ``A_in`` and kept.
    """

    c: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A_in = np.asarray(self.A_in, dtype=float).reshape(-1, c.size)
        b_in = np.asarray(self.b_in, dtype=float).ravel()
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A_in", A_in)
        object.__setattr__(self, "b_in", b_in)
        if A_in.shape[0] != b_in.size:
            raise DimensionMismatch("A_in and b_in row counts differ")
        for block in (c, A_in, b_in):
            if not np.all(np.isfinite(block)):
                raise ValueError("LP data must be finite")

    @cached_property
    def _paths(self) -> dict:
        """The pivot-path cache of :func:`solve_batch`: the root
        :class:`_Node` of each flip pattern (as bytes), grown as lanes
        walk it; it only ever gains fully built nodes."""
        return {}


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    z: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


def _initial_tableau(T: np.ndarray, r: np.ndarray) -> "_Tableau":
    """Phase-1 tableau of ``T y <= r``.

    Rows with a negative right-hand side are flipped so the rhs column is
    >= 0; their slacks then enter with coefficient -1 and need artificials.
    """
    m, n = T.shape
    flip = r < 0
    sign = np.where(flip, -1.0, 1.0)
    n_art = int(flip.sum())
    # columns: structural body, slacks, artificials, right-hand side
    A = np.zeros((m, n + m + n_art + 1))
    np.multiply(T, sign[:, None], out=A[:, :n])
    diagonal = np.arange(m)
    A[diagonal, n + diagonal] = sign
    # the k-th flipped row gets the k-th artificial
    basis = np.where(flip, np.cumsum(flip) + (n + m - 1), n + diagonal)
    A[flip, basis[flip]] = 1.0
    np.multiply(r, sign, out=A[:, -1])
    return _Tableau(A, basis, n_art)


def _max_iterations(m: int, n: int) -> int:
    """The iteration cap of a solve on a standard form ``T`` of shape (m, n)."""
    return 200 * (m + n + 10)


class _Tableau:
    """Simplex tableau; every pivot choice is deterministic."""

    # entering / ratio-test eligibility floor; smaller pivots (down to
    # DEFAULT_PIVOT_TOL) are used only when nothing larger is available
    STABLE_PIVOT = 1e-9
    # consecutive non-improving iterations before switching to Bland's
    # rule; 0 means Bland throughout
    stall_limit = 40

    def __init__(self, A, basis, n_art):
        self.A = A
        # pristine copy for the final refactorized basis solve
        self.original = A.copy()
        self.basis = basis
        self.n_slack = A.shape[0]
        self.n_art = n_art
        self.n_struct = A.shape[1] - 1 - self.n_slack - n_art
        self.max_iterations = _max_iterations(self.n_slack, self.n_struct)
        self.iterations = 0

    @property
    def total_cols(self) -> int:
        return self.n_struct + self.n_slack + self.n_art

    @property
    def basis_matrix(self) -> np.ndarray:
        return self.original[:, self.basis]

    def copy(self) -> "_Tableau":
        """A tableau to pivot on from this one; ``original`` is shared."""
        tab = copy.copy(self)
        tab.A, tab.basis = self.A.copy(), self.basis.copy()
        return tab

    def _pivot(self, row: int, col: int):
        """Pivot on ``(row, col)``; returns the pivot and the factor column,
        all that a right-hand side needs to follow the pivot."""
        A = self.A
        piv = A[row, col]
        if abs(piv) < DEFAULT_PIVOT_TOL:
            raise NumericalBreakdown(f"pivot {piv:.3e} below threshold")
        A[row] /= piv
        factors = A[:, col].copy()
        factors[row] = 0.0
        A -= factors[:, None] * A[row]
        A[:, col] = 0.0
        A[row, col] = 1.0
        self.basis[row] = col
        return piv, factors

    def entering(self, cost: np.ndarray, cb: np.ndarray, allowed: np.ndarray, bland: bool):
        """The improving columns under the current basis, whose costs are
        ``cb``, in the order the pivot rule tries them: ascending index
        under Bland's rule, else most negative reduced cost first (lowest
        index on ties)."""
        rc = cost[: self.total_cols] - cb @ self.A[:, :-1]
        eligible = (allowed & (rc < -self.STABLE_PIVOT)).nonzero()[0]
        if bland or not eligible.size:
            return eligible.tolist()
        return eligible[rc[eligible].argsort(kind="stable")].tolist()

    def run(self, cost: np.ndarray, allowed: np.ndarray) -> None:
        """Deterministic pivoting: most-negative reduced cost (lowest index
        on ties) while the objective makes progress, with a switch to pure
        Bland's rule after a degenerate stall so cycling cannot occur.  The
        leaving row is the minimum-ratio row, preferring the numerically
        largest pivot among ties and then the lowest basic-variable index.
        """
        A = self.A
        cb = cost[self.basis]
        stall, last_objective = 0, np.inf
        while True:
            if self.iterations >= self.max_iterations:
                raise MaxIterationsExceeded(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            order = self.entering(cost, cb, allowed, bland=stall >= self.stall_limit)
            if not order:
                return
            for col in order:
                row = self._leaving_row(col)
                if row is not None:
                    break
                if (A[:, col] <= DEFAULT_PIVOT_TOL).all():
                    raise _Unbounded
            else:  # only sub-threshold pivots in every improving column
                raise NumericalBreakdown(
                    "no pivot above the stability threshold in any "
                    "improving column"
                )
            self._pivot(row, col)
            self.iterations += 1
            cb = cost[self.basis]
            objective = cb @ A[:, -1]
            if objective < last_objective - self.STABLE_PIVOT:
                stall = 0
                last_objective = objective
            else:
                stall += 1

    def _leaving_row(self, col: int) -> int | None:
        column = self.A[:, col]
        rows = (column > self.STABLE_PIVOT).nonzero()[0]
        if rows.size <= 1:  # no ratio test to settle
            return int(rows[0]) if rows.size else None
        ratios = self.A[rows, -1] / column[rows]
        best = ratios.min()
        window = DEFAULT_PIVOT_TOL * max(1.0, abs(best))
        tied = rows[ratios <= best + window]
        if tied.size == 1:
            return int(tied[0])
        # prefer the largest pivot (stability), then the lowest basis index
        pivots = column[tied]
        tied = tied[pivots >= pivots.max() * (1.0 - 1e-9)]
        return int(tied[self.basis[tied].argmin()])

    def drive_out_artificials(self) -> list:
        """Pivot basic artificials (at value zero) onto structural or slack
        columns, at the largest entry of their row; returns ``(row, col,
        pivot, factors)`` of each pivot.

        The slack column of a flipped row starts as minus its artificial's
        column and every pivot keeps it so, so the row of a basic artificial
        holds that slack at -1: no row is redundant, and every pivot here is
        at least 1 in size.
        """
        limit = self.n_struct + self.n_slack
        pivots = []
        # a pivot changes only the basic variable of its own row
        for row in (self.basis >= limit).nonzero()[0].tolist():
            col = int(np.abs(self.A[row, :limit]).argmax())
            pivots.append((row, col, *self._pivot(row, col)))
        return pivots

    def solution(self, width: int) -> np.ndarray:
        """The first ``width`` entries of the basic solution as a stack of
        one (:func:`_solutions`); the tableau values if that solve fails."""
        y, broken = _solutions([self], self.original[None, :, -1], width)
        if broken[0]:
            y[0, self.basis] = self.A[:, -1]
        return y


class _Unbounded(Exception):
    pass


class _Node:
    """A tableau that :func:`solve` reaches, in the pivot-path cache of a
    program (:attr:`LinearProgram._paths`).

    A node is fixed by the flip pattern of its root and the pivots made
    since; nothing in it depends on a right-hand side.  ``pivots`` holds
    ``(row, col, pivot, factors)`` of each pivot from its parent: one
    simplex pivot, or the drive-out of the artificials that starts phase
    2.  ``rows`` are the eligible rows of Dantzig's first entering column
    ``col`` and ``column`` its entries there; ``rows`` is empty where no
    column improves (the phase ends) and None where that column has no
    eligible row (:func:`solve` takes over).  A node is built by copying
    its parent's tableau and pivoting, and enters the parent's
    ``children`` (keyed by leaving row, None for phase 2) only once built.
    """

    def __init__(self, tab: _Tableau, c, phase: int, steps: int, pivots: list):
        self.tab, self.c, self.phase = tab, c, phase
        self.steps = steps  # pivots since the phase began
        self.pivots = [(row, col, float(piv), f.tolist()) for row, col, piv, f in pivots]
        self.iterations = tab.iterations
        self.basis, self.basis_matrix = tab.basis, tab.basis_matrix
        self.children = {}
        arts = tab.n_struct + tab.n_slack
        cost = _phase_costs(c, tab.total_cols, arts)[phase - 1]
        allowed = np.arange(tab.total_cols) < (tab.total_cols if phase == 1 else arts)
        order = tab.entering(cost, cost[tab.basis], allowed, bland=False)
        self.col = order[0] if order else None
        self.rows = self.column = self.leaving = []
        if order:
            column = tab.A[:, self.col]
            rows = (column > tab.STABLE_PIVOT).nonzero()[0]
            self.rows = rows.tolist() if rows.size else None
            self.column = column[rows].tolist()
            self.leaving = tab.basis[rows].tolist()  # the basic variable of each row

    @staticmethod
    def root(lp: "LinearProgram", flip: np.ndarray) -> "_Node":
        """The first tableau of the lanes whose right-hand side is negative
        at ``flip``, published in ``lp._paths``."""
        tab = _initial_tableau(lp.A_in, np.where(flip, -1.0, 1.0))
        node = _Node(tab, lp.c, 1 if tab.n_art else 2, 0, [])
        lp._paths[flip.tobytes()] = node
        return node

    def grow(self, row: int | None) -> "_Node":
        """The child of the pivot on ``row``, or for None (at the end of
        phase 1) the start of phase 2; built, then published."""
        tab = self.tab.copy()
        if row is None:
            child = _Node(tab, self.c, 2, 0, tab.drive_out_artificials())
        else:
            pivot = (row, self.col, *tab._pivot(row, self.col))
            tab.iterations += 1
            child = _Node(tab, self.c, self.phase, self.steps + 1, [pivot])
        self.children[row] = child
        return child


def _walk(node: _Node, r: list, cap: int, stall_limit: int):
    """Follow :func:`solve` from ``node`` down the tree on the right-hand
    side ``r`` (floats, updated in place) to the end of the phase: replay
    each node's pivots on ``r`` with the operations of :meth:`_Tableau._pivot`
    and pick each child by the ratio test of :meth:`_Tableau._leaving_row`
    on ``r``, building it if new.  Returns the last node and whether the
    phase ended there; where not (the iteration cap, a possible switch to
    Bland's rule, a second-choice or unbounded column), :func:`solve` takes
    over."""
    while True:
        for row, _, piv, factors in node.pivots:
            t = r[row] / piv
            r[row] = t
            r[:] = [x - f * t for x, f in zip(r, factors)]
        rows = node.rows
        if not rows or node.iterations >= cap or node.steps >= stall_limit:
            return node, rows == [] and node.iterations < cap
        row = rows[0]
        if len(rows) > 1:
            column = node.column
            ratios = [r[i] / a for i, a in zip(rows, column)]
            best = min(ratios)
            cut = best + DEFAULT_PIVOT_TOL * max(1.0, abs(best))
            tied = [j for j, q in enumerate(ratios) if q <= cut]
            row = rows[tied[0]]
            if len(tied) > 1:
                # prefer the largest pivot (stability), then the lowest basis index
                top = max([column[j] for j in tied]) * (1.0 - 1e-9)
                row = min([(node.leaving[j], rows[j]) for j in tied if column[j] >= top])[1]
        node = node.children.get(row) or node.grow(row)


def _phase_costs(c: np.ndarray, total_cols: int, arts: int):
    phase1 = np.zeros(total_cols)
    phase1[arts:] = 1.0
    phase2 = np.zeros(total_cols)
    phase2[: c.size] = c
    return phase1, phase2


def solve(lp: LinearProgram, *, feas_tol: float = DEFAULT_FEAS_TOL) -> LpOutcome:
    """Solve ``lp`` with the two-phase simplex.

    Returns an :class:`LpOutcome`; an ``OPTIMAL`` outcome is rechecked for
    primal feasibility within ``feas_tol`` before being reported.  Raises
    :class:`NumericalBreakdown` on pivot failure and
    :class:`MaxIterationsExceeded` past :func:`_max_iterations`.
    """
    T, r = lp.A_in, lp.b_in
    arts = sum(T.shape)  # the first artificial column

    tab = _initial_tableau(T, r)
    phase1, phase2 = _phase_costs(lp.c, tab.total_cols, arts)
    allowed = np.ones(tab.total_cols, dtype=bool)
    if tab.n_art:
        try:
            tab.run(phase1, allowed)
        except _Unbounded:  # a numerical fault: the phase-1 objective is bounded
            raise NumericalBreakdown("phase 1 reported unbounded")
        if _infeasible(tab.solution(tab.total_cols), arts, r[None], feas_tol)[0]:
            return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)
        tab.drive_out_artificials()
        allowed[arts:] = False

    try:
        tab.run(phase2, allowed)
    except _Unbounded:
        return LpOutcome(LpStatus.UNBOUNDED, iterations=tab.iterations)

    Z, objective, resid, bad = _finish(lp, tab.solution(arts), r, feas_tol)
    if bad[0]:
        raise NumericalBreakdown(f"optimal point violates constraints by {resid[0]:.3e}")
    return LpOutcome(LpStatus.OPTIMAL, Z[0], float(objective[0]), tab.iterations)


def solve_batch(
    lp: LinearProgram, *, b_in, feas_tol: float = DEFAULT_FEAS_TOL
) -> list[LpOutcome]:
    """:func:`solve` of ``lp`` with ``b_in`` replaced by each row of ``b_in``.

    Each lane of the (L, m) stack walks the program's pivot-path cache;
    each outcome, with its iteration count and ``z``, is bit for bit that
    of the lone solve.  The lanes the walk cannot finish are solved alone,
    after the walks and in lane order.  Raises what the lone solve of the
    first lane that raises would raise.
    """
    R = np.asarray(b_in, dtype=float)
    T = lp.A_in
    if R.ndim != 2 or R.shape[1] != len(T):
        raise DimensionMismatch(f"b_in must be a stack of shape (L, {len(T)})")
    if not np.all(np.isfinite(R)):
        raise ValueError("LP data must be finite")
    flips = R < 0
    rhs = R * np.where(flips, -1.0, 1.0)  # each lane's first rhs column
    arts = sum(T.shape)  # the first artificial column
    cap, stall_limit = _max_iterations(*T.shape), _Tableau.stall_limit
    paths = lp._paths
    outcomes: list = [None] * len(R)
    alone, ends, finals = [], {}, []
    for lane, (flip, r) in enumerate(zip(flips, rhs.tolist())):
        root = paths.get(flip.tobytes()) or _Node.root(lp, flip)
        node, done = _walk(root, r, cap, stall_limit)
        if not done:
            alone.append(lane)
        elif node.phase == 1:
            ends.setdefault(node.tab.n_art, []).append((lane, node, r))
        else:
            finals.append((lane, node))

    for n_art, group in ends.items():
        lanes = [lane for lane, _, _ in group]
        y, bad = _solutions([node for _, node, _ in group], rhs[lanes], arts + n_art)
        bad |= _infeasible(y, arts, R[lanes], feas_tol)
        for (lane, node, r), stop in zip(group, bad.tolist()):
            if not stop:
                node, done = _walk(node.children.get(None) or node.grow(None), r, cap, stall_limit)
                if done:
                    finals.append((lane, node))
                    continue
            alone.append(lane)

    if finals:
        lanes = [lane for lane, _ in finals]
        y, broken = _solutions([node for _, node in finals], rhs[lanes], arts)
        Z, objective, _, bad = _finish(lp, y, R[lanes], feas_tol)
        bad |= broken  # the lone solve falls back to the tableau values
        for i, (lane, node) in enumerate(finals):
            if bad[i]:
                alone.append(lane)
            else:
                outcomes[lane] = LpOutcome(
                    LpStatus.OPTIMAL, Z[i], float(objective[i]), node.iterations
                )
    for lane in sorted(alone):
        outcomes[lane] = solve(replace(lp, b_in=R[lane]), feas_tol=feas_tol)
    return outcomes


def _solutions(tableaux: list, rhs: np.ndarray, width: int):
    """The first ``width`` entries of the basic solution of each tableau or
    node, from one stacked solve of the pristine basis matrices (so pivot
    round-off does not leak in) against each lane's first rhs column; and
    the lanes whose solve failed: all if a basis is singular, else those
    with non-finite values (left at zero)."""
    y = np.zeros((len(tableaux), width))
    matrices = [t.basis_matrix for t in tableaux]
    try:  # a stack of one is a view, not a copy of a possibly large matrix
        values = np.linalg.solve(
            matrices[0][None] if len(matrices) == 1 else matrices, rhs[:, :, None]
        )[:, :, 0]
    except np.linalg.LinAlgError:
        return y, np.ones(len(tableaux), dtype=bool)
    broken = ~np.isfinite(values).all(axis=1)
    y[np.arange(len(tableaux))[:, None], [t.basis for t in tableaux]] = values
    y[broken] = 0.0
    return y, broken


def _infeasible(y: np.ndarray, arts: int, R: np.ndarray, feas_tol: float) -> np.ndarray:
    """The infeasible lanes: their phase-1 solutions ``y`` leave the
    artificials (from column ``arts``) above ``feas_tol``, relative to ``R``."""
    return y[:, arts:].sum(axis=1) > feas_tol * np.abs(R).max(axis=1, initial=1.0)


def _finish(lp: LinearProgram, y: np.ndarray, B_in: np.ndarray, feas_tol: float):
    """``z`` and objective at each row of the optimal basic solutions ``y``;
    how far each ``z`` violates the constraints of ``lp`` with ``b_in`` the
    same row of ``B_in`` (or ``B_in`` for all), and where beyond ``feas_tol``
    relative to ``max(1, |b_in|)``."""
    Z = y[:, : lp.c.size] + 0.0  # adding 0.0 turns a -0.0 of the basis solve into 0.0
    scale = np.maximum(1.0, np.abs(B_in).max(axis=-1, initial=0.0))
    resid = (-Z).max(axis=1, initial=0.0)  # z >= 0
    if len(lp.A_in):
        rows = (lp.A_in @ Z[:, :, None])[:, :, 0] - B_in
        resid = np.maximum(resid, rows.max(axis=1))
    objective = (Z[:, None, :] @ lp.c[:, None])[:, 0, 0]
    return Z, objective, resid, resid > feas_tol * scale
