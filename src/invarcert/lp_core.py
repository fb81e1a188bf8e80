"""Deterministic dense linear-programming core.

A small tableau simplex with two solves.  :func:`solve` is the two-phase
primal: pricing picks the most negative reduced cost.  :func:`solve_dual`
is the dual simplex for a nonnegative cost (Lemke, 1954; Bertsimas &
Tsitsiklis, 1997, ch. 4): the all-slack basis is then dual feasible, so
it needs no phase 1 and no artificials, and the leaving row holds the
most negative basic value.  Constraint generation in
:mod:`invarcert.scenario` solves its 1-norm working LPs with it; the
vertex decomposition and the origin-in-hull test keep :func:`solve`,
whose ties choose the simulated inputs, and so do greedy's keep
certificates, whose costs may be negative.  Both start from one tableau
builder (:func:`_initial_tableau`), fall back to Bland's anti-cycling
rule after ``_Tableau.stall_limit`` degenerate pivots, take at most
:func:`_max_iterations` pivots and read the optimum from a solve of the
pristine basis matrix, so no tableau round-off reaches ``z``.  Every LP
has one feasibility tolerance, ``DEFAULT_FEAS_TOL``: the phase-1 test
and the primal check of every optimum read it, and no caller sets
another.  Each solve is a pure function of its input: fixed rules, no
randomized perturbation, so repeated calls on identical data return
bit-identical solutions.  That determinism is what the rest of the
toolbox leans on to make policy synthesis single-valued.

Problem form::

    minimize    c @ z
    subject to  A_in @ z <= b_in
                z >= 0

This is the only form.  A caller states a free variable as the difference
of two columns, a finite bound as an inequality row and an equality as
two opposite rows (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, ch. 1).  Intended for small dense problems (hundreds
of rows); there is no sparse path.

:func:`_solve_stack` solves a family of programs that differ only in
their right-hand side ``b_in`` (the vertex decomposition of
:mod:`invarcert.geometry`).  A tableau's reduced costs, entering column,
eligible pivot rows, pivot factors and basis matrix depend on the rows
flipped for a negative right-hand side and on the pivots made so far, not
on the right-hand side itself; only the ratio test and the basic values
do (ch. 5).  So a program keeps a pivot-path cache
(:attr:`LinearProgram._paths`): a tree of the tableaux that the lone solve
reaches (:class:`_Node`), one root per flip pattern, each node built once
from its parent.  A lane walks the tree on its own right-hand side, in
Python floats, through phase 1 and straight on through phase 2
(:func:`_walk`).  Per pivot it applies the operations of
:meth:`_Tableau._pivot` to the rows whose factor is not zero (``x - 0.0 *
t`` would change at most the sign of a zero, which the ratio test cannot
see) and picks the leaving row by the ratio test of the lone solve
(:func:`_ratio_test`).  From there the lanes stay one stack
(:func:`_solve_stack`): one solve of the pristine basis matrices, every
lane's final basis stacked on the basis its phase-1 test reads, gives all
the basic solutions (:func:`_solutions`); the phase-1 test
(:func:`_infeasible`) reads the second half, one call per width, and one
optimal finish (:func:`_finish`) the first, as arrays with a row per lane.
The lone solve uses the same pieces: each node's eligible rows
(:meth:`_Tableau.eligible`), its phase's cost and allowed columns
(:func:`_phase`) and, as a stack of one, the basic solutions, the phase-1
test and the finish.  Any other lane (Bland's rule, the iteration cap, a
second-choice entering column, an unbounded or infeasible program, a
non-finite value in the walk, from where a skipped ``0.0 * inf`` would
have made a NaN, a singular or non-finite basis solve, a primal
violation) is solved again from the start by :func:`solve` with its own
``b_in``, in lane order, and its row of the stack is overwritten.  So each
outcome is bit for bit that of :func:`solve`, whatever filled the cache
before, and the rare rules live in one place.  The vertex decomposition
reads the stack's ``z`` rows directly.
"""

import copy
import math
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
    cache of :func:`_solve_stack` is built from ``c`` and ``A_in`` and kept.
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
        """The pivot-path cache of :func:`_solve_stack`: the root
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


def _initial_tableau(T: np.ndarray, r: np.ndarray, flip: np.ndarray) -> "_Tableau":
    """The first tableau of ``T y <= r`` with the rows ``flip`` negated.

    A flipped row's slack enters with coefficient -1 and needs an
    artificial, which starts in its basis; every other row starts with its
    slack.  :func:`solve` flips the rows of a negative right-hand side, so
    the rhs column is >= 0; :func:`solve_dual` flips none.
    """
    m, n = T.shape
    sign = np.where(flip, -1.0, 1.0)
    n_art = int(np.count_nonzero(flip))
    # columns: structural body, slacks, artificials, right-hand side
    A = np.zeros((m, n + m + n_art + 1))
    np.multiply(T, sign[:, None], out=A[:, :n])
    basis = n + np.arange(m)
    A[np.arange(m), basis] = sign
    # the k-th flipped row gets the k-th artificial
    basis[flip] = np.arange(n + m, n + m + n_art)
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

    def eligible(self, col: int):
        """The rows of column ``col`` that may leave (entry above
        ``STABLE_PIVOT``), their entries there and their basic variables,
        as lists."""
        column = self.A[:, col]
        rows = (column > self.STABLE_PIVOT).nonzero()[0]
        return rows.tolist(), column[rows].tolist(), self.basis[rows].tolist()

    def run(self, cost: np.ndarray, allowed: np.ndarray) -> None:
        """Deterministic pivoting: most-negative reduced cost (lowest index
        on ties) while the objective makes progress, with a switch to pure
        Bland's rule after a degenerate stall so cycling cannot occur.  The
        leaving row is that of :func:`_ratio_test`.
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
                rows, column, basics = self.eligible(col)
                if rows:
                    row = _ratio_test(rows, column, basics, A[:, -1].tolist())
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

    def run_dual(self, cost: np.ndarray) -> bool:
        """Dual simplex pivoting from a basis whose reduced costs under
        ``cost`` are all >= 0, until every basic value is at least
        ``-DEFAULT_PIVOT_TOL`` times the largest initial right-hand side
        (at least 1): anything smaller in size is round-off, such as the
        remainder of a row opposite to one already pivoted.  False when the
        leaving row proves the program infeasible: no entry below
        ``-DEFAULT_PIVOT_TOL``.
        The leaving row holds the most negative basic value (lowest row on
        ties); the entering column passes the dual ratio test, preferring
        the numerically largest pivot among ties and then the lowest
        column.  After ``stall_limit`` pivots that do not raise the
        objective both choices switch to Bland's rule: the negative row of
        the lowest basic index, and the lowest tied column.
        """
        A = self.A
        tol = DEFAULT_PIVOT_TOL * max(1.0, np.abs(self.original[:, -1]).max(initial=0.0))
        stall, last_objective = 0, -np.inf
        while True:
            rhs = A[:, -1]
            bland = stall >= self.stall_limit
            rows = (rhs < -tol).nonzero()[0]
            if not rows.size:
                return True
            if self.iterations >= self.max_iterations:
                raise MaxIterationsExceeded(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            row = int(rows[self.basis[rows].argmin()] if bland else rhs.argmin())
            entries = A[row, :-1]
            cols = (entries < -self.STABLE_PIVOT).nonzero()[0]
            if not cols.size:
                if (entries >= -DEFAULT_PIVOT_TOL).all():
                    return False
                raise NumericalBreakdown(
                    "no pivot above the stability threshold in the leaving row"
                )
            rc = cost[cols] - cost[self.basis] @ A[:, cols]
            ratios = rc / -entries[cols]
            best = ratios.min()
            tied = cols[ratios <= best + DEFAULT_PIVOT_TOL * max(1.0, abs(best))]
            if tied.size > 1 and not bland:
                # prefer the largest pivot (stability), then the lowest column
                pivots = -entries[tied]
                tied = tied[pivots >= pivots.max() * (1.0 - 1e-9)]
            self._pivot(row, int(tied[0]))
            self.iterations += 1
            objective = cost[self.basis] @ A[:, -1]
            if objective > last_objective + self.STABLE_PIVOT:
                stall = 0
                last_objective = objective
            else:
                stall += 1

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
    ``(row, col, pivot, factors)`` of each pivot from its parent, with
    ``factors`` the ``(row, factor)`` pairs whose factor is not zero: one
    simplex pivot, or the drive-out of the artificials that starts phase
    2.  ``rows``, ``column`` and ``basics`` are :meth:`_Tableau.eligible`
    of Dantzig's first entering column ``col``; ``rows`` is empty where no
    column improves (the phase ends) and None where that column has no
    eligible row (:func:`solve` takes over).  A node is built by copying
    its parent's tableau and pivoting, and enters the parent's
    ``children`` (keyed by leaving row, None for phase 2) only once built.
    """

    def __init__(self, tab: _Tableau, c, phase: int, steps: int, pivots: list):
        self.tab, self.c, self.phase = tab, c, phase
        self.steps = steps  # pivots since the phase began
        self.pivots = [
            (row, col, float(piv), [(i, x) for i, x in enumerate(f.tolist()) if x])
            for row, col, piv, f in pivots
        ]
        self.iterations = tab.iterations
        self.basis, self.basis_matrix = tab.basis, tab.basis_matrix
        self.children = {}
        cost, allowed = _phase(c, tab, phase)
        order = tab.entering(cost, cost[tab.basis], allowed, bland=False)
        self.col = order[0] if order else None
        self.rows = self.column = self.basics = []
        if order:
            rows, self.column, self.basics = tab.eligible(self.col)
            self.rows = rows or None

    @staticmethod
    def root(lp: "LinearProgram", flip: np.ndarray) -> "_Node":
        """The first tableau of the lanes whose right-hand side is negative
        at ``flip``, published in ``lp._paths``."""
        # a node never uses its rhs column; the flip's signs make it all ones
        tab = _initial_tableau(lp.A_in, np.where(flip, -1.0, 1.0), flip)
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
    each node's pivots on the rows of ``r`` with a nonzero factor, with the
    operations of :meth:`_Tableau._pivot`, and pick each child by
    :func:`_ratio_test` on ``r``, building it if new.  Returns the last
    node and whether the phase ended there; where not (the iteration cap, a
    possible switch to Bland's rule, a second-choice or unbounded column, a
    non-finite value in ``r``), :func:`solve` takes over."""
    while True:
        for row, _, piv, factors in node.pivots:
            t = r[row] / piv
            r[row] = t
            for i, f in factors:
                r[i] -= f * t
        rows = node.rows
        # a non-finite value stays so, and from there a skipped 0.0 * inf
        # would have been a NaN (an overflowing sum only stops the walk)
        finite = math.isfinite(sum(r))
        if not rows or not finite or node.iterations >= cap or node.steps >= stall_limit:
            return node, finite and rows == [] and node.iterations < cap
        row = _ratio_test(rows, node.column, node.basics, r)
        node = node.children.get(row) or node.grow(row)


def _ratio_test(rows: list, column: list, basics: list, r: list) -> int:
    """The leaving row of the primal simplex among :meth:`_Tableau.eligible`
    (nonempty), in Python floats: the minimum ratio of ``r[row]`` to the
    entry; among ratios within ``DEFAULT_PIVOT_TOL * max(1, |minimum|)``,
    the largest entry (stability); among entries within a relative 1e-9 of
    it, the lowest basic variable."""
    if len(rows) == 1:
        return rows[0]
    ratios = [r[i] / a for i, a in zip(rows, column)]
    best = min(ratios)
    cut = best + DEFAULT_PIVOT_TOL * max(1.0, abs(best))
    tied = [j for j, q in enumerate(ratios) if q <= cut]
    if len(tied) == 1:
        return rows[tied[0]]
    top = max([column[j] for j in tied]) * (1.0 - 1e-9)
    return min([(basics[j], rows[j]) for j in tied if column[j] >= top])[1]


def _phase(c: np.ndarray, tab: _Tableau, phase: int):
    """The cost and the allowed columns of ``phase`` on ``tab``: phase 1
    minimizes the sum of the artificials over every column, phase 2
    minimizes ``c`` over the structural and slack columns."""
    arts = tab.n_struct + tab.n_slack  # the first artificial column
    cost = np.zeros(tab.total_cols)
    if phase == 1:
        cost[arts:] = 1.0
    else:
        cost[: c.size] = c
    return cost, np.arange(tab.total_cols) < (tab.total_cols if phase == 1 else arts)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` with the two-phase simplex.

    Returns an :class:`LpOutcome`; an ``OPTIMAL`` outcome is rechecked for
    primal feasibility within ``DEFAULT_FEAS_TOL`` before being reported.
    Raises :class:`NumericalBreakdown` on pivot failure and
    :class:`MaxIterationsExceeded` past :func:`_max_iterations`.
    """
    T, r = lp.A_in, lp.b_in
    tab = _initial_tableau(T, r, r < 0)
    if tab.n_art:
        try:
            tab.run(*_phase(lp.c, tab, 1))
        except _Unbounded:  # a numerical fault: the phase-1 objective is bounded
            raise NumericalBreakdown("phase 1 reported unbounded")
        if _infeasible(tab.solution(tab.total_cols), sum(T.shape), _scale(r))[0]:
            return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)
        tab.drive_out_artificials()

    try:
        tab.run(*_phase(lp.c, tab, 2))
    except _Unbounded:
        return LpOutcome(LpStatus.UNBOUNDED, iterations=tab.iterations)

    return _optimal(lp, tab)


def solve_dual(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp``, whose cost must be nonnegative, by the dual simplex.

    The all-slack basis is then dual feasible, so the solve starts there
    with no phase 1 and pivots (:meth:`_Tableau.run_dual`) until it is
    primal feasible too, or a row proves the program infeasible.  The
    optimum is finished as in :func:`solve`.  Raises :class:`ValueError`
    naming a negative cost entry, :class:`NumericalBreakdown` on pivot
    failure and :class:`MaxIterationsExceeded` past :func:`_max_iterations`.
    """
    negative = (lp.c < 0).nonzero()[0]
    if negative.size:
        k = int(negative[0])
        raise ValueError(f"solve_dual needs a nonnegative cost; c[{k}] = {lp.c[k]!r}")
    tab = _initial_tableau(lp.A_in, lp.b_in, np.zeros(len(lp.b_in), dtype=bool))
    if not tab.run_dual(_phase(lp.c, tab, 2)[0]):
        return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)
    return _optimal(lp, tab)


def _optimal(lp: LinearProgram, tab: _Tableau) -> LpOutcome:
    """The optimal outcome at the final basis of ``tab`` (:func:`_finish`);
    :class:`NumericalBreakdown` if it violates the constraints."""
    Z, objective, resid, bad = _finish(lp, tab.solution(sum(lp.A_in.shape)), lp.b_in, _scale(lp.b_in))
    if bad[0]:
        raise NumericalBreakdown(f"optimal point violates constraints by {resid[0]:.3e}")
    return LpOutcome(LpStatus.OPTIMAL, Z[0], float(objective[0]), tab.iterations)


def _solve_stack(lp: LinearProgram, b_in):
    """:func:`solve` of ``lp`` with ``b_in`` replaced by each row of the
    (L, m) stack ``b_in``, kept as one stack: each lane's iteration count
    and ``z`` are bit for bit those of the lone solve, and a lane that
    raises raises what its lone solve raises.

    Each lane walks the program's pivot-path
    cache through both phases.  One stacked basis solve (:func:`_solutions`)
    then gives every lane's basic solution at its final basis and at the
    end of its phase 1; the phase-1 test (:func:`_infeasible`, grouped by
    width) reads the second and the optimal finish (:func:`_finish`) the
    first.  Returns ``Z`` (L, n) and the objectives (L,) of every lane,
    their iteration counts (a list) and ``alone``: by lane, in lane order,
    the outcome of :func:`solve` of each lane that the walk cannot finish
    or that the phase-1 test, the basis solve or the finish flags, solved
    after the walks.  The rows of such a lane hold its lone ``z`` and
    objective if it is optimal.
    """
    R = np.asarray(b_in, dtype=float)
    T = lp.A_in
    if R.ndim != 2 or R.shape[1] != len(T):
        raise DimensionMismatch(f"b_in must be a stack of shape (L, {len(T)})")
    if not np.isfinite(R).all():
        raise ValueError("LP data must be finite")
    L, arts = len(R), sum(T.shape)  # arts: the first artificial column
    if not L:
        return np.zeros((0, lp.c.size)), np.zeros(0), [], {}
    flips = R < 0
    rhs = np.where(flips, -R, R)  # each lane's first rhs column
    cap, stall_limit = _max_iterations(*T.shape), _Tableau.stall_limit
    paths, keys, m = lp._paths, flips.tobytes(), len(T)
    # each lane's final node and the node its phase-1 test reads: the root
    # where there is no phase 1 (no artificial, so the test passes) and in
    # both places for a lane the walk cannot finish; a root's basis is of
    # slacks and artificials, so it never fails the stacked solve
    finals, starts, unfinished = [], [], []
    for lane, r in enumerate(rhs.tolist()):
        start = paths.get(keys[lane * m : lane * m + m]) or _Node.root(lp, flips[lane])
        node, done = _walk(start, r, cap, stall_limit)
        if done and node.phase == 1:  # on into phase 2; the phase-1 test comes after
            start = node
            node, done = _walk(node.children.get(None) or node.grow(None), r, cap, stall_limit)
        if not done:
            unfinished.append(lane)
            node = start
        finals.append(node)
        starts.append(start)
    widths = [node.tab.total_cols for node in starts]
    y, broken = _solutions(finals + starts, np.concatenate((rhs, rhs)), max(widths))
    scale = _scale(R)
    infeasible = np.empty(L, dtype=bool)
    groups = set(widths)
    for width in groups:  # a mask only where the widths mix
        lanes = np.equal(widths, width) if len(groups) > 1 else slice(None)
        infeasible[lanes] = _infeasible(y[L:][lanes, :width], arts, scale[lanes])
    Z, objective, _, bad = _finish(lp, y[:L], R, scale)
    bad |= broken[:L] | broken[L:] | infeasible
    alone = {}
    for lane in sorted({*unfinished, *bad.nonzero()[0].tolist()}):
        alone[lane] = outcome = solve(replace(lp, b_in=R[lane]))
        if outcome.is_optimal:
            Z[lane], objective[lane] = outcome.z, outcome.objective
    return Z, objective, [node.iterations for node in finals], alone


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
    broken = np.zeros(len(tableaux), dtype=bool)
    if not np.isfinite(values).all():
        broken = ~np.isfinite(values).all(axis=1)
        values[broken] = 0.0
    y[np.arange(len(tableaux))[:, None], [t.basis for t in tableaux]] = values
    return y, broken


def _scale(B_in: np.ndarray):
    """``max(1, |b_in|)`` of each row of ``B_in`` (or of ``B_in``): what the
    feasibility tolerance is relative to."""
    return np.abs(B_in).max(axis=-1, initial=1.0)


def _infeasible(y: np.ndarray, arts: int, scale) -> np.ndarray:
    """The infeasible lanes: their phase-1 solutions ``y`` leave the
    artificials (from column ``arts``) above ``DEFAULT_FEAS_TOL`` times
    ``scale`` (:func:`_scale`)."""
    return y[:, arts:].sum(axis=1) > DEFAULT_FEAS_TOL * scale


def _finish(lp: LinearProgram, y: np.ndarray, B_in: np.ndarray, scale):
    """``z`` and objective at each row of the optimal basic solutions ``y``;
    how far each ``z`` violates the constraints of ``lp`` with ``b_in`` the
    same row of ``B_in`` (or ``B_in`` for all), and where beyond
    ``DEFAULT_FEAS_TOL`` times ``scale`` (:func:`_scale`)."""
    Z = y[:, : lp.c.size] + 0.0  # adding 0.0 turns a -0.0 of the basis solve into 0.0
    rows = (lp.A_in @ Z[:, :, None])[:, :, 0] - B_in
    resid = np.concatenate((-Z, rows), axis=1).max(axis=1, initial=0.0)  # z >= 0 too
    objective = (Z[:, None, :] @ lp.c[:, None])[:, 0, 0]
    return Z, objective, resid, resid > DEFAULT_FEAS_TOL * scale
