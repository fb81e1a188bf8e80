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
                A_eq @ z == b_eq        (optional)
                lo_k <= z_k <= hi_k     (optional, per variable)

Intended for small dense problems (hundreds of rows); there is no sparse
path and no factorization reuse between solves.  What a program's
right-hand side does not touch (its standard form) is built on the first
solve and kept.

:func:`solve_batch` solves a family of programs that differ only in
their equality right-hand side (the vertex decomposition of
:mod:`invarcert.geometry`), given as one program and a stack of
``b_eq``, validated and converted once, as one stack of tableaux:
pricing is one stacked ``matmul``, a pivot one broadcast update, the
basis solves one stacked ``np.linalg.solve``, and finished lanes drop
out.  The stack runs Dantzig's rule only, for no more steps than a lone
run takes before it could switch to Bland's rule or reach the iteration
cap; every lane makes the choices of the lone tableau, and a stacked
``matmul`` or ``solve`` computes each lane as the lone call does.  Any
other lane (a second-choice entering column, an unbounded or infeasible
program, a lane still pivoting at that step, a singular basis, a primal
violation) is solved again from the start by :func:`solve`, as a fresh
program with its own ``b_eq``, so each outcome is bit for bit that of
:func:`solve` and the rare rules live in one place.  A single program is
cheaper through :func:`solve`; the stack pays off from a few lanes on.
"""

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
    """Dense LP data.

    ``bounds`` is a list of ``(lo, hi)`` pairs, one per variable; ``None``
    entries (or a ``None`` list) mean free / unbounded on that side.  The
    data must not be modified after construction: the standard form is
    built from it on the first solve and kept.
    """

    c: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: list | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A_in = np.asarray(self.A_in, dtype=float).reshape(-1, c.size)
        b_in = np.asarray(self.b_in, dtype=float).ravel()
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A_in", A_in)
        object.__setattr__(self, "b_in", b_in)
        if A_in.shape[0] != b_in.size:
            raise DimensionMismatch("A_in and b_in row counts differ")
        if self.A_eq is not None:
            A_eq = np.asarray(self.A_eq, dtype=float).reshape(-1, c.size)
            b_eq = np.asarray(self.b_eq, dtype=float).ravel()
            if A_eq.shape[0] != b_eq.size:
                raise DimensionMismatch("A_eq and b_eq row counts differ")
            object.__setattr__(self, "A_eq", A_eq)
            object.__setattr__(self, "b_eq", b_eq)
        if self.bounds is not None and len(self.bounds) != c.size:
            raise DimensionMismatch("bounds length must equal len(c)")
        for block in (self.c, self.A_in, self.b_in, self.A_eq, self.b_eq):
            if block is not None and not np.all(np.isfinite(block)):
                raise ValueError("LP data must be finite")

    @property
    def n_vars(self) -> int:
        return self.c.size

    @cached_property
    def _standard(self) -> "_StandardForm":
        return _to_standard_form(self)


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    z: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


@dataclass(frozen=True)
class _StandardForm:
    """min c@y, T y <= r, y >= 0, plus the map back to original variables.

    Everything here is independent of the right-hand side: :meth:`rhs`
    builds ``r`` for a program's ``b_in``/``b_eq``, so one instance serves
    every lane of :func:`solve_batch`.
    """

    c: np.ndarray
    T: np.ndarray
    # y = pos part - neg part + shift, per original variable
    pos_col: np.ndarray
    neg_col: np.ndarray  # -1 where the variable has no negative part
    split: np.ndarray  # the variables that have a negative part
    shift: np.ndarray
    in_offset: np.ndarray  # A_in @ shift
    eq_offset: np.ndarray | None  # A_eq @ shift
    caps: np.ndarray  # hi - shift, per finite upper bound
    lower: np.ndarray  # the bounds, -inf / inf where absent
    upper: np.ndarray

    def rhs(self, b_in: np.ndarray, b_eq: np.ndarray | None) -> np.ndarray:
        """``r`` for one right-hand side, or (L, m) for a (L, k) stack of
        ``b_eq``."""
        parts = [b_in - self.in_offset]
        if self.eq_offset is not None:
            # equalities as paired inequalities; keeps every row the same shape
            e = b_eq - self.eq_offset
            parts += [e, -e]
        parts.append(self.caps)
        if b_eq is not None and b_eq.ndim > 1:
            lanes = len(b_eq)
            parts[0], parts[-1] = (
                np.broadcast_to(part, (lanes, part.size)) for part in (parts[0], parts[-1])
            )
        return np.concatenate(parts, axis=-1)

    def original(self, y: np.ndarray) -> np.ndarray:
        """The original variables of ``y``, or of each row of a stack."""
        z = y[..., self.pos_col]
        z[..., self.split] -= y[..., self.neg_col[self.split]]
        return z + self.shift


def _to_standard_form(lp: LinearProgram) -> _StandardForm:
    n = lp.n_vars
    bounds = lp.bounds if lp.bounds is not None else [None] * n
    pos_col = np.empty(n, dtype=int)
    neg_col = np.full(n, -1, dtype=int)
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    capped = []  # variables with a finite upper bound, in order

    cols = 0
    for k, b in enumerate(bounds):
        lo, hi = (None, None) if b is None else b
        pos_col[k] = cols
        if lo is None:
            # free below: split into difference of two nonnegatives
            neg_col[k] = cols + 1
            cols += 2
        else:
            lower[k] = lo
            cols += 1
        if hi is not None:
            if lo is not None and hi < lo:
                raise ValueError(f"bound lo > hi for variable {k}")
            upper[k] = hi
            capped.append(k)
    split = np.flatnonzero(neg_col >= 0)
    shift = np.where(neg_col < 0, lower, 0.0)

    def expand(matrix: np.ndarray) -> np.ndarray:
        matrix = np.atleast_2d(matrix)
        out = np.zeros((matrix.shape[0], cols))
        out[:, pos_col] += matrix
        out[:, neg_col[split]] -= matrix[:, split]
        return out

    rows = [expand(lp.A_in)]
    eq_offset = None
    if lp.A_eq is not None:
        E = expand(lp.A_eq)
        rows.extend([E, -E])
        eq_offset = lp.A_eq @ shift
    rows.append(expand(np.eye(n)[capped]))  # y_pos - y_neg <= hi - shift

    return _StandardForm(
        c=expand(lp.c)[0],
        T=np.vstack(rows),
        pos_col=pos_col,
        neg_col=neg_col,
        split=split,
        shift=shift,
        in_offset=lp.A_in @ shift,
        eq_offset=eq_offset,
        caps=upper[capped] - shift[capped],
        lower=lower,
        upper=upper,
    )


def _initial_tableaux(T: np.ndarray, R: np.ndarray):
    """Phase-1 tableaux of ``T y <= r``, one for every row ``r`` of ``R``.

    Rows with a negative right-hand side are flipped so the rhs column is
    >= 0; their slacks then enter with coefficient -1 and need artificials.
    Every row of ``R`` must have the same number of negative entries, so
    that the tableaux share one shape.  Returns the (L, m, cols) tableaux,
    their (L, m) bases and the number of artificials.
    """
    L, m = R.shape
    n = T.shape[1]
    flip = R < 0
    sign = np.where(flip, -1.0, 1.0)
    lanes, rows = flip.nonzero()
    n_art = lanes.size // L if L else 0
    # columns: structural body, slacks, artificials, right-hand side
    A = np.zeros((L, m, n + m + n_art + 1))
    np.multiply(T, sign[:, :, None], out=A[:, :, :n])
    diagonal = np.arange(m)
    A[:, diagonal, n + diagonal] = sign
    # the k-th flipped row of a lane gets the k-th artificial
    basis = np.where(flip, np.cumsum(flip, axis=1) + (n + m - 1), n + diagonal)
    A[lanes, rows, basis[lanes, rows]] = 1.0
    np.multiply(R, sign, out=A[:, :, -1])
    return A, basis, n_art


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

    def _pivot(self, row: int, col: int) -> None:
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

    def run(self, cost: np.ndarray, allowed: np.ndarray) -> None:
        """Deterministic pivoting: most-negative reduced cost (lowest index
        on ties) while the objective makes progress, with a switch to pure
        Bland's rule after a degenerate stall so cycling cannot occur.  The
        leaving row is the minimum-ratio row, preferring the numerically
        largest pivot among ties and then the lowest basic-variable index.
        """
        A = self.A
        priced = cost[: self.total_cols]
        cb = cost[self.basis]
        stall, last_objective = 0, np.inf
        while True:
            if self.iterations >= self.max_iterations:
                raise MaxIterationsExceeded(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            # reduced costs of all columns under the current basis
            rc = priced - cb @ A[:, :-1]
            eligible = (allowed & (rc < -self.STABLE_PIVOT)).nonzero()[0]
            if eligible.size == 0:
                return
            if stall >= self.stall_limit:
                order = eligible.tolist()  # Bland: ascending variable index
            else:
                order = eligible[rc[eligible].argsort(kind="stable")].tolist()
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

    def drive_out_artificials(self) -> None:
        """Pivot basic artificials (at value zero) onto structural or slack
        columns, at the largest entry of their row.

        The slack column of a flipped row starts as minus its artificial's
        column and every pivot keeps it so, so the row of a basic artificial
        holds that slack at -1: no row is redundant, and every pivot here is
        at least 1 in size.
        """
        limit = self.n_struct + self.n_slack
        # a pivot changes only the basic variable of its own row
        for row in (self.basis >= limit).nonzero()[0].tolist():
            self._pivot(row, int(np.abs(self.A[row, :limit]).argmax()))

    def solution(self) -> np.ndarray:
        """Basic solution; re-solved against the pristine data so that pivot
        round-off accumulated over many iterations does not leak into the
        answer.  Falls back to the tableau values if the basis matrix turns
        out numerically singular."""
        y = np.zeros(self.total_cols)
        basis_matrix = self.original[:, self.basis]
        try:
            values = np.linalg.solve(basis_matrix, self.original[:, -1])
        except np.linalg.LinAlgError:
            values = self.A[:, -1]
        else:
            if not np.isfinite(values).all():
                values = self.A[:, -1]
        y[self.basis] = values
        return y


class _Unbounded(Exception):
    pass


def _leaving_rows(A: np.ndarray, lanes: np.ndarray, cols: np.ndarray, basis):
    """:meth:`_Tableau._leaving_row` of column ``cols[l]`` in every tableau
    ``A[l]``; ``found`` is False where that returns None."""
    column = A[lanes, :, cols]
    eligible = column > _Tableau.STABLE_PIVOT
    ratios = np.divide(
        A[:, :, -1], column, out=np.full(column.shape, np.inf), where=eligible
    )
    best = ratios.min(axis=1, keepdims=True)
    tied = ratios <= best + DEFAULT_PIVOT_TOL * np.maximum(1.0, np.abs(best))
    # prefer the largest pivot (stability), then the lowest basis index
    top = np.where(tied, column, -np.inf).max(axis=1, keepdims=True)
    tied &= column >= top * (1.0 - 1e-9)
    rows = np.where(tied, basis, A.shape[2]).argmin(axis=1)  # above every basis index
    return rows, eligible[lanes, rows]


class _TableauStack:
    """Tableaux of one standard form under a stack of right-hand sides,
    pivoted together with Dantzig's rule; every lane makes the choices of
    :class:`_Tableau`.

    The lanes share one shape (the same number of artificials), so a
    stacked ``matmul`` or ``solve`` computes each lane bit for bit as the
    lone tableau does.  A lane whose next step is not the lone tableau's
    first choice under Dantzig's rule leaves the stack: its position in the
    batch goes to ``alone``, to be solved from the start by :func:`solve`.
    """

    _ARRAYS = ("A", "original", "basis", "iterations", "lanes")

    def __init__(self, A, basis, lanes, n_art, alone):
        self.A = A
        self.original = A.copy()
        self.basis = basis
        self.iterations = np.zeros(lanes.size, dtype=int)
        self.lanes = lanes  # positions in the batch
        self.n_slack = A.shape[1]
        self.n_struct = A.shape[2] - 1 - self.n_slack - n_art
        self.max_iterations = _max_iterations(self.n_slack, self.n_struct)
        self.alone = alone

    def take(self, keep) -> "_TableauStack":
        new = object.__new__(_TableauStack)
        new.__dict__.update(self.__dict__)
        for name in self._ARRAYS:
            setattr(new, name, getattr(self, name)[keep])
        return new

    def leave(self, mask: np.ndarray) -> "_TableauStack":
        """The stack without the lanes of ``mask``, which are solved alone."""
        if not mask.any():
            return self
        self.alone.extend(self.lanes[mask].tolist())
        return self.take(~mask)

    def _pivot(self, lanes, rows, cols) -> None:
        """:meth:`_Tableau._pivot` on ``(rows[j], cols[j])`` of every lane
        ``lanes[j]``; ``lanes`` None means every lane, in order."""
        A = self.A
        every = lanes is None
        if every:
            lanes = np.arange(len(A))
        at = np.arange(lanes.size)
        pivot_rows = A[lanes, rows]
        pivot_rows /= pivot_rows[at, cols][:, None]
        A[lanes, rows] = pivot_rows
        factors = A[lanes, :, cols]
        factors[at, rows] = 0.0
        update = factors[:, :, None] * pivot_rows[:, None, :]
        if every:
            A -= update
        else:
            A[lanes] -= update
        A[lanes, :, cols] = 0.0
        A[lanes, rows, cols] = 1.0
        self.basis[lanes, rows] = cols

    def run(self, cost: np.ndarray, allowed: np.ndarray) -> "_TableauStack":
        """:meth:`_Tableau.run` on every lane, with Dantzig's rule.  Returns
        the stack of the lanes that reached the optimum; the others leave.

        A lone run switches to Bland's rule only after ``stall_limit``
        pivots and reaches the iteration cap only after ``max_iterations -
        iterations`` of them, so the stack takes at most that many steps and
        sends every lane still pivoting then to the lone solve.
        """
        blocked = (~allowed).nonzero()[0]
        work, done = self, []
        steps = min(_Tableau.stall_limit, self.max_iterations - self.iterations.max(initial=0))
        for _ in range(steps):
            A, basis = work.A, work.basis
            lanes = np.arange(work.lanes.size)
            # reduced costs of all columns under every lane's basis
            rc = cost - (cost[basis][:, None, :] @ A[:, :, :-1])[:, 0]
            eligible = rc < -_Tableau.STABLE_PIVOT
            if blocked.size:
                eligible[:, blocked] = False
            cols = np.where(eligible, rc, np.inf).argmin(axis=1)
            improving = eligible[lanes, cols]
            if not improving.any():
                done.append(work)
                break
            rows, found = _leaving_rows(A, lanes, cols, basis)
            go = improving & found
            if not go.all():
                # the lone tableau settles a first choice without a leaving
                # row by a second choice or by an unbounded outcome
                done.append(work.take(~improving))
                self.alone.extend(work.lanes[improving & ~found].tolist())
                work, rows, cols = work.take(go), rows[go], cols[go]
            work._pivot(None, rows, cols)
            work.iterations += 1
        else:
            self.alone.extend(work.lanes.tolist())
        if len(done) == 1:
            return done[0]
        joined = self.take(slice(0, 0))
        for name in self._ARRAYS:
            parts = [getattr(part, name) for part in [joined, *done]]
            setattr(joined, name, np.concatenate(parts))
        return joined

    def drive_out(self) -> None:
        """:meth:`_Tableau.drive_out_artificials` on every lane."""
        limit = self.n_struct + self.n_slack
        # a pivot changes only the basic variable of its own row, so the
        # rows to clear are known now; the k-th row of every lane goes at once
        lanes, rows = (self.basis >= limit).nonzero()
        rank = np.arange(lanes.size) - np.searchsorted(lanes, lanes)
        for k in range(rank.max(initial=-1) + 1):
            at = (rank == k).nonzero()[0]
            lane, row = lanes[at], rows[at]
            self._pivot(lane, row, np.abs(self.A[lane, row, :limit]).argmax(axis=1))

    def solutions(self):
        """The stack and :meth:`_Tableau.solution` of each of its lanes; a
        singular basis in any lane sends every lane to the lone solve."""
        L, m = self.basis.shape
        lanes = np.arange(L)[:, None]
        rows = np.arange(m)[:, None]
        basis_matrices = self.original[lanes[:, :, None], rows, self.basis[:, None, :]]
        try:
            values = np.linalg.solve(basis_matrices, self.original[:, :, -1:])[:, :, 0]
        except np.linalg.LinAlgError:
            return self.leave(np.ones(L, dtype=bool)), np.zeros((0, self.A.shape[2] - 1))
        broken = ~np.isfinite(values).all(axis=1)
        values[broken] = self.A[broken, :, -1]
        y = np.zeros((L, self.A.shape[2] - 1))
        y[lanes, self.basis] = values
        return self, y


def _phase_costs(sf: _StandardForm, total_cols: int, arts: int):
    phase1 = np.zeros(total_cols)
    phase1[arts:] = 1.0
    phase2 = np.zeros(total_cols)
    phase2[: sf.c.size] = sf.c
    return phase1, phase2


def solve(lp: LinearProgram, *, feas_tol: float = DEFAULT_FEAS_TOL) -> LpOutcome:
    """Solve ``lp`` with the two-phase simplex.

    Returns an :class:`LpOutcome`; an ``OPTIMAL`` outcome is rechecked for
    primal feasibility within ``feas_tol`` before being reported.  Raises
    :class:`NumericalBreakdown` on pivot failure and
    :class:`MaxIterationsExceeded` past :func:`_max_iterations`.
    """
    sf = lp._standard
    r = sf.rhs(lp.b_in, lp.b_eq)
    arts = sum(sf.T.shape)  # the first artificial column

    A, basis, n_art = _initial_tableaux(sf.T, r[None])
    tab = _Tableau(A[0], basis[0], n_art)
    phase1, phase2 = _phase_costs(sf, tab.total_cols, arts)
    allowed = np.ones(tab.total_cols, dtype=bool)
    if n_art:
        try:
            tab.run(phase1, allowed)
        except _Unbounded:  # pragma: no cover - phase 1 objective is bounded
            raise NumericalBreakdown("phase 1 reported unbounded")
        art_values = tab.solution()[arts:]
        if art_values.sum() > feas_tol * max(1.0, np.abs(r).max(initial=1.0)):
            return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)
        tab.drive_out_artificials()
        allowed[arts:] = False

    try:
        tab.run(phase2, allowed)
    except _Unbounded:
        return LpOutcome(LpStatus.UNBOUNDED, iterations=tab.iterations)

    z = sf.original(tab.solution())
    resid, scale = _violations(lp, sf, z[None], None if lp.b_eq is None else lp.b_eq[None])
    if (resid > feas_tol * scale)[0]:
        raise NumericalBreakdown(f"optimal point violates constraints by {resid[0]:.3e}")
    objective = float(lp.c @ z)
    return LpOutcome(LpStatus.OPTIMAL, z=z, objective=objective, iterations=tab.iterations)


def solve_batch(
    lp: LinearProgram, *, b_eq, feas_tol: float = DEFAULT_FEAS_TOL
) -> list[LpOutcome]:
    """:func:`solve` of ``lp`` with ``b_eq`` replaced by each row of ``b_eq``.

    The (L, k) stack of right-hand sides is solved as one stack of
    tableaux, pivoted together with Dantzig's rule.  Each outcome, with its
    iteration count and ``z``, is bit for bit that of the lone solve: every
    lane in the stack makes the same choices, and any other lane is solved
    alone from the start, after the stacks and in lane order.  Raises what
    the lone solve of the first lane that raises would raise.
    """
    b_eq = np.asarray(b_eq, dtype=float)
    k = 0 if lp.A_eq is None else lp.A_eq.shape[0]
    if lp.A_eq is None or b_eq.ndim != 2 or b_eq.shape[1] != k:
        raise DimensionMismatch(f"b_eq must be a stack of shape (L, {k})")
    if not np.all(np.isfinite(b_eq)):
        raise ValueError("LP data must be finite")
    sf = lp._standard
    R = sf.rhs(lp.b_in, b_eq)
    arts = sum(sf.T.shape)  # the first artificial column
    outcomes: list = [None] * len(b_eq)
    alone: list = []

    counts = (R < 0).sum(axis=1)
    for count in np.bincount(counts).nonzero()[0]:
        lanes = (counts == count).nonzero()[0]
        A, basis, n_art = _initial_tableaux(sf.T, R[lanes])
        stack = _TableauStack(A, basis, lanes, n_art, alone)
        phase1, phase2 = _phase_costs(sf, A.shape[2] - 1, arts)
        allowed = np.ones(A.shape[2] - 1, dtype=bool)
        if n_art:
            stack, Y = stack.run(phase1, allowed).solutions()
            art_sums = Y[:, arts:].sum(axis=1)
            scale = np.abs(R[stack.lanes]).max(axis=1, initial=1.0)
            stack = stack.leave(art_sums > feas_tol * scale)
            stack.drive_out()
            allowed[arts:] = False
        stack, Y = stack.run(phase2, allowed).solutions()
        Z = sf.original(Y)
        resid, scale = _violations(lp, sf, Z, b_eq[stack.lanes])
        violated = resid > feas_tol * scale  # the lone solve raises on these
        stack = stack.leave(violated)
        Z = Z[~violated]
        objective = (Z[:, None, :] @ lp.c[:, None])[:, 0, 0]
        for i, lane in enumerate(stack.lanes.tolist()):
            outcomes[lane] = LpOutcome(
                LpStatus.OPTIMAL,
                z=Z[i],
                objective=float(objective[i]),
                iterations=int(stack.iterations[i]),
            )
    for lane in sorted(alone):
        outcomes[lane] = solve(replace(lp, b_eq=b_eq[lane]), feas_tol=feas_tol)
    return outcomes


def _violations(lp: LinearProgram, sf: _StandardForm, Z: np.ndarray, B_eq):
    """How far each row of ``Z`` violates the constraints of ``lp``, with
    the same row of ``B_eq`` as ``b_eq``, and the scale it is judged by."""
    scale = max(1.0, np.abs(lp.b_in).max(initial=0.0))
    resid = np.maximum(sf.lower - Z, Z - sf.upper).max(axis=1, initial=0.0)
    if len(lp.A_in):
        rows = (lp.A_in @ Z[:, :, None])[:, :, 0] - lp.b_in
        resid = np.maximum(resid, rows.max(axis=1))
    if lp.A_eq is not None and lp.A_eq.size:
        rows = np.abs((lp.A_eq @ Z[:, :, None])[:, :, 0] - B_eq)
        resid = np.maximum(resid, rows.max(axis=1))
        scale = np.maximum(scale, np.abs(B_eq).max(axis=1, initial=0.0))
    return resid, scale
