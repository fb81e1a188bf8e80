"""Deterministic dense linear-programming core.

A small two-phase tableau simplex.  The default pricing picks the most
negative reduced cost and falls back to Bland's anti-cycling rule on
degenerate stalls; pure Bland pivoting is available via ``pivot_rule``.
Either way the solver is a pure function of its input: fixed rules, no
randomized perturbation, so repeated calls on identical data return
bit-identical solutions.  That determinism is what the rest of the
toolbox leans on to make policy synthesis single-valued.

Problem form::

    minimize    c @ z
    subject to  A_in @ z <= b_in
                A_eq @ z == b_eq        (optional)
                lo_k <= z_k <= hi_k     (optional, per variable)

Intended for small dense problems (hundreds of rows); there is no sparse
path and no factorization reuse between solves.  What a program's
right-hand side does not touch (its standard form) is built on the first
solve and kept; :meth:`LinearProgram.with_rhs` gives the same program with
a new ``b_in``/``b_eq`` that shares it, so a family of programs differing
only in their right-hand side (the vertex decomposition of
:mod:`invarcert.geometry`) is validated and converted once.
"""

from dataclasses import dataclass
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

    def with_rhs(self, *, b_in=None, b_eq=None) -> "LinearProgram":
        """This program with ``b_in`` and/or ``b_eq`` replaced.

        The cost, the matrices and the bounds are shared, not copied or
        validated again, and so is their standard form, which is built once
        for all the variants.  Only the new right-hand side is checked.
        """
        self._standard  # built here, so every copy shares it
        new = object.__new__(LinearProgram)
        new.__dict__.update(self.__dict__)
        for matrix, name, value in (("A_in", "b_in", b_in), ("A_eq", "b_eq", b_eq)):
            if value is None:
                continue
            rows = getattr(self, matrix)
            value = np.asarray(value, dtype=float).ravel()
            if rows is None or rows.shape[0] != value.size:
                raise DimensionMismatch(f"{matrix} and {name} row counts differ")
            if not np.all(np.isfinite(value)):
                raise ValueError("LP data must be finite")
            object.__setattr__(new, name, value)
        return new


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
    every :meth:`LinearProgram.with_rhs` variant of a program.
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

    def rhs(self, lp: "LinearProgram") -> np.ndarray:
        parts = [lp.b_in - self.in_offset]
        if self.eq_offset is not None:
            # equalities as paired inequalities; keeps every row the same shape
            e = lp.b_eq - self.eq_offset
            parts += [e, -e]
        parts.append(self.caps)
        return np.concatenate(parts)

    def original(self, y: np.ndarray) -> np.ndarray:
        z = y[self.pos_col]
        z[self.split] -= y[self.neg_col[self.split]]
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


class _Tableau:
    """Simplex tableau; every pivot choice is deterministic."""

    # entering / ratio-test eligibility floor; smaller pivots (down to
    # DEFAULT_PIVOT_TOL) are used only when nothing larger is available
    STABLE_PIVOT = 1e-9
    # consecutive non-improving iterations before switching to Bland's rule
    # under the default "dantzig-bland" pivot rule; 0 means Bland throughout
    stall_limit = 40

    def __init__(self, T, r, max_iterations):
        m, n = T.shape
        self.n_struct = n
        self.max_iterations = max_iterations
        self.iterations = 0

        # rows with negative rhs are flipped so the rhs column is >= 0;
        # their slacks then enter with coefficient -1 and need artificials
        flip = r < 0
        sign = np.where(flip, -1.0, 1.0)
        art_rows = flip.nonzero()[0]
        self.n_slack = m
        self.n_art = n_art = art_rows.size
        slacks = n + np.arange(m)
        arts = n + m + np.arange(n_art)

        # columns: structural body, slacks, artificials, right-hand side
        self.A = np.zeros((m, n + m + n_art + 1))
        np.multiply(T, sign[:, None], out=self.A[:, :n])
        self.A[np.arange(m), slacks] = sign
        self.A[art_rows, arts] = 1.0
        np.multiply(r, sign, out=self.A[:, -1])
        # pristine copy for the final refactorized basis solve
        self.original = self.A.copy()
        self.basis = slacks
        self.basis[art_rows] = arts

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
        stall = 0
        last_objective = np.inf
        A = self.A
        priced = cost[: self.total_cols]
        cb = cost[self.basis]
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
                    raise _Unbounded(col)
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
        columns; rows that admit no pivot are redundant and zeroed."""
        limit = self.n_struct + self.n_slack
        # a pivot changes only the basic variable of its own row
        for row in (self.basis >= limit).nonzero()[0].tolist():
            entries = np.abs(self.A[row, :limit])
            col = int(entries.argmax())
            if entries[col] > DEFAULT_PIVOT_TOL:
                self._pivot(row, col)
            else:
                self.A[row, :-1] = 0.0  # redundant row

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
    def __init__(self, col):
        self.col = col


def solve(
    lp: LinearProgram,
    *,
    feas_tol: float = DEFAULT_FEAS_TOL,
    pivot_rule: str = "dantzig-bland",
    max_iterations: int | None = None,
) -> LpOutcome:
    """Solve ``lp`` with the two-phase simplex.

    ``pivot_rule`` is "dantzig-bland" (most-negative entering column with
    an automatic switch to Bland's rule on degenerate stalls; the default)
    or "bland" (Bland's rule throughout).  Both are fully deterministic.

    Returns an :class:`LpOutcome`; an ``OPTIMAL`` outcome is rechecked for
    primal feasibility within ``feas_tol`` before being reported.  Raises
    :class:`NumericalBreakdown` on pivot failure and
    :class:`MaxIterationsExceeded` past the iteration cap.
    """
    if pivot_rule not in ("dantzig-bland", "bland"):
        raise ValueError(f"unknown pivot rule '{pivot_rule}'")
    sf = lp._standard
    r = sf.rhs(lp)
    m, n = sf.T.shape
    if max_iterations is None:
        max_iterations = 200 * (m + n + 10)

    tab = _Tableau(sf.T, r, max_iterations)
    if pivot_rule == "bland":
        tab.stall_limit = 0
    allowed = np.ones(tab.total_cols, dtype=bool)

    if tab.n_art > 0:
        phase1 = np.zeros(tab.total_cols)
        phase1[tab.n_struct + tab.n_slack :] = 1.0
        try:
            tab.run(phase1, allowed)
        except _Unbounded:  # pragma: no cover - phase 1 objective is bounded
            raise NumericalBreakdown("phase 1 reported unbounded")
        art_values = tab.solution()[tab.n_struct + tab.n_slack :]
        if art_values.sum() > feas_tol * max(1.0, np.abs(r).max(initial=1.0)):
            return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)
        tab.drive_out_artificials()
        allowed[tab.n_struct + tab.n_slack :] = False

    phase2 = np.zeros(tab.total_cols)
    phase2[: sf.c.size] = sf.c
    try:
        tab.run(phase2, allowed)
    except _Unbounded:
        return LpOutcome(LpStatus.UNBOUNDED, iterations=tab.iterations)

    z = sf.original(tab.solution())
    _check_primal(lp, sf, z, feas_tol)
    return LpOutcome(
        LpStatus.OPTIMAL,
        z=z,
        objective=float(lp.c @ z),
        iterations=tab.iterations,
    )


def _check_primal(
    lp: LinearProgram, sf: _StandardForm, z: np.ndarray, feas_tol: float
) -> None:
    scale = max(1.0, float(np.abs(lp.b_in).max(initial=0.0)))
    resid = float((lp.A_in @ z - lp.b_in).max(initial=0.0))
    if lp.A_eq is not None and lp.A_eq.size:
        resid = max(resid, float(np.abs(lp.A_eq @ z - lp.b_eq).max()))
        scale = max(scale, float(np.abs(lp.b_eq).max(initial=0.0)))
    resid = max(
        resid,
        float((sf.lower - z).max(initial=-np.inf)),
        float((z - sf.upper).max(initial=-np.inf)),
    )
    if resid > feas_tol * scale:
        raise NumericalBreakdown(
            f"optimal point violates constraints by {resid:.3e}"
        )
