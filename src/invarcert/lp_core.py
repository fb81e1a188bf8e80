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
path and no factorization reuse.
"""

from dataclasses import dataclass, field
from enum import Enum

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
    entries (or a ``None`` list) mean free / unbounded on that side.
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


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    z: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


@dataclass
class _StandardForm:
    """min c@y, T y <= r, y >= 0, plus the map back to original variables."""

    c: np.ndarray
    T: np.ndarray
    r: np.ndarray
    # y = pos part - neg part + shift, per original variable
    pos_col: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    neg_col: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    shift: np.ndarray = field(default_factory=lambda: np.empty(0))


def _to_standard_form(lp: LinearProgram) -> _StandardForm:
    n = lp.n_vars
    bounds = lp.bounds if lp.bounds is not None else [None] * n
    pos_col = np.full(n, -1, dtype=int)
    neg_col = np.full(n, -1, dtype=int)
    shift = np.zeros(n)

    cols = 0
    upper = []  # (std col, cap) for finite upper bounds
    for k in range(n):
        b = bounds[k]
        lo = None if b is None else b[0]
        hi = None if b is None else b[1]
        if lo is None:
            # free below: split into difference of two nonnegatives
            pos_col[k] = cols
            neg_col[k] = cols + 1
            cols += 2
        else:
            shift[k] = lo
            pos_col[k] = cols
            cols += 1
        if hi is not None:
            if lo is not None and hi < lo:
                raise ValueError(f"bound lo > hi for variable {k}")
            upper.append((k, hi))

    def expand(matrix: np.ndarray) -> np.ndarray:
        out = np.zeros((matrix.shape[0], cols))
        for k in range(n):
            out[:, pos_col[k]] += matrix[:, k]
            if neg_col[k] >= 0:
                out[:, neg_col[k]] -= matrix[:, k]
        return out

    rows = [expand(lp.A_in)]
    rhs = [lp.b_in - lp.A_in @ shift]
    if lp.A_eq is not None:
        # equalities as paired inequalities; keeps every row the same shape
        E = expand(lp.A_eq)
        e = lp.b_eq - lp.A_eq @ shift
        rows.extend([E, -E])
        rhs.extend([e, -e])
    for k, hi in upper:
        row = np.zeros(cols)
        row[pos_col[k]] = 1.0
        if neg_col[k] >= 0:
            row[neg_col[k]] = -1.0
        rows.append(row[None, :])
        rhs.append(np.array([hi - shift[k]]))

    c_std = np.zeros(cols)
    for k in range(n):
        c_std[pos_col[k]] += lp.c[k]
        if neg_col[k] >= 0:
            c_std[neg_col[k]] -= lp.c[k]

    return _StandardForm(
        c=c_std,
        T=np.vstack(rows) if rows else np.zeros((0, cols)),
        r=np.concatenate(rhs) if rhs else np.zeros(0),
        pos_col=pos_col,
        neg_col=neg_col,
        shift=shift,
    )


class _Tableau:
    """Simplex tableau; every pivot choice is deterministic."""

    # entering / ratio-test eligibility floor; pivots between pivot_tol and
    # this are used only when nothing larger is available
    STABLE_PIVOT = 1e-9
    # consecutive non-improving iterations before switching to Bland's rule
    # under the default "dantzig-bland" pivot rule; 0 means Bland throughout
    stall_limit = 40

    def __init__(self, T, r, pivot_tol, max_iterations):
        m, n = T.shape
        self.m, self.n_struct = m, n
        self.pivot_tol = pivot_tol
        self.max_iterations = max_iterations
        self.iterations = 0

        # rows with negative rhs are flipped so the rhs column is >= 0;
        # their slacks then enter with coefficient -1 and need artificials
        flip = r < 0
        sign = np.where(flip, -1.0, 1.0)
        body = T * sign[:, None]
        slack = np.diag(sign)
        rhs = r * sign

        art_rows = np.flatnonzero(flip)
        n_art = art_rows.size
        art = np.zeros((m, n_art))
        art[art_rows, np.arange(n_art)] = 1.0

        self.n_slack = m
        self.n_art = n_art
        self.A = np.hstack([body, slack, art, rhs[:, None]])
        # pristine copy for the final refactorized basis solve
        self.original = self.A.copy()
        self.basis = np.empty(m, dtype=int)
        self.basis[:] = n + np.arange(m)  # slacks
        self.basis[art_rows] = n + m + np.arange(n_art)  # artificials

    @property
    def total_cols(self) -> int:
        return self.n_struct + self.n_slack + self.n_art

    def _price(self, cost: np.ndarray) -> np.ndarray:
        # reduced costs of all columns under the current basis
        cb = cost[self.basis]
        return cost[: self.total_cols] - cb @ self.A[:, :-1]

    def _pivot(self, row: int, col: int) -> None:
        piv = self.A[row, col]
        if abs(piv) < self.pivot_tol:
            raise NumericalBreakdown(f"pivot {piv:.3e} below threshold")
        self.A[row] /= piv
        factors = self.A[:, col].copy()
        factors[row] = 0.0
        self.A -= np.outer(factors, self.A[row])
        self.A[:, col] = 0.0
        self.A[row, col] = 1.0
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
        while True:
            if self.iterations >= self.max_iterations:
                raise MaxIterationsExceeded(
                    f"simplex exceeded {self.max_iterations} iterations"
                )
            rc = self._price(cost)
            eligible = np.flatnonzero(allowed & (rc < -self.STABLE_PIVOT))
            if eligible.size == 0:
                return
            if stall >= self.stall_limit:
                order = eligible  # Bland: ascending variable index
            else:
                order = eligible[np.argsort(rc[eligible], kind="stable")]
            row = col = None
            saw_weak_only = False
            for candidate in order:
                candidate_row = self._leaving_row(int(candidate))
                if candidate_row is None:
                    column = self.A[:, candidate]
                    if np.all(column <= self.pivot_tol):
                        raise _Unbounded(int(candidate))
                    saw_weak_only = True  # only sub-threshold pivots here
                    continue
                row, col = candidate_row, int(candidate)
                break
            if col is None:
                if saw_weak_only:
                    raise NumericalBreakdown(
                        "no pivot above the stability threshold in any "
                        "improving column"
                    )
                return  # pragma: no cover - eligible was nonempty
            self._pivot(row, col)
            self.iterations += 1
            objective = cost[self.basis] @ self.A[:, -1]
            if objective < last_objective - self.STABLE_PIVOT:
                stall = 0
                last_objective = objective
            else:
                stall += 1

    def _leaving_row(self, col: int) -> int | None:
        column = self.A[:, col]
        rows = np.flatnonzero(column > self.STABLE_PIVOT)
        if rows.size == 0:
            return None
        ratios = self.A[rows, -1] / column[rows]
        best = ratios.min()
        window = self.pivot_tol * max(1.0, abs(best))
        tied = rows[ratios <= best + window]
        # prefer the largest pivot (stability), then the lowest basis index
        strongest = column[tied].max()
        tied = tied[column[tied] >= strongest * (1.0 - 1e-9)]
        return int(tied[np.argmin(self.basis[tied])])

    def drive_out_artificials(self) -> None:
        """Pivot basic artificials (at value zero) onto structural or slack
        columns; rows that admit no pivot are redundant and zeroed."""
        limit = self.n_struct + self.n_slack
        for row in range(self.m):
            if self.basis[row] < limit:
                continue
            entries = np.abs(self.A[row, :limit])
            col = int(np.argmax(entries))
            if entries[col] > self.pivot_tol:
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
            if not np.all(np.isfinite(values)):
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
    pivot_tol: float = DEFAULT_PIVOT_TOL,
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
    sf = _to_standard_form(lp)
    m, n = sf.T.shape
    if max_iterations is None:
        max_iterations = 200 * (m + n + 10)

    tab = _Tableau(sf.T, sf.r, pivot_tol, max_iterations)
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
        if art_values.sum() > feas_tol * max(1.0, np.abs(sf.r).max(initial=1.0)):
            return LpOutcome(LpStatus.INFEASIBLE, iterations=tab.iterations)
        tab.drive_out_artificials()
        allowed[tab.n_struct + tab.n_slack :] = False

    phase2 = np.zeros(tab.total_cols)
    phase2[: sf.c.size] = sf.c
    try:
        tab.run(phase2, allowed)
    except _Unbounded:
        return LpOutcome(LpStatus.UNBOUNDED, iterations=tab.iterations)

    y = tab.solution()
    z = np.empty(lp.n_vars)
    for k in range(lp.n_vars):
        val = y[sf.pos_col[k]]
        if sf.neg_col[k] >= 0:
            val -= y[sf.neg_col[k]]
        z[k] = val + sf.shift[k]

    _check_primal(lp, z, feas_tol)
    return LpOutcome(
        LpStatus.OPTIMAL,
        z=z,
        objective=float(lp.c @ z),
        iterations=tab.iterations,
    )


def _check_primal(lp: LinearProgram, z: np.ndarray, feas_tol: float) -> None:
    scale = max(1.0, float(np.abs(lp.b_in).max(initial=0.0)))
    resid = float((lp.A_in @ z - lp.b_in).max(initial=0.0))
    if lp.A_eq is not None and lp.A_eq.size:
        resid = max(resid, float(np.abs(lp.A_eq @ z - lp.b_eq).max()))
        scale = max(scale, float(np.abs(lp.b_eq).max(initial=0.0)))
    if lp.bounds is not None:
        for k, b in enumerate(lp.bounds):
            if b is None:
                continue
            lo, hi = b
            if lo is not None:
                resid = max(resid, lo - z[k])
            if hi is not None:
                resid = max(resid, z[k] - hi)
    if resid > feas_tol * scale:
        raise NumericalBreakdown(
            f"optimal point violates constraints by {resid:.3e}"
        )
