"""Differential test of the simplex core against HiGHS.

Every case is a seeded family of small LPs that stresses one part of the
solver: degenerate vertices, Klee-Minty cubes, duplicate and
near-parallel rows, free variables, equality rows and upper bounds.
HiGHS solves each program with its bounds; the simplex core solves it
over ``z >= 0``, with free variables split and other bounds as rows
(:func:`lp_forms.nonnegative`).  The status must match
``scipy.optimize.linprog(method="highs")`` and optimal objectives must
agree within ``1e-7 * max(1, |objective|)``.

The same corpus, with the cost of each program over ``z >= 0`` replaced
by its absolute value, runs through both solves of the core: the
two-phase ``solve`` and the dual simplex ``solve_dual``, which takes only
a nonnegative cost.  HiGHS solves that program over ``z >= 0`` too, and
the exhaustive oracle of ``lp_oracle.py`` checks the small ones.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from invarcert.lp_core import LinearProgram, LpStatus, solve, solve_dual

from lp_forms import nonnegative
from lp_oracle import enumerate_optimum

HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
PER_CASE = 40
ORACLE_BASES = 3000  # the most row subsets the oracle may enumerate per program


def _feasible_rhs(rng, A, x0, tight):
    """Right-hand side with ``x0`` feasible and the first ``tight`` rows
    active at ``x0``."""
    slack = rng.uniform(0.1, 1.0, A.shape[0])
    slack[:tight] = 0.0
    return A @ x0 + slack


def degenerate(rng):
    # more rows active at one vertex than there are variables
    n = int(rng.integers(2, 5))
    A = rng.integers(-3, 4, size=(n + int(rng.integers(2, 5)), n)).astype(float)
    x0 = rng.integers(0, 3, n).astype(float)
    b = _feasible_rhs(rng, A, x0, tight=A.shape[0] - 1)
    c = rng.integers(-3, 4, n).astype(float)
    return dict(c=c, A_in=A, b_in=b, bounds=[(0.0, 4.0)] * n)


def klee_minty_cube(n):
    # max sum 2^(n-j) x_j s.t. 2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i, x >= 0;
    # the optimum is 5^n, reached by Dantzig's rule after 2^n - 1 pivots
    A = np.eye(n)
    for i in range(n):
        for j in range(i):
            A[i, j] = 2.0 ** (i - j + 1)
    c = -(2.0 ** np.arange(n - 1, -1, -1))
    b = 5.0 ** np.arange(1, n + 1)
    return dict(c=c, A_in=A, b_in=b, bounds=[(0.0, None)] * n)


def klee_minty(rng):
    return klee_minty_cube(int(rng.integers(2, 7)))


def duplicate_rows(rng):
    n = int(rng.integers(2, 5))
    base = rng.normal(size=(int(rng.integers(2, 5)), n))
    scale = rng.uniform(0.5, 2.0, (base.shape[0], 1))
    A = np.vstack([base, base, scale * base])
    x0 = rng.normal(size=n)
    b = _feasible_rhs(rng, base, x0, tight=1)
    b = np.concatenate([b, b, scale[:, 0] * b])
    return dict(c=rng.normal(size=n), A_in=A, b_in=b, bounds=[(-3.0, 3.0)] * n)


def near_parallel_rows(rng):
    n = int(rng.integers(2, 5))
    base = rng.normal(size=(int(rng.integers(2, 5)), n))
    A = np.vstack([base, base + 1e-9 * rng.normal(size=base.shape)])
    b = _feasible_rhs(rng, A, rng.normal(size=n), tight=0)
    return dict(c=rng.normal(size=n), A_in=A, b_in=b, bounds=[(-3.0, 3.0)] * n)


def free_variables(rng):
    # no bounds at all: bounded, unbounded or infeasible by the rows alone
    n = int(rng.integers(1, 5))
    A = rng.normal(size=(int(rng.integers(1, 2 * n + 3)), n))
    return dict(c=rng.normal(size=n), A_in=A, b_in=rng.normal(size=A.shape[0]))


def equalities(rng):
    n = int(rng.integers(2, 6))
    A = rng.normal(size=(int(rng.integers(0, 5)), n))
    A_eq = rng.normal(size=(int(rng.integers(1, n)), n))
    x0 = rng.uniform(-1.0, 1.0, n)
    b_eq = A_eq @ x0 if rng.uniform() < 0.8 else 5.0 * rng.normal(size=len(A_eq))
    return dict(
        c=rng.normal(size=n),
        A_in=A,
        b_in=_feasible_rhs(rng, A, x0, tight=0),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(-2.0, 2.0) if k % 2 else None for k in range(n)],
    )


def upper_bounds(rng):
    n = int(rng.integers(1, 6))
    kinds = [(None, 1.0), (-1.0, 2.0), (0.0, None), (None, None), (0.5, 0.5)]
    bounds = [kinds[int(k)] for k in rng.integers(0, len(kinds), n)]
    A = rng.normal(size=(int(rng.integers(0, 6)), n))
    b = rng.normal(size=len(A)) + 1.0
    return dict(c=rng.normal(size=n), A_in=A, b_in=b, bounds=bounds)


CASES = {
    "degenerate": degenerate,
    "klee-minty": klee_minty,
    "duplicate-rows": duplicate_rows,
    "near-parallel-rows": near_parallel_rows,
    "free-variables": free_variables,
    "equalities": equalities,
    "upper-bounds": upper_bounds,
}


def _highs(data):
    n = len(data["c"])
    bounds = data.get("bounds") or [None] * n
    rows = len(data["A_in"]) > 0
    problem = dict(
        A_ub=data["A_in"] if rows else None,
        b_ub=data["b_in"] if rows else None,
        A_eq=data.get("A_eq"),
        b_eq=data.get("b_eq"),
        bounds=[(None, None) if b is None else b for b in bounds],
        method="highs",
    )
    ref = linprog(data["c"], **problem)
    if ref.status == 2 and linprog(np.zeros(n), **problem).status == 0:
        # HiGHS's presolve reports some unbounded programs as infeasible
        # although they have a feasible point (one upper-bounds program)
        return LpStatus.UNBOUNDED, None
    return HIGHS_STATUS[ref.status], ref.fun


@pytest.mark.parametrize("case", list(CASES))
def test_simplex_agrees_with_highs(case):
    rng = np.random.default_rng(sorted(CASES).index(case))
    seen = set()
    for trial in range(PER_CASE):
        data = CASES[case](rng)
        status, objective = _highs(data)
        mine = solve(LinearProgram(**nonnegative(**data)[0]))
        assert mine.status is status, f"{case} trial {trial}"
        if status is LpStatus.OPTIMAL:
            gap = abs(mine.objective - objective)
            assert gap <= 1e-7 * max(1.0, abs(objective)), (
                f"{case} trial {trial}: {mine.objective} vs {objective}"
            )
        seen.add(status)
    assert LpStatus.OPTIMAL in seen


@pytest.mark.parametrize("n", range(2, 7))
def test_dantzig_rule_visits_every_klee_minty_vertex(n):
    out = solve(LinearProgram(**nonnegative(**klee_minty_cube(n))[0]))
    assert out.objective == -(5.0**n)
    assert out.iterations == 2**n - 1


@pytest.mark.parametrize("case", list(CASES))
def test_both_solves_agree_on_the_absolute_cost(case):
    # a nonnegative cost over z >= 0 is bounded below: every program is
    # optimal or infeasible
    rng = np.random.default_rng(sorted(CASES).index(case))
    seen, enumerated = set(), 0
    for trial in range(PER_CASE):
        form = nonnegative(**CASES[case](rng))[0]
        lp = LinearProgram(c=np.abs(form["c"]), A_in=form["A_in"], b_in=form["b_in"])
        m, n = lp.A_in.shape
        status, objective = _highs(
            dict(c=lp.c, A_in=lp.A_in, b_in=lp.b_in, bounds=[(0.0, None)] * n)
        )
        if math.comb(m + 2 * n, n) <= ORACLE_BASES:
            # the optimum lies inside the box: the corpus's points are small
            oracle, best = enumerate_optimum(lp.c, lp.A_in, lp.b_in, np.zeros(n), np.full(n, 1e6))
            assert oracle == status.value, f"{case} trial {trial}"
            if best is not None:
                assert abs(best - objective) <= 1e-7 * max(1.0, abs(objective))
            enumerated += 1
        for solver in (solve, solve_dual):
            mine = solver(lp)
            assert mine.status is status, f"{case} trial {trial}: {solver.__name__}"
            if status is LpStatus.OPTIMAL:
                gap = abs(mine.objective - objective)
                assert gap <= 1e-7 * max(1.0, abs(objective)), (
                    f"{case} trial {trial}: {solver.__name__} {mine.objective} vs {objective}"
                )
        seen.add(status)
    assert LpStatus.OPTIMAL in seen
    assert enumerated or case == "duplicate-rows"
