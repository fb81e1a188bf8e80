"""The dual simplex solve of ``lp_core`` as a solver of its own.

``solve_dual`` takes programs with a nonnegative cost; each case here is
checked against the two-phase ``solve``, and the small ones against the
exhaustive oracle of ``tests/lp_oracle.py``.
"""

import math

import numpy as np
import pytest

from invarcert import lp_core
from invarcert.errors import MaxIterationsExceeded, NumericalBreakdown
from invarcert.lp_core import LinearProgram, LpStatus, solve, solve_dual

from lp_oracle import enumerate_optimum


ORACLE_BASES = 5000  # the most row subsets the oracle may enumerate per program


def _oracle(lp):
    """``enumerate_optimum`` of ``lp`` over ``0 <= z <= 1e6`` (every optimum
    of these programs lies well inside the box), or None for a program with
    more than :data:`ORACLE_BASES` row subsets."""
    m, n = lp.A_in.shape
    if math.comb(m + 2 * n, n) > ORACLE_BASES:
        return None
    return enumerate_optimum(lp.c, lp.A_in, lp.b_in, np.zeros(n), np.full(n, 1e6))


def _agree(lp):
    """``solve_dual`` of ``lp``, after checking it against ``solve`` and,
    if small, the oracle: the same status and, at an optimum, the same
    objective."""
    dual, primal = solve_dual(lp), solve(lp)
    assert dual.status is primal.status
    if dual.is_optimal:
        assert dual.objective == pytest.approx(primal.objective, abs=1e-9)
    oracle = _oracle(lp)
    if oracle is not None:
        status, best = oracle
        assert dual.status.value == status
        if dual.is_optimal:
            assert dual.objective == pytest.approx(best, abs=1e-9)
    if dual.is_optimal:
        assert (lp.A_in @ dual.z - lp.b_in).max(initial=0.0) <= 1e-9
        assert dual.z.min() >= 0.0
    return dual


def _one_norm(A, b):
    """The working LP of constraint generation: ``z = p - q`` minimizing
    ``sum(p + q)`` subject to ``A z <= b``."""
    A = np.asarray(A, dtype=float)
    return LinearProgram(c=np.ones(2 * A.shape[1]), A_in=np.hstack([A, -A]), b_in=b)


def _random_one_norm(rng, feasible=True):
    n = int(rng.integers(1, 4))
    A = rng.normal(size=(int(rng.integers(1, 7)), n))
    if feasible:
        b = A @ rng.normal(size=n) + rng.uniform(0.0, 0.5, len(A))
        b[: int(rng.integers(0, 3))] -= rng.uniform(0.0, 0.5)  # maybe infeasible rows
    else:
        b = rng.normal(size=len(A))
    return _one_norm(A, b)


def test_all_slack_program_takes_no_pivot():
    # b >= 0: the slack basis is primal feasible, and z = 0 is optimal
    lp = LinearProgram(c=[1.0, 2.0], A_in=[[1.0, -1.0], [-3.0, 1.0]], b_in=[2.0, 0.0])
    out = _agree(lp)
    assert out.iterations == 0
    assert out.z.tobytes() == np.zeros(2).tobytes() and out.objective == 0.0


def test_one_row_program():
    # z1 + 3 z2 >= 3: the dual ratio test picks the column of least cost
    # per unit of the row, 1/3 for z2 against 2/1 for z1
    lp = LinearProgram(c=[2.0, 1.0], A_in=[[-1.0, -3.0]], b_in=[-3.0])
    out = _agree(lp)
    assert out.iterations == 1
    assert out.z.tolist() == [0.0, 1.0] and out.objective == 1.0


def test_duplicate_and_opposite_rows():
    # z1 + z2 = 1 stated as two opposite rows, each duplicated and scaled:
    # after the first pivot every other row is round-off away from zero
    a = np.array([1.0, 1.0])
    A = np.vstack([-a, -a, -2.5 * a, a, 0.2 * a, a])
    b = np.array([-1.0, -1.0, -2.5, 1.0, 0.2, 1.0])
    out = _agree(LinearProgram(c=[1.0, 3.0], A_in=A, b_in=b))
    assert out.z.tolist() == [1.0, 0.0]
    # the same equality on a row scale that leaves round-off in the
    # opposite row (the path network's working LPs do this)
    rng = np.random.default_rng(3)
    for _ in range(50):
        row = rng.normal(size=3)
        scales = rng.uniform(0.05, 3.0, 4) * np.array([1.0, -1.0, 1.0, -1.0])
        lp = _one_norm(scales[:, None] * row, scales * rng.normal())
        assert _agree(lp).is_optimal


def test_degenerate_vertex():
    # more rows than columns pass through the optimum z = (1, 1)
    A = -np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    b = -np.array([1.0, 1.0, 2.0, 3.0, 3.0])
    out = _agree(LinearProgram(c=[1.0, 1.0], A_in=A, b_in=b))
    assert out.z.tolist() == [1.0, 1.0]


def test_infeasible_programs():
    # z <= -1 is its own proof; z >= 2 and z <= 1, or z1 + z2 >= 3 with
    # z1, z2 <= 1, exclude every point only together, which the leaving row
    # reveals after a pivot
    out = _agree(LinearProgram(c=[1.0], A_in=[[1.0]], b_in=[-1.0]))
    assert out.status is LpStatus.INFEASIBLE and out.iterations == 0
    out = _agree(LinearProgram(c=[1.0], A_in=[[-1.0], [1.0]], b_in=[-2.0, 1.0]))
    assert out.status is LpStatus.INFEASIBLE and out.iterations == 1
    lp = LinearProgram(
        c=[1.0, 1.0], A_in=[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], b_in=[-3.0, 1.0, 1.0]
    )
    out = _agree(lp)
    assert out.status is LpStatus.INFEASIBLE and out.iterations >= 1
    rng = np.random.default_rng(8)
    statuses = {_agree(_random_one_norm(rng, feasible=False)).status for _ in range(60)}
    assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}


def test_repeated_solves_are_bit_identical():
    rng = np.random.default_rng(12)
    for _ in range(20):
        lp = _random_one_norm(rng)
        first, second = solve_dual(lp), solve_dual(lp)
        assert first.status is second.status and first.iterations == second.iterations
        if first.is_optimal:
            assert first.z.tobytes() == second.z.tobytes()
            assert first.objective == second.objective


def test_bland_rule_throughout_reaches_the_same_optimum(monkeypatch):
    rng = np.random.default_rng(29)
    programs = [_random_one_norm(rng) for _ in range(40)]
    default = [solve_dual(lp) for lp in programs]
    monkeypatch.setattr(lp_core._Tableau, "stall_limit", 0)
    bland = [solve_dual(lp) for lp in programs]
    assert any(a.iterations != b.iterations for a, b in zip(default, bland))
    for a, b in zip(default, bland):
        assert a.status is b.status
        if a.is_optimal:
            assert np.abs(a.z - b.z).max() <= 1e-12


def test_iteration_cap_raises(monkeypatch):
    lp = _one_norm([[1.0, 2.0], [-1.0, 1.0], [3.0, -1.0]], [-1.0, -1.0, -2.0])
    assert solve_dual(lp).iterations > 1
    monkeypatch.setattr(lp_core, "_max_iterations", lambda m, n: 1)
    with pytest.raises(MaxIterationsExceeded, match="^simplex exceeded 1 iterations$"):
        solve_dual(lp)
    # an optimum that needs no more pivots than the cap is reported
    monkeypatch.setattr(lp_core, "_max_iterations", lambda m, n: 0)
    assert solve_dual(_one_norm([[1.0]], [1.0])).iterations == 0


def test_negative_cost_is_refused():
    lp = LinearProgram(c=[1.0, -0.5, -2.0], A_in=[[1.0, 1.0, 1.0]], b_in=[1.0])
    with pytest.raises(ValueError, match=r"^solve_dual needs a nonnegative cost; c\[1\] = "):
        solve_dual(lp)


def test_leaving_row_without_a_stable_pivot_raises(monkeypatch):
    # the ratio test takes only entries below -STABLE_PIVOT; a row whose
    # negative entries are all smaller is neither a pivot nor a proof of
    # infeasibility
    monkeypatch.setattr(lp_core._Tableau, "STABLE_PIVOT", 10.0)
    lp = LinearProgram(c=[1.0], A_in=[[-1.0]], b_in=[-1.0])
    with pytest.raises(
        NumericalBreakdown, match="^no pivot above the stability threshold in the leaving row$"
    ):
        solve_dual(lp)


def test_optimum_that_violates_a_row_raises(monkeypatch):
    # the optimum is read from the pristine basis solve; a basis solve that
    # returns a point outside the program is a numerical fault
    def wrong(tableaux, rhs, width):
        return np.zeros((len(tableaux), width)), np.zeros(len(tableaux), dtype=bool)

    monkeypatch.setattr(lp_core, "_solutions", wrong)
    lp = LinearProgram(c=[1.0], A_in=[[-1.0]], b_in=[-1.0])
    with pytest.raises(NumericalBreakdown, match=r"^optimal point violates constraints by 1\.000e\+00$"):
        solve_dual(lp)
