import numpy as np
import pytest

from invarcert import lp_core
from invarcert.lp_core import LinearProgram, LpStatus, solve, solve_batch

from lp_forms import nonnegative
from lp_oracle import enumerate_optimum


def test_bound_is_optimum():
    # minimize z subject to 0 <= z <= 1
    lp = LinearProgram(c=[1.0], A_in=[[1.0]], b_in=[1.0])
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.z[0] == pytest.approx(0.0, abs=1e-12)


def test_bounds_are_refused():
    # every variable is nonnegative; other bounds are rows or splits
    with pytest.raises(TypeError, match="bounds"):
        LinearProgram(c=[1.0], A_in=[[1.0]], b_in=[1.0], bounds=[(0.0, 1.0)])


def test_solutions_carry_no_negative_zero(monkeypatch):
    # the basis solve of this program gives z1 = -0.0; solve reports 0.0
    basic = []
    solutions = lp_core._solutions
    monkeypatch.setattr(
        lp_core, "_solutions", lambda *args: basic.append(solutions(*args)) or basic[-1]
    )
    lp = LinearProgram(c=[-1.0, 1.0], A_in=[[1.0, 1.0], [-2.0, 2.0]], b_in=[0.0, 2.0])
    z = solve(lp).z
    y, broken = basic[-1]
    assert y.shape == (1, 4) and not broken[0]
    assert y[0, 0] == 0.0 and np.signbit(y[0, 0])
    assert z.tobytes() == np.zeros(2).tobytes()


def test_failed_basis_solve_falls_back_to_the_tableau_values(monkeypatch):
    # z1 - z2 = -1, as two opposite rows, needs an artificial, so both the
    # phase-1 test and the optimum read the basic solution; with every basis
    # solve reported failed, both read the tableau values and reach the same
    # optimum
    lp = LinearProgram(
        c=[1.0, 2.0, 0.0],
        A_in=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]],
        b_in=[10.0, -1.0, 1.0],
    )
    exact = solve(lp)
    failed = []

    def failing(tableaux, rhs, width):
        failed.append(width)
        return np.zeros((len(tableaux), width)), np.ones(len(tableaux), dtype=bool)

    monkeypatch.setattr(lp_core, "_solutions", failing)
    out = solve(lp)
    assert len(failed) == 2  # the end of phase 1, then the optimum
    assert out.status is LpStatus.OPTIMAL and out.iterations == exact.iterations
    assert np.allclose(out.z, exact.z, rtol=0.0, atol=1e-12)
    assert exact.z.tolist() == [0.0, 1.0, 0.0]


def test_empty_feasible_set():
    lp = LinearProgram(c=[0.0], A_in=[[1.0]], b_in=[-1.0])
    assert solve(lp).status is LpStatus.INFEASIBLE


def test_simplex_vertex_optimum():
    # minimize -z1 - z2 over the simplex z1 + z2 <= 1, z >= 0; the three
    # basic feasible points are (0,0), (1,0), (0,1) so the optimum is -1
    lp = LinearProgram(c=[-1.0, -1.0], A_in=[[1.0, 1.0]], b_in=[1.0])
    out = solve(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.objective == pytest.approx(-1.0, abs=1e-9)


def test_unbounded():
    lp = LinearProgram(c=[-1.0], A_in=[[-1.0]], b_in=[0.0])
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_equalities_and_free_variables():
    # x1 + x2 = 1 (two opposite rows) with free x, each split into two
    # columns; minimize x1 -> pushed to its inequality cap
    data, P = nonnegative(
        c=[1.0, 0.0], A_in=[[-1.0, 0.0]], b_in=[2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0]
    )
    assert data["A_in"].shape == (3, 4)
    assert data["b_in"].tolist() == [2.0, 1.0, -1.0]
    out = solve(LinearProgram(**data))
    assert out.status is LpStatus.OPTIMAL
    x = P @ out.z
    assert x[0] == pytest.approx(-2.0, abs=1e-9)
    assert x[1] == pytest.approx(3.0, abs=1e-9)


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 3))
    b = rng.normal(size=6) + 1.0
    c = rng.normal(size=3)
    lp = LinearProgram(**nonnegative(c=c, A_in=A, b_in=b, bounds=[(-4.0, 4.0)] * 3)[0])
    first = solve(lp)
    second = solve(lp)
    assert first.z.tobytes() == second.z.tobytes()
    assert first.objective == second.objective
    assert first.iterations == second.iterations


def test_feasibility_certificate_on_random_optima():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 9))
        A = rng.normal(size=(rows, n))
        b = rng.normal(size=rows)
        c = rng.normal(size=n)
        data, P = nonnegative(c=c, A_in=A, b_in=b, bounds=[(-5.0, 5.0)] * n)
        out = solve(LinearProgram(**data))
        if out.status is LpStatus.OPTIMAL:
            x = P @ out.z
            assert (A @ x - b).max() <= 1e-9
            assert np.all(np.abs(x) <= 5.0 + 1e-9)


def test_oracle_agreement_random_lps():
    # exhaustive basic-solution enumeration as the independent oracle
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 9))
        A = rng.normal(size=(rows, n))
        b = rng.normal(size=rows)
        c = rng.normal(size=n)
        lower, upper = -3.0 * np.ones(n), 3.0 * np.ones(n)
        status, best = enumerate_optimum(c, A, b, lower, upper)
        data, _ = nonnegative(c=c, A_in=A, b_in=b, bounds=list(zip(lower, upper)))
        out = solve(LinearProgram(**data))
        if status == "infeasible":
            assert out.status is LpStatus.INFEASIBLE
        else:
            assert out.status is LpStatus.OPTIMAL
            assert out.objective == pytest.approx(best, abs=1e-7)
        checked += 1
    assert checked == 120


def test_rejects_nonfinite_data():
    with pytest.raises(ValueError):
        LinearProgram(c=[np.nan], A_in=[[1.0]], b_in=[1.0])


def test_dimension_mismatch():
    from invarcert.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        LinearProgram(c=[1.0, 2.0], A_in=[[1.0, 0.0]], b_in=[1.0, 2.0])


def _bland(monkeypatch, lp):
    """``solve`` with Bland's rule from the first pivot."""
    with monkeypatch.context() as patch:
        patch.setattr(lp_core._Tableau, "stall_limit", 0)
        return solve(lp)


def test_pure_bland_rule_agrees(monkeypatch):
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        rows = int(rng.integers(1, 7))
        data, _ = nonnegative(
            c=rng.normal(size=n),
            A_in=rng.normal(size=(rows, n)),
            b_in=rng.normal(size=rows),
            bounds=[(-3.0, 3.0)] * n,
        )
        lp = LinearProgram(**data)
        default = solve(lp)
        bland = _bland(monkeypatch, lp)
        assert default.status is bland.status
        if default.status is LpStatus.OPTIMAL:
            assert bland.objective == pytest.approx(default.objective, abs=1e-7)


def test_oracle_agreement_with_equalities():
    # double-inequality equality handling fuzzed against an external solver
    from scipy.optimize import linprog

    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(int(rng.integers(1, 6)), n))
        b = rng.normal(size=A.shape[0])
        A_eq = rng.normal(size=(1, n))
        b_eq = rng.normal(size=1)
        c = rng.normal(size=n)
        bounds = [(-4.0, 4.0)] * n
        data, P = nonnegative(c=c, A_in=A, b_in=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
        mine = solve(LinearProgram(**data))
        ref = linprog(
            c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
        if ref.status == 0:
            assert mine.status is LpStatus.OPTIMAL
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
            assert np.abs(A_eq @ (P @ mine.z) - b_eq).max() <= 1e-8
        elif ref.status == 2:
            assert mine.status is LpStatus.INFEASIBLE


def test_iteration_cap_raises(monkeypatch):
    from invarcert.errors import MaxIterationsExceeded

    rng = np.random.default_rng(6)
    data, _ = nonnegative(
        c=rng.normal(size=4),
        A_in=rng.normal(size=(8, 4)),
        b_in=rng.normal(size=8) + 1.0,
        bounds=[(-2.0, 2.0)] * 4,
    )
    lp = LinearProgram(**data)
    monkeypatch.setattr(lp_core, "_max_iterations", lambda m, n: 1)
    with pytest.raises(MaxIterationsExceeded, match="exceeded 1 iterations"):
        solve(lp)


def _outcome_bytes(out):
    z = None if out.z is None else out.z.tobytes()
    return out.status, out.iterations, z, out.objective


def test_rhs_replacement_matches_a_fresh_build(monkeypatch):
    # free variables (split), one-sided and two-sided bounds (rows),
    # equalities (two opposite rows, whose right-hand sides the lanes
    # replace) and inequalities; every lane of solve_batch must pivot
    # exactly like a fresh program, with Dantzig's rule and with Bland's
    # from the start
    rng = np.random.default_rng(17)
    kinds = [None, (None, 1.5), (-1.0, None), (-2.0, 2.0), (0.0, None), (0.5, 0.5)]
    statuses = set()
    for _ in range(60):
        n = int(rng.integers(2, 6))
        A_in = rng.normal(size=(int(rng.integers(1, 7)), n))
        A_eq = rng.normal(size=(int(rng.integers(1, 3)), n))
        data, _ = nonnegative(
            c=rng.normal(size=n),
            A_in=A_in,
            b_in=rng.normal(size=len(A_in)) + 0.5,
            A_eq=A_eq,
            b_eq=np.zeros(len(A_eq)),
            bounds=[kinds[int(k)] for k in rng.integers(0, len(kinds), n)],
        )
        template = LinearProgram(**data)
        eq = rng.normal(size=(8, len(A_eq)))
        rows = data["b_in"][: -2 * len(A_eq)]
        B = np.hstack([np.broadcast_to(rows, (8, len(rows))), eq, -eq])
        for stall_limit in (lp_core._Tableau.stall_limit, 0):
            with monkeypatch.context() as patch:
                patch.setattr(lp_core._Tableau, "stall_limit", stall_limit)
                got = solve_batch(template, b_in=B)
                want = [solve(LinearProgram(**{**data, "b_in": row})) for row in B]
            assert list(map(_outcome_bytes, got)) == list(map(_outcome_bytes, want))
            statuses.update(out.status for out in got)
        assert np.array_equal(template.b_in, data["b_in"])
    assert statuses == set(LpStatus)


def test_pivot_below_the_threshold_raises(monkeypatch):
    # the ratio test takes only entries above STABLE_PIVOT, which exceeds
    # DEFAULT_PIVOT_TOL; without that floor a 1e-12 entry is the pivot
    from invarcert.errors import NumericalBreakdown

    monkeypatch.setattr(lp_core._Tableau, "STABLE_PIVOT", 0.0)
    lp = LinearProgram(c=[-1.0], A_in=[[1e-12]], b_in=[1.0])
    with pytest.raises(NumericalBreakdown, match=r"^pivot 1\.000e-12 below threshold$"):
        solve(lp)


def test_unbounded_phase_1_raises(monkeypatch):
    # the phase-1 cost, the sum of the artificials, is bounded below by 0
    from invarcert.errors import NumericalBreakdown

    def unbounded(self, cost, allowed):
        raise lp_core._Unbounded

    monkeypatch.setattr(lp_core._Tableau, "run", unbounded)
    lp = LinearProgram(c=[1.0], A_in=[[-1.0]], b_in=[-1.0])  # z >= 1: one artificial
    with pytest.raises(NumericalBreakdown, match="^phase 1 reported unbounded$"):
        solve(lp)
