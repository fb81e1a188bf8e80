"""The stacked simplex: every lane of ``solve_batch`` is its lone ``solve``.

Equal means the same status, the same iteration count and the same bytes
of ``z``, or the same exception with the same message.  The decomposition
programs of the simulation are checked at the points of the decomposition
test, in stacks of 1, 4 and 1000; small crafted programs send lanes down
every branch that the stack hands over to the lone tableau.
"""

import numpy as np
import pytest

from invarcert import lp_core
from invarcert.errors import NumericalBreakdown
from invarcert.lp_core import LinearProgram, LpStatus, solve, solve_batch

from instances import decomposition_states, random_box, random_prism

POLYTOPES = {
    "box3": (1, lambda rng: random_box(rng, 3)),
    "box4": (2, lambda rng: random_box(rng, 4)),
    "prism": (3, random_prism),
}


def _lone(lp, b_eq, **kwargs):
    try:
        out = solve(lp.with_rhs(b_eq=b_eq), **kwargs)
    except NumericalBreakdown as exc:
        return type(exc), str(exc)
    return out.status, out.iterations, None if out.z is None else out.z.tobytes()


def _assert_lanes_are_lone(lp, B, **kwargs):
    lone = [_lone(lp, b, **kwargs) for b in B]
    errors = [o for o in lone if not isinstance(o[0], LpStatus)]
    if errors:  # the batch raises what the first raising lane raises
        with pytest.raises(errors[0][0]) as info:
            solve_batch(lp, b_eq=B, **kwargs)
        assert str(info.value) == errors[0][1]
        return lone
    batch = [
        (o.status, o.iterations, None if o.z is None else o.z.tobytes())
        for o in solve_batch(lp, b_eq=B, **kwargs)
    ]
    assert batch == lone
    return lone


@pytest.mark.parametrize("name", list(POLYTOPES))
def test_decomposition_lanes_are_lone_solves(name):
    seed, build = POLYTOPES[name]
    rng = np.random.default_rng(seed)
    P = build(rng)
    lp = P.decomposition_lp
    states = np.array(decomposition_states(P, rng))
    for size in (1, 4):
        for lo in range(0, len(states), size):
            _assert_lanes_are_lone(lp, states[lo : lo + size], feas_tol=1e-8)
    weights = rng.dirichlet(np.ones(P.vertex_count), size=1000 - len(states))
    wide = np.vstack([states, (weights @ P.vertices) * rng.uniform(0, 1, (len(weights), 1))])
    lone = _assert_lanes_are_lone(lp, wide, feas_tol=1e-8)
    assert {o[0] for o in lone} == {LpStatus.OPTIMAL}


@pytest.mark.parametrize("limit", [0, 1, 2])
def test_bland_switch_after_a_stall(limit, monkeypatch):
    # with the stall limit lowered, degenerate decomposition pivots switch
    # lanes to Bland's rule; each lane must switch exactly where it would
    # switch alone
    rng = np.random.default_rng(2)
    P = random_box(rng, 4)
    states = np.array(decomposition_states(P, rng))
    dantzig = [_lone(P.decomposition_lp, x, feas_tol=1e-8) for x in states]
    monkeypatch.setattr(lp_core._Tableau, "stall_limit", limit)
    lone = _assert_lanes_are_lone(P.decomposition_lp, states, feas_tol=1e-8)
    assert lone != dantzig


@pytest.fixture
def handoffs(monkeypatch):
    """(stage, iterations) of every lane the stack hands to the lone code."""
    seen = []
    real = lp_core._TableauStack.hand_off

    def spy(self, i, stage, *args):
        seen.append((stage, int(self.iterations[i])))
        return real(self, i, stage, *args)

    monkeypatch.setattr(lp_core._TableauStack, "hand_off", spy)
    return seen


def _program(c, A_eq, bounds, A_in=None, b_in=()):
    c = np.asarray(c, dtype=float)
    A_in = np.zeros((0, c.size)) if A_in is None else A_in
    return LinearProgram(
        c=c, A_in=A_in, b_in=b_in, A_eq=A_eq, b_eq=np.zeros(len(A_eq)), bounds=bounds
    )


def test_second_choice_entering_column(handoffs):
    # x1 prices best, but its only positive entry (5e-10) is below the
    # stability floor, so x2 enters first; its pivot gives x1 a real row
    lp = _program(
        c=[-2.0, -1.0, 0.0],
        A_in=[[5e-10, 2e-9, 0.0], [0.0, -4.0, 0.0]],
        b_in=[1e-9, 0.0],
        A_eq=[[0.0, 0.0, 1.0]],
        bounds=[(0.0, None)] * 3,
    )
    lone = _assert_lanes_are_lone(lp, np.array([[0.0], [0.5], [1.0]]))
    assert [o[0] for o in lone] == [LpStatus.OPTIMAL] * 3
    assert {stage for stage, _ in handoffs} == {lp_core._PHASE2}


def test_unbounded_program(handoffs):
    lp = _program(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], bounds=[(0.0, None)] * 2)
    lone = _assert_lanes_are_lone(lp, np.array([[-1.0], [0.0], [1.0]]))
    assert [o[0] for o in lone] == [LpStatus.UNBOUNDED] * 3
    assert [stage for stage, _ in handoffs] == [lp_core._PHASE2] * 3


def test_infeasible_lanes_next_to_feasible_ones(handoffs):
    lp = _program(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], bounds=[(0.0, 1.0)] * 2)
    lone = _assert_lanes_are_lone(lp, np.array([[0.5], [5.0], [1.5], [-1.0]]))
    assert [o[0] for o in lone] == [
        LpStatus.OPTIMAL,
        LpStatus.INFEASIBLE,
        LpStatus.OPTIMAL,
        LpStatus.INFEASIBLE,
    ]
    assert sorted(stage for stage, _ in handoffs) == [lp_core._CHECK] * 2


def test_sub_threshold_pivots_only(handoffs):
    # x prices best, but 5e-10 is below the stability floor and no other
    # column improves: the lone code raises, and so does the batch
    lp = _program(c=[-1.0, 0.0], A_eq=[[5e-10, -1.0]], bounds=[(0.0, None)] * 2)
    lone = _assert_lanes_are_lone(lp, np.array([[1.0], [0.0]]))
    assert lone[0][0] is LpStatus.INFEASIBLE
    assert lone[1][0] is NumericalBreakdown
    assert (lp_core._PHASE2, 0) in handoffs


def test_iteration_cap(handoffs):
    P = random_box(np.random.default_rng(1), 3)
    states = np.array([np.zeros(3), 0.1 * P.vertices[0], 0.4 * P.vertices[5]])
    lone = _assert_lanes_are_lone(P.decomposition_lp, states, max_iterations=2)
    assert lone[0][0] is LpStatus.OPTIMAL
    assert lone[2][0] is lp_core.MaxIterationsExceeded
    assert (lp_core._PHASE1, 2) in handoffs


def test_redundant_row_in_drive_out():
    # Every artificial has a slack twin in the same row, so no program
    # leaves a basic artificial on an all-zero row; the tableaux are built
    # by hand.  Columns: x, two slacks, one artificial, right-hand side.
    A = np.array(
        [
            [[1.0, 0.5, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 0.0]],  # redundant
            [[1.0, 0.5, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 1.0, 0.0]],
        ]
    )
    basis = np.array([[0, 3], [0, 3]])
    resumed = []
    stack = lp_core._TableauStack(
        A.copy(), basis.copy(), np.arange(2), 1, 10, lambda *args: resumed.append(args)
    )
    stack = stack.drive_out()
    assert [(lane, stage) for lane, _, stage, *_ in resumed] == [(0, lp_core._DRIVE_OUT)]
    assert stack.lanes.tolist() == [1]
    for lane, tab in [(0, resumed[0][1]), (1, stack.tableau(0))]:
        lone = lp_core._Tableau(A[lane].copy(), A[lane].copy(), basis[lane].copy(), 1, 10)
        lone.drive_out_artificials()
        if lane == 0:
            tab.drive_out_artificials()  # as the resumed solve does
        assert tab.A.tobytes() == lone.A.tobytes()
        assert tab.basis.tolist() == lone.basis.tolist()


def test_batch_checks_its_right_hand_sides():
    lp = _program(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], bounds=[(0.0, 1.0)] * 2)
    with pytest.raises(lp_core.DimensionMismatch):
        solve_batch(lp, b_eq=[0.5])
    with pytest.raises(ValueError, match="finite"):
        solve_batch(lp, b_eq=[[np.nan]])
    assert solve_batch(lp, b_eq=np.zeros((0, 1))) == []
