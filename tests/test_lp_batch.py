"""The stacked simplex: every lane of ``solve_batch`` is its lone ``solve``.

Equal means the same status, the same iteration count and the same bytes
of ``z``, or the same exception with the same message.  The decomposition
programs of the simulation are checked at the points of the decomposition
test, in stacks of 1, 4 and 1000; small crafted programs send lanes down
every rule that the stack leaves to the lone solve.  The invariant that
lets every drive-out pivot without a redundant-row case is checked over
the differential corpus and the decomposition programs.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from invarcert import lp_core
from invarcert.errors import NumericalBreakdown
from invarcert.lp_core import LinearProgram, LpStatus, solve, solve_batch

from instances import decomposition_states, random_box, random_prism
from test_lp_differential import CASES, PER_CASE

POLYTOPES = {
    "box3": (1, lambda rng: random_box(rng, 3)),
    "box4": (2, lambda rng: random_box(rng, 4)),
    "prism": (3, random_prism),
}


def _lone(lp, b_eq, **kwargs):
    try:
        out = solve(replace(lp, b_eq=b_eq), **kwargs)
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


@pytest.fixture
def alone(monkeypatch):
    """The ``b_eq`` of every lane that ``solve_batch`` solves alone, in
    the order it solves them."""
    seen = []

    def spy(lp, **kwargs):
        if sys._getframe(1).f_code is solve_batch.__code__:
            seen.append(lp.b_eq.tolist())
        return solve(lp, **kwargs)

    monkeypatch.setattr(lp_core, "solve", spy)
    return seen


@pytest.mark.parametrize("name", list(POLYTOPES))
def test_decomposition_lanes_are_lone_solves(name, alone):
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
    assert alone == []  # every decomposition lane finishes in the stack


@pytest.mark.parametrize("limit", [0, 1, 2])
def test_bland_switch_after_a_stall(limit, monkeypatch, alone):
    # with the stall limit lowered, degenerate decomposition pivots switch
    # lanes to Bland's rule; the stack stops before any lane could switch,
    # and each lane solved alone switches exactly where it would
    rng = np.random.default_rng(2)
    P = random_box(rng, 4)
    states = np.array(decomposition_states(P, rng))
    dantzig = [_lone(P.decomposition_lp, x, feas_tol=1e-8) for x in states]
    monkeypatch.setattr(lp_core._Tableau, "stall_limit", limit)
    lone = _assert_lanes_are_lone(P.decomposition_lp, states, feas_tol=1e-8)
    assert lone != dantzig
    assert alone


def _program(c, A_eq, bounds, A_in=None, b_in=()):
    c = np.asarray(c, dtype=float)
    A_in = np.zeros((0, c.size)) if A_in is None else A_in
    return LinearProgram(
        c=c, A_in=A_in, b_in=b_in, A_eq=A_eq, b_eq=np.zeros(len(A_eq)), bounds=bounds
    )


def test_second_choice_entering_column(alone):
    # x1 prices best, but its only positive entry (5e-10) is below the
    # stability floor, so x2 enters first; its pivot gives x1 a real row
    lp = _program(
        c=[-2.0, -1.0, 0.0],
        A_in=[[5e-10, 2e-9, 0.0], [0.0, -4.0, 0.0]],
        b_in=[1e-9, 0.0],
        A_eq=[[0.0, 0.0, 1.0]],
        bounds=[(0.0, None)] * 3,
    )
    B = np.array([[0.0], [0.5], [1.0]])
    lone = _assert_lanes_are_lone(lp, B)
    assert [o[0] for o in lone] == [LpStatus.OPTIMAL] * 3
    assert alone == B.tolist()


def test_unbounded_program(alone):
    lp = _program(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], bounds=[(0.0, None)] * 2)
    B = np.array([[-1.0], [0.0], [1.0]])
    lone = _assert_lanes_are_lone(lp, B)
    assert [o[0] for o in lone] == [LpStatus.UNBOUNDED] * 3
    assert alone == B.tolist()


def test_infeasible_lanes_next_to_feasible_ones(alone):
    lp = _program(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], bounds=[(0.0, 1.0)] * 2)
    B = np.array([[0.5], [5.0], [1.5], [-1.0]])
    lone = _assert_lanes_are_lone(lp, B)
    assert [o[0] for o in lone] == [
        LpStatus.OPTIMAL,
        LpStatus.INFEASIBLE,
        LpStatus.OPTIMAL,
        LpStatus.INFEASIBLE,
    ]
    assert alone == B[[1, 3]].tolist()


def test_sub_threshold_pivots_only(alone):
    # x prices best, but 5e-10 is below the stability floor and no other
    # column improves: the lone code raises, and so does the batch
    lp = _program(c=[-1.0, 0.0], A_eq=[[5e-10, -1.0]], bounds=[(0.0, None)] * 2)
    B = np.array([[1.0], [0.0]])
    lone = _assert_lanes_are_lone(lp, B)
    assert lone[0][0] is LpStatus.INFEASIBLE
    assert lone[1][0] is NumericalBreakdown
    assert alone == B.tolist()


def test_iteration_cap(alone, monkeypatch):
    # with the cap lowered to 2 pivots, the stack stops after 2 steps and
    # the lanes still pivoting then reach the cap in their lone solve
    P = random_box(np.random.default_rng(1), 3)
    states = np.array([np.zeros(3), 0.1 * P.vertices[0], 0.4 * P.vertices[5]])
    monkeypatch.setattr(lp_core, "_max_iterations", lambda m, n: 2)
    lone = _assert_lanes_are_lone(P.decomposition_lp, states)
    assert lone[0][0] is LpStatus.OPTIMAL
    assert lone[1][0] is lone[2][0] is lp_core.MaxIterationsExceeded
    assert alone == states[[1]].tolist()  # the batch raises at the first


@pytest.fixture
def drive_outs(monkeypatch):
    """Check, at every drive-out of the lone and the stacked tableau, that
    the slack column of each flipped row is minus its artificial's column
    (by value: the signs of zeros differ); collects the number of basic
    artificials met in each tableau."""
    met = []

    def check(tab, lanes):
        arts = tab.n_struct + tab.n_slack
        for A, original, basis in lanes:
            flipped = original[:, arts:-1].argmax(axis=0)  # each artificial's row
            assert np.array_equal(A[:, tab.n_struct + flipped], -A[:, arts:-1])
            met.append(int((basis >= arts).sum()))

    lone = lp_core._Tableau.drive_out_artificials
    stacked = lp_core._TableauStack.drive_out

    def lone_spy(tab):
        check(tab, [(tab.A, tab.original, tab.basis)])
        return lone(tab)

    def stacked_spy(stack):
        check(stack, zip(stack.A, stack.original, stack.basis))
        return stacked(stack)

    monkeypatch.setattr(lp_core._Tableau, "drive_out_artificials", lone_spy)
    monkeypatch.setattr(lp_core._TableauStack, "drive_out", stacked_spy)
    return met


def test_basic_artificials_keep_their_slack_twin(drive_outs):
    # the invariant that leaves the drive-out no redundant row: the row of
    # a basic artificial holds that artificial's slack twin at -1
    for case, build in CASES.items():
        rng = np.random.default_rng(sorted(CASES).index(case))
        for _ in range(PER_CASE):
            solve(LinearProgram(**build(rng)))
    for seed, build in POLYTOPES.values():
        rng = np.random.default_rng(seed)
        P = build(rng)
        states = np.array(decomposition_states(P, rng))
        for x in states:
            solve(replace(P.decomposition_lp, b_eq=x), feas_tol=1e-8)
        solve_batch(P.decomposition_lp, b_eq=states, feas_tol=1e-8)
    assert len(drive_outs) > 500 and sum(drive_outs) > 1000


def test_batch_checks_its_right_hand_sides():
    lp = _program(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], bounds=[(0.0, 1.0)] * 2)
    with pytest.raises(lp_core.DimensionMismatch):
        solve_batch(lp, b_eq=[0.5])
    with pytest.raises(ValueError, match="finite"):
        solve_batch(lp, b_eq=[[np.nan]])
    assert solve_batch(lp, b_eq=np.zeros((0, 1))) == []
    no_equalities = LinearProgram(c=[1.0], A_in=[[1.0]], b_in=[1.0])
    with pytest.raises(lp_core.DimensionMismatch):
        solve_batch(no_equalities, b_eq=[[1.0]])
