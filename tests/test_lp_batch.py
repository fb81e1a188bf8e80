"""The batch solve: every lane of ``_solve_stack`` is its lone ``solve``.

Equal means the same status, the same iteration count and the same bytes
of ``z``, or the same exception with the same message.  The decomposition
programs of the simulation are checked at the points of the decomposition
test, in stacks of 1, 4 and 1000; the programs of the differential corpus
with every row's right-hand side varied; and small crafted programs send
lanes down every rule that the walk leaves to the lone solve.  Every pivot a walk
applies is the next pivot of the lane's lone solve, the outcomes do not
depend on what filled the pivot-path cache, and the cache stays small.
States with signed zeros and tied ratios check the walk's skipped zero
factors, a decomposition call makes one basis solve and keeps its lanes in
order when a middle one goes alone among phase-1 tests of two widths, and a
lane whose walk meets a non-finite value is solved alone.
The invariant that lets every drive-out pivot without a redundant-row
case is checked over the differential corpus and the decomposition
programs."""

import itertools
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from invarcert import lp_core
from invarcert.geometry import box, vertex_decompose
from invarcert.errors import NumericalBreakdown
from invarcert.lp_core import LinearProgram, LpStatus, solve

from instances import decomposition_states, random_box, random_prism
from lp_forms import nonnegative
from lp_lanes import solve_lanes
from test_lp_differential import CASES, PER_CASE

POLYTOPES = {
    "box3": (1, lambda rng: random_box(rng, 3)),
    "box4": (2, lambda rng: random_box(rng, 4)),
    "prism": (3, random_prism),
}


def _at(x):
    """The right-hand side of a decomposition LP at a point, or a stack of
    them at a stack of points: ``x`` then ``-x``."""
    return np.hstack([x, -x])


def _lone(lp, b_in):
    try:
        out = solve(replace(lp, b_in=b_in))
    except NumericalBreakdown as exc:
        return type(exc), str(exc)
    return out.status, out.iterations, None if out.z is None else out.z.tobytes()


def _assert_lanes_are_lone(lp, B):
    lone = [_lone(lp, b) for b in B]
    errors = [o for o in lone if not isinstance(o[0], LpStatus)]
    if errors:  # the batch raises what the first raising lane raises
        with pytest.raises(errors[0][0]) as info:
            solve_lanes(lp, b_in=B)
        assert str(info.value) == errors[0][1]
        return lone
    batch = [
        (o.status, o.iterations, None if o.z is None else o.z.tobytes())
        for o in solve_lanes(lp, b_in=B)
    ]
    assert batch == lone
    return lone


@pytest.fixture
def alone(monkeypatch):
    """The ``b_in`` of every lane that ``_solve_stack`` solves alone, in
    the order it solves them."""
    seen = []

    def spy(lp):
        if sys._getframe(1).f_code is lp_core._solve_stack.__code__:
            seen.append(lp.b_in.tolist())
        return solve(lp)

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
            _assert_lanes_are_lone(lp, _at(states[lo : lo + size]))
    weights = rng.dirichlet(np.ones(P.vertex_count), size=1000 - len(states))
    wide = np.vstack([states, (weights @ P.vertices) * rng.uniform(0, 1, (len(weights), 1))])
    lone = _assert_lanes_are_lone(lp, _at(wide))
    assert {o[0] for o in lone} == {LpStatus.OPTIMAL}
    assert alone == []  # every decomposition lane finishes in its walk


def _signed_zero_states(P):
    """States of the box ``P`` with every coordinate at its lower bound, half
    of it, -0.0, 0.0, 0.3 of its upper bound or the upper bound: the
    vertices, points on every edge and facet, and the origin signed every
    way."""
    levels = np.array(list(itertools.product([-1.0, -0.5, -0.0, 0.0, 0.3, 1.0], repeat=P.dim)))
    lo, hi = P.vertices.min(axis=0), P.vertices.max(axis=0)
    return np.where(levels < 0, -levels * lo, levels * hi)  # -0.0 * hi stays -0.0


@pytest.mark.parametrize("seed", [None, 6])
def test_signed_zeros_and_ratio_ties_are_lone_solves(seed, alone, monkeypatch):
    # a walk skips the rows of a zero factor, which changes at most the
    # sign of a zero; on the 3-D box (the unit one and a random one) states
    # with 0.0 and -0.0 coordinates and states on facets, edges and
    # vertices, where ratios tie, are their lone solves bit for bit
    P = box(-np.ones(3), np.ones(3)) if seed is None else random_box(np.random.default_rng(seed), 3)
    states = _signed_zero_states(P)
    zeros = states == 0.0
    assert (zeros & np.signbit(states)).any() and (zeros & ~np.signbit(states)).any()
    ties = []
    ratio_test = lp_core._ratio_test

    def spy(rows, column, basics, r):
        ratios = [r[i] / a for i, a in zip(rows, column)]
        ties.append(len(set(ratios)) < len(ratios))
        return ratio_test(rows, column, basics, r)

    monkeypatch.setattr(lp_core, "_ratio_test", spy)
    lp = P.decomposition_lp
    for size in (1, 4):
        for lo in range(0, len(states), size):
            _assert_lanes_are_lone(lp, _at(states[lo : lo + size]))
    lone = _assert_lanes_are_lone(lp, _at(states))
    assert {o[0] for o in lone} == {LpStatus.OPTIMAL}
    assert alone == [] and sum(ties) > 100


def test_one_basis_solve_per_batch(alone, monkeypatch):
    # the phase-1 ends of every width and the final bases of a
    # decomposition call share one stacked basis solve: stacks of one and
    # of four, with and without a phase 1, and one with every flip pattern
    rng = np.random.default_rng(7)
    P = random_box(rng, 3)
    states = np.vstack([decomposition_states(P, rng), _signed_zero_states(P)])
    real, solves = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(len(a)) or real(a, b))
    stacks = [states[:1], states[1:2], states[:4], states[40:44], states]
    for X in stacks:
        solves.clear()
        vertex_decompose(P, X)
        assert len(solves) == 1
    assert alone == []
    assert len(P.decomposition_lp._paths) > 10  # many flip patterns, so many widths
    # with the stall limit lowered, the middle lane of this stack goes
    # alone, and the outer ones finish with phase-1 tests of two widths (a
    # nonzero coordinate flips one row; the last state's third is 0.0):
    # each row and lane is still the lone solve's, and in lane order
    monkeypatch.setattr(lp_core._Tableau, "stall_limit", 3)
    X = np.vstack([states[1], states[44], _signed_zero_states(P)[3]])
    assert np.count_nonzero(X, axis=1).tolist() == [3, 3, 2] and X[2, 2] == 0.0
    lone = [solve(replace(P.decomposition_lp, b_in=_at(x))) for x in X]
    solves.clear()
    rows = vertex_decompose(P, X)
    assert solves[0] > 1 and set(solves[1:]) == {1}  # then the lone solve's own
    assert [row.tobytes() for row in rows] == [np.maximum(o.z, 0.0).tobytes() for o in lone]
    assert alone == _at(X[1:2]).tolist()
    alone.clear()
    _assert_lanes_are_lone(P.decomposition_lp, _at(X))
    assert alone == _at(X[1:2]).tolist()


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("phase", [1, 2])
def test_non_finite_walk_value_sends_the_lane_alone(value, phase, alone, monkeypatch):
    # where the walk's right-hand side is not finite, a skipped 0.0 * inf
    # would differ from the lone solve's NaN: the lane goes alone, at the
    # start of its phase-1 walk or of its phase-2 walk
    walk, lanes = lp_core._walk, {}

    def spy(node, r, *limits):
        # a lane is known by its right-hand side list, kept so no id is reused
        lane, _, walks = lanes.setdefault(id(r), (len(lanes), r, []))
        walks.append(node)
        if lane == 1 and len(walks) == phase:
            r[2] = value
        return walk(node, r, *limits)

    monkeypatch.setattr(lp_core, "_walk", spy)
    B = _at(np.array([[0.5, 0.2, -0.1], [0.1, -0.3, 0.4], [-0.2, 0.2, 0.2]]))
    lone = _assert_lanes_are_lone(box([-1, -1, -1], [1, 1, 1]).decomposition_lp, B)
    assert {o[0] for o in lone} == {LpStatus.OPTIMAL}
    assert [len(walks) for _, _, walks in lanes.values()] == [2, phase, 2]
    assert alone == B[[1]].tolist()


@pytest.mark.parametrize("case", list(CASES))
def test_lanes_that_vary_every_row_are_lone_solves(case):
    # a stack may vary any row, not only the former equality rows: each
    # program of the corpus is solved at its own right-hand side and at
    # five others, shifted row by row, mixing every status and flip pattern
    rng = np.random.default_rng(100 + sorted(CASES).index(case))
    statuses = set()
    for _ in range(PER_CASE // 4):
        lp = LinearProgram(**nonnegative(**CASES[case](rng))[0])
        shifts = rng.normal(size=(5, len(lp.b_in))) * np.maximum(1.0, np.abs(lp.b_in))
        B = np.vstack([lp.b_in, lp.b_in + 0.3 * shifts])
        statuses.update(o[0] for o in _assert_lanes_are_lone(lp, B))
    assert LpStatus.OPTIMAL in statuses


@pytest.mark.parametrize("limit", [0, 1, 2])
def test_bland_switch_after_a_stall(limit, monkeypatch, alone):
    # with the stall limit lowered, degenerate decomposition pivots switch
    # lanes to Bland's rule; a walk stops before any lane could switch,
    # and each lane solved alone switches exactly where it would
    rng = np.random.default_rng(2)
    P = random_box(rng, 4)
    states = np.array(decomposition_states(P, rng))
    dantzig = [_lone(P.decomposition_lp, _at(x)) for x in states]
    monkeypatch.setattr(lp_core._Tableau, "stall_limit", limit)
    lone = _assert_lanes_are_lone(P.decomposition_lp, _at(states))
    assert lone != dantzig
    assert alone


def _program(c, A_eq, B, A_in=None, b_in=()):
    """The program of rows ``A_in`` and of ``A_eq z = b`` as two opposite
    rows, and the stack of its right-hand sides with ``b`` each row of ``B``."""
    c = np.asarray(c, dtype=float)
    A_in = np.zeros((0, c.size)) if A_in is None else np.asarray(A_in, dtype=float)
    A_eq, B = np.asarray(A_eq, dtype=float), np.asarray(B, dtype=float)
    b_in = np.asarray(b_in, dtype=float)
    lp = LinearProgram(
        c=c,
        A_in=np.vstack([A_in, A_eq, -A_eq]),
        b_in=np.concatenate([b_in, np.zeros(2 * len(A_eq))]),
    )
    return lp, np.hstack([np.broadcast_to(b_in, (len(B), len(b_in))), B, -B])


def test_second_choice_entering_column(alone):
    # x1 prices best, but its only positive entry (5e-10) is below the
    # stability floor, so x2 enters first; its pivot gives x1 a real row
    lp, B = _program(
        c=[-2.0, -1.0, 0.0],
        A_in=[[5e-10, 2e-9, 0.0], [0.0, -4.0, 0.0]],
        b_in=[1e-9, 0.0],
        A_eq=[[0.0, 0.0, 1.0]],
        B=[[0.0], [0.5], [1.0]],
    )
    lone = _assert_lanes_are_lone(lp, B)
    assert [o[0] for o in lone] == [LpStatus.OPTIMAL] * 3
    assert alone == B.tolist()


def test_unbounded_program(alone):
    lp, B = _program(c=[-1.0, 0.0], A_eq=[[1.0, -1.0]], B=[[-1.0], [0.0], [1.0]])
    lone = _assert_lanes_are_lone(lp, B)
    assert [o[0] for o in lone] == [LpStatus.UNBOUNDED] * 3
    assert alone == B.tolist()


def test_infeasible_lanes_next_to_feasible_ones(alone):
    # z <= 1 as rows: a lane asking z1 + z2 outside [0, 2] is infeasible
    lp, B = _program(
        c=[1.0, 1.0],
        A_eq=[[1.0, 1.0]],
        B=[[0.5], [5.0], [1.5], [-1.0]],
        A_in=np.eye(2),
        b_in=[1.0, 1.0],
    )
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
    lp, B = _program(c=[-1.0, 0.0], A_eq=[[5e-10, -1.0]], B=[[1.0], [0.0]])
    lone = _assert_lanes_are_lone(lp, B)
    assert lone[0][0] is LpStatus.INFEASIBLE
    assert lone[1][0] is NumericalBreakdown
    assert alone == B.tolist()


def test_primal_violation_raises_alone_and_in_the_batch(alone, monkeypatch):
    # the one optimal finish flags every lane: the lone solve raises, and
    # the batch hands each lane to it and raises the same
    finish = lp_core._finish

    def violated(lp, y, B_in, scale):
        Z, objective, resid, bad = finish(lp, y, B_in, scale)
        return Z, objective, resid + 1.0, np.ones_like(bad)

    monkeypatch.setattr(lp_core, "_finish", violated)
    B = _at(np.array([[0.5, 0.2, -0.1], [0.1, -0.3, 0.4]]))
    lone = _assert_lanes_are_lone(box([-1, -1, -1], [1, 1, 1]).decomposition_lp, B)
    assert lone[0] == (NumericalBreakdown, "optimal point violates constraints by 1.000e+00")
    assert alone == B[:1].tolist()  # the first lane raises


def test_flagged_final_lane_is_solved_alone(alone, monkeypatch):
    # a lane that the batch's finish flags is solved again by the lone
    # solve, whose own finish passes it
    finish = lp_core._finish

    def flag_second(lp, y, B_in, scale):
        Z, objective, resid, bad = finish(lp, y, B_in, scale)
        if len(y) > 1:
            bad[1] = True
        return Z, objective, resid, bad

    monkeypatch.setattr(lp_core, "_finish", flag_second)
    B = _at(np.array([[0.5, 0.2, -0.1], [0.1, -0.3, 0.4], [-0.2, 0.2, 0.2]]))
    lone = _assert_lanes_are_lone(box([-1, -1, -1], [1, 1, 1]).decomposition_lp, B)
    assert {o[0] for o in lone} == {LpStatus.OPTIMAL}
    assert alone == B[[1]].tolist()


@pytest.mark.parametrize("fault", ["singular", "non-finite"])
def test_failed_stacked_basis_solve_sends_lanes_alone(fault, alone, monkeypatch):
    # a singular stacked basis solve sends every lane of its stack to the
    # lone solve; a non-finite lane goes alone by itself
    real = np.linalg.solve

    def stacked(a, b):
        if len(a) == 1:  # a lone solve
            return real(a, b)
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        values = real(a, b)
        values[b[:, 0, 0] == 0.1] = np.nan  # in lane 1's row, at any stage
        return values

    monkeypatch.setattr(np.linalg, "solve", stacked)
    B = _at(np.array([[0.5, 0.2, -0.1], [0.1, -0.3, 0.4], [-0.2, 0.2, 0.2]]))
    lone = _assert_lanes_are_lone(box([-1, -1, -1], [1, 1, 1]).decomposition_lp, B)
    assert {o[0] for o in lone} == {LpStatus.OPTIMAL}
    assert alone == (B.tolist() if fault == "singular" else B[[1]].tolist())


def _route(start, end):
    """The ``(row, col)`` of every pivot a walk from node ``start`` to node
    ``end`` replays: those into ``start`` and into each node after it."""
    here = [pivot[:2] for pivot in start.pivots]
    if start is end:
        return here
    for child in start.children.values():
        rest = _route(child, end)
        if rest is not None:
            return here + rest
    return None


@pytest.fixture
def walked(monkeypatch):
    """The pivots that the walks of ``_solve_stack`` apply to each lane, by
    lane, counted on over the calls.  A lane is known by its right-hand
    side list, which its walks share (kept here, so no id is reused), and
    each call starts the lanes' walks in lane order."""
    lanes, pivots = {}, {}
    walk = lp_core._walk

    def spy(node, r, *limits):
        end, done = walk(node, r, *limits)
        lane, _ = lanes.setdefault(id(r), (len(lanes), r))
        pivots.setdefault(lane, []).extend(_route(node, end))
        return end, done

    monkeypatch.setattr(lp_core, "_walk", spy)
    return pivots


def test_lanes_that_stop_are_not_pivoted_again(alone, walked, monkeypatch):
    # a seeded search found these three lanes of one program: in phase 2
    # the second lane (b = 1) meets a second-choice column after a pivot
    # and goes to the lone solve, while the first (b = 0.5) and the third
    # (b = 1.5) reach their optimum; every pivot the walk applies to a
    # lane must be the next pivot of its lone solve, and a lane that stops
    # gets no more
    lp, B = _program(
        c=[-1.0, 1.0, -0.5, 1.0, 0.0],
        A_in=[
            [2.0, 5e-10, 1.5e-9, -1.0, 0.0],
            [2.0, 5e-10, 0.0, 3e-10, 2.0],
            [1.5e-9, 2.0, 1.5e-9, 3e-10, 2.0],
        ],
        b_in=[1e-9, 2.0, 1.0],
        A_eq=[[1.0, 2.0, 0.0, 0.0, -1.0]],
        B=[[0.5], [1.0], [1.5]],
    )
    seen = []
    pivot = lp_core._Tableau._pivot
    monkeypatch.setattr(
        lp_core._Tableau, "_pivot", lambda tab, *at: seen.append(at) or pivot(tab, *at)
    )
    lone = []
    for b in B:
        seen.clear()
        _lone(lp, b)
        lone.append(seen.copy())
    outcomes = _assert_lanes_are_lone(lp, B)
    assert [o[0] for o in outcomes] == [LpStatus.OPTIMAL] * 3
    assert alone == B[[1]].tolist()
    assert walked[0] == lone[0] and walked[2] == lone[2]
    assert 0 < len(walked[1]) < len(lone[1])
    assert walked[1] == lone[1][: len(walked[1])]


def test_iteration_cap(alone, monkeypatch):
    # with the cap lowered to 2 pivots, a walk stops after 2 pivots and
    # the lanes still pivoting then reach the cap in their lone solve
    P = random_box(np.random.default_rng(1), 3)
    states = np.array([np.zeros(3), 0.1 * P.vertices[0], 0.4 * P.vertices[5]])
    monkeypatch.setattr(lp_core, "_max_iterations", lambda m, n: 2)
    lone = _assert_lanes_are_lone(P.decomposition_lp, _at(states))
    assert lone[0][0] is LpStatus.OPTIMAL
    assert lone[1][0] is lone[2][0] is lp_core.MaxIterationsExceeded
    assert alone == _at(states)[[1]].tolist()  # the batch raises at the first


@pytest.fixture
def drive_outs(monkeypatch):
    """Check, at every drive-out of a tableau (the lone solve's, or the
    one that builds a node of the walk), that the slack column of each
    flipped row is minus its artificial's column (by value: the signs of
    zeros differ); collects the number of basic artificials met in each."""
    met = []
    drive_out = lp_core._Tableau.drive_out_artificials

    def spy(tab):
        arts = tab.n_struct + tab.n_slack
        flipped = tab.original[:, arts:-1].argmax(axis=0)  # each artificial's row
        assert np.array_equal(tab.A[:, tab.n_struct + flipped], -tab.A[:, arts:-1])
        met.append(int((tab.basis >= arts).sum()))
        return drive_out(tab)

    monkeypatch.setattr(lp_core._Tableau, "drive_out_artificials", spy)
    return met


def test_walks_apply_the_lone_pivots(walked, monkeypatch):
    # every pivot a walk applies to a decomposition lane, the drive-out
    # included, is the next pivot of its lone solve, and it gets no more
    seen = []
    pivot = lp_core._Tableau._pivot
    monkeypatch.setattr(
        lp_core._Tableau, "_pivot", lambda tab, *at: seen.append(at) or pivot(tab, *at)
    )
    lone = []
    for seed, build in POLYTOPES.values():
        rng = np.random.default_rng(seed)
        P = build(rng)
        states = np.array(decomposition_states(P, rng))
        for x in states:
            seen.clear()
            solve(replace(P.decomposition_lp, b_in=_at(x)))
            lone.append(seen.copy())
        solve_lanes(P.decomposition_lp, b_in=_at(states))
    assert walked == dict(enumerate(lone))


def test_basic_artificials_keep_their_slack_twin(drive_outs):
    # the invariant that leaves the drive-out no redundant row: the row of
    # a basic artificial holds that artificial's slack twin at -1
    for case, build in CASES.items():
        rng = np.random.default_rng(sorted(CASES).index(case))
        for _ in range(PER_CASE):
            solve(LinearProgram(**nonnegative(**build(rng))[0]))
    for seed, build in POLYTOPES.values():
        rng = np.random.default_rng(seed)
        P = build(rng)
        states = np.array(decomposition_states(P, rng))
        for x in states:
            solve(replace(P.decomposition_lp, b_in=_at(x)))
        lone = len(drive_outs)
        solve_lanes(P.decomposition_lp, b_in=_at(states))
        assert len(drive_outs) > lone  # the walk's nodes drive out too
    assert len(drive_outs) > 500 and sum(drive_outs) > 1000


def _nodes(lp):
    """Every node of the pivot-path cache of ``lp``."""
    stack, found = list(lp._paths.values()), []
    while stack:
        node = stack.pop()
        found.append(node)
        stack += node.children.values()
    return found


def _bytes(outcomes):
    return [(o.status, o.iterations, o.z.tobytes(), o.objective) for o in outcomes]


@pytest.mark.parametrize("name", list(POLYTOPES))
def test_outcomes_do_not_depend_on_the_cache(name):
    # a stack solved on a fresh program, and on one whose cache other
    # states filled first (other flip patterns among them: points on the
    # axes and the origin flip fewer rows), gives the same bytes
    seed, build = POLYTOPES[name]
    rng = np.random.default_rng(seed)
    P = build(rng)
    states = np.array(decomposition_states(P, rng))
    data = {f: getattr(P.decomposition_lp, f) for f in ("c", "A_in", "b_in")}
    lp, used = LinearProgram(**data), LinearProgram(**data)
    fresh = solve_lanes(lp, b_in=_at(states))
    axes = np.vstack([np.eye(P.dim), -np.eye(P.dim)]) * 0.25
    others = np.vstack([axes, 0.5 * states[::-1], states[::-1]])
    solve_lanes(used, b_in=_at(others))
    roots = len(used._paths)
    assert roots > len(lp._paths)
    assert _bytes(solve_lanes(used, b_in=_at(states))) == _bytes(fresh)
    assert len(used._paths) == roots  # every flip pattern was met before


def test_repeated_decomposition_reuses_the_cache(alone, monkeypatch):
    # the second decomposition of the same states builds no node and hands
    # no lane to the lone solve
    rng = np.random.default_rng(4)
    P = random_box(rng, 3)
    states = np.array(decomposition_states(P, rng))
    first = vertex_decompose(P, states)
    built = []
    init = lp_core._Node.__init__
    monkeypatch.setattr(lp_core._Node, "__init__", lambda *a: built.append(1) or init(*a))
    assert np.array_equal(vertex_decompose(P, states), first)
    assert built == [] and alone == []


def test_threads_share_one_cache():
    # more threads than cores grow one program's cache at once, switching
    # often; each reads only fully built nodes, so every outcome is still
    # the outcome on a program of its own
    rng = np.random.default_rng(5)
    P = random_box(rng, 3)
    weights = rng.dirichlet(np.ones(P.vertex_count), size=(6, 40))
    stacks = list((weights @ P.vertices) * rng.uniform(0.0, 1.0, (6, 40, 1)))
    data = {f: getattr(P.decomposition_lp, f) for f in ("c", "A_in", "b_in")}
    stacks = [_at(X) for X in stacks]
    want = [_bytes(solve_lanes(LinearProgram(**data), b_in=B)) for B in stacks]
    shared = LinearProgram(**data)
    got = [None] * len(stacks)

    def work(i):
        got[i] = _bytes(solve_lanes(shared, b_in=stacks[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(stacks))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_the_tree_stays_small():
    # 2000 random interior states of the 3-d unit box walk a tree of at
    # most 250 nodes (200 when this was written)
    P = box(-np.ones(3), np.ones(3))
    states = np.random.default_rng(0).uniform(-1.0, 1.0, (2000, 3))
    vertex_decompose(P, states)
    assert len(_nodes(P.decomposition_lp)) <= 250


def test_batch_checks_its_right_hand_sides():
    lp = LinearProgram(c=[1.0, 1.0], A_in=[[1.0, 1.0], [-1.0, -1.0]], b_in=[0.0, 0.0])
    for B in ([0.5, -0.5], [[0.5]], [[0.5, -0.5, 1.0]]):
        with pytest.raises(lp_core.DimensionMismatch, match=r"shape \(L, 2\)"):
            solve_lanes(lp, b_in=B)
    with pytest.raises(ValueError, match="finite"):
        solve_lanes(lp, b_in=[[0.5, np.nan]])
    assert solve_lanes(lp, b_in=np.zeros((0, 2))) == []
    # any program takes a stack: a single row, here an upper bound
    bound = LinearProgram(c=[-1.0], A_in=[[1.0]], b_in=[1.0])
    assert [o.z.tolist() for o in solve_lanes(bound, b_in=[[1.0], [2.0]])] == [[1.0], [2.0]]
