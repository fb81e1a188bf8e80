import itertools

import numpy as np
import pytest

import invarcert as ic
from invarcert.geometry import DecompositionInfeasible, PolytopeError
from invarcert.lp_core import LinearProgram, solve

from instances import (
    decomposition_states,
    random_box,
    random_hull_polytope,
    random_prism,
)
from lp_lanes import solve_lanes

UNIT_BOX_F = np.vstack([np.eye(2), -np.eye(2)])
UNIT_BOX_V = np.array(list(itertools.product([-1.0, 1.0], repeat=2)))


def test_validate_unit_box():
    P = ic.validate_polytope(UNIT_BOX_F, UNIT_BOX_V)
    assert P.dim == 2 and P.facet_count == 4 and P.vertex_count == 4


def test_vertex_outside_facets():
    verts = np.vstack([UNIT_BOX_V, [1.5, 0.0]])
    with pytest.raises(PolytopeError, match=r"^vertex 4 violates facet row 0 by 5\.000e-01$"):
        ic.validate_polytope(UNIT_BOX_F, verts)


def test_unsupported_facet():
    # a 0.3-scaled row reaches at most 0.3 over the box corners
    F = np.vstack([UNIT_BOX_F, [0.3, 0.0]])
    message = r"^facet row 4 is never tight \(max F x over vertices = 0\.3 < 1\)$"
    with pytest.raises(PolytopeError, match=message):
        ic.validate_polytope(F, UNIT_BOX_V)


def test_rank_deficient_facets():
    F = np.array([[1.0, 0.0], [-1.0, 0.0]])
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(PolytopeError, match=r"^facet matrix rank < 2$"):
        ic.validate_polytope(F, V)


def test_origin_not_interior():
    F = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -0.2]])
    V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    message = (
        r"^facet row 2 is never tight \(max F x over vertices = -0\.2 < 1\); "
        r"origin is not in the vertex hull$"
    )
    with pytest.raises(PolytopeError, match=message):
        ic.validate_polytope(F, V)


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("facets", np.nan, r"^facet row 1 is not finite: \[nan, 1\.0\]$"),
        ("facets", np.inf, r"^facet row 1 is not finite: \[inf, 1\.0\]$"),
        ("vertices", -np.inf, r"^vertex 1 is not finite: \[-inf, 1\.0\]$"),
    ],
)
def test_non_finite_row_refused_first(where, value, message):
    data = {"facets": UNIT_BOX_F.copy(), "vertices": UNIT_BOX_V.copy()}
    data[where][1, 0] = value
    data[where][3, 1] = value  # a later row is not named
    with pytest.raises(PolytopeError, match=message) as info:
        ic.validate_polytope(**data)
    assert type(info.value) is PolytopeError


def test_multiple_violations_aggregate():
    F = np.vstack([UNIT_BOX_F, [0.3, 0.0]])
    verts = np.vstack([UNIT_BOX_V, [1.5, 0.0]])
    message = (
        r"^vertex 4 violates facet row 0 by 5\.000e-01; "
        r"facet row 4 is never tight \(max F x over vertices = 0\.45 < 1\)$"
    )
    with pytest.raises(PolytopeError, match=message):
        ic.validate_polytope(F, verts)


def test_box_constructor_roundtrip():
    P = ic.box([-0.5, -2.0], [1.0, 0.25])
    assert P.vertex_count == 4
    for v in P.vertices:
        assert ic.contains(P, v)
        assert ic.minkowski_gauge(P, v) == pytest.approx(1.0, abs=1e-12)


def test_contains_cases():
    P = ic.box([-1, -1], [1, 1])
    assert ic.contains(P, [0.0, 0.0])
    assert ic.contains(P, [1.0, 0.0])  # boundary counts
    assert not ic.contains(P, [1.1, 0.0])


def test_gauge_cases():
    P = ic.box([-1, -1], [1, 1])
    assert ic.minkowski_gauge(P, [0.0, 0.0]) == 0.0
    assert ic.minkowski_gauge(P, [0.5, -0.5]) == pytest.approx(0.5)
    for v in P.vertices:
        assert ic.minkowski_gauge(P, v) == pytest.approx(1.0)


def test_gauge_positive_homogeneity():
    rng = np.random.default_rng(0)
    P = random_box(rng, 3)
    for _ in range(100):
        x = rng.normal(size=3)
        alpha = rng.uniform(0.0, 3.0)
        assert ic.minkowski_gauge(P, alpha * x) == pytest.approx(
            alpha * ic.minkowski_gauge(P, x), abs=1e-9
        )


def test_decompose_origin_and_vertex():
    P = ic.box([-1, -1], [1, 1])
    assert np.allclose(ic.vertex_decompose(P, [0.0, 0.0]), 0.0)
    gamma = ic.vertex_decompose(P, P.vertices[0])
    assert gamma.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(P.vertices.T @ gamma, P.vertices[0], atol=1e-9)


def brute_force_decompositions(P, x, tol=1e-9):
    """All optimal basic solutions of the decomposition LP, by enumeration."""
    n, N = P.dim, P.vertex_count
    solutions = []
    for subset in itertools.combinations(range(N), n):
        M = P.vertices[list(subset)].T
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        g = np.linalg.solve(M, np.asarray(x, dtype=float))
        if np.all(g >= -tol):
            gamma = np.zeros(N)
            gamma[list(subset)] = g
            solutions.append(gamma)
    best = min(s.sum() for s in solutions)
    return [s for s in solutions if s.sum() <= best + 1e-9]


def test_decompose_facet_midpoint_matches_enumeration():
    P = ic.box([-1, -1], [1, 1])
    x = [1.0, 0.0]  # midpoint of the two x1 = 1 vertices
    optima = brute_force_decompositions(P, x)
    assert len(optima) == 1  # unique optimum here
    gamma = ic.vertex_decompose(P, x)
    assert np.allclose(gamma, optima[0], atol=1e-9)
    assert gamma.sum() == pytest.approx(1.0, abs=1e-9)


def test_decompose_outside_raises():
    P = ic.box([-1, -1], [1, 1])
    with pytest.raises(DecompositionInfeasible, match=r"^point outside polytope beyond tol=1e-08$"):
        ic.vertex_decompose(P, [1.5, 0.0])
    with pytest.raises(DecompositionInfeasible, match=r"^point 1 outside polytope beyond tol=1e-08$"):
        ic.vertex_decompose(P, [[0.5, 0.0], [1.5, 0.0]])
    # a caller that has tested F x itself skips the test: the LP is feasible
    # outside P too, and its weights sum to the gauge
    gamma = ic.vertex_decompose(P, [[0.5, 0.0], [1.5, 0.0]], inside=True)
    assert gamma.sum(axis=1) == pytest.approx([0.5, 1.5], abs=1e-12)


def test_non_optimal_decomposition_raises(monkeypatch):
    # the LP of a point of P is feasible and bounded, so a lane that comes
    # back otherwise is a numerical fault: it raises, and no row is made.
    # Here the finish flags the second lane, whose lone solve then fails
    from invarcert import lp_core

    finish = lp_core._finish

    def second_lane_flagged(lp, y, B_in, scale):
        Z, objective, resid, bad = finish(lp, y, B_in, scale)
        bad[min(1, len(y) - 1)] = True
        return Z, objective, resid, bad

    monkeypatch.setattr(lp_core, "_finish", second_lane_flagged)
    monkeypatch.setattr(lp_core, "solve", lambda lp: lp_core.LpOutcome(lp_core.LpStatus.INFEASIBLE))
    P = ic.box([-1, -1, -1], [1, 1, 1])
    with pytest.raises(DecompositionInfeasible, match="^decomposition LP of the point is inf"):
        ic.vertex_decompose(P, [0.5, 0.2, -0.1])
    with pytest.raises(DecompositionInfeasible, match="^decomposition LP of point 1 is inf"):
        ic.vertex_decompose(P, [[0.5, 0.2, -0.1], [0.1, -0.3, 0.4], [0.0, 0.0, 0.0]])


def test_empty_stack_decomposes_to_no_rows():
    # N points give N rows of N_vertices weights, N = 0 included
    P = ic.box([-1, -1, -1], [1, 1, 1])
    gamma = ic.vertex_decompose(P, np.zeros((0, 3)))
    assert gamma.shape == (0, P.vertex_count)
    assert gamma.dtype == float


@pytest.mark.parametrize("name", ["box3", "prism"])
def test_stacked_decomposition_rows_equal_single_points(name):
    rng = np.random.default_rng(11)
    P = random_box(rng, 3) if name == "box3" else random_prism(rng)
    states = np.array(decomposition_states(P, rng))
    stacked = ic.vertex_decompose(P, states)
    assert stacked.shape == (len(states), P.vertex_count)
    for x, row in zip(states, stacked):
        assert row.tobytes() == ic.vertex_decompose(P, x).tobytes()


def test_gauge_decomposition_duality_random():
    # sum(gamma) must equal the gauge on every contained point
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        if trial % 2 == 0 or n == 1:
            P = random_box(rng, n)
        else:
            P = random_hull_polytope(rng, n, count=n + 3)
        for _ in range(5):
            weights = rng.dirichlet(np.ones(P.vertex_count))
            x = (weights @ P.vertices) * rng.uniform(0.0, 1.0)
            gamma = ic.vertex_decompose(P, x)
            assert np.all(gamma >= 0.0)
            assert np.allclose(P.vertices.T @ gamma, x, atol=1e-8)
            assert gamma.sum() == pytest.approx(
                ic.minkowski_gauge(P, x), abs=1e-6
            )


def test_membership_consistency():
    rng = np.random.default_rng(9)
    P = random_box(rng, 2)
    for _ in range(200):
        x = rng.normal(size=2) * 2.0
        assert ic.contains(P, x) == (ic.minkowski_gauge(P, x) <= 1.0 + 1e-8)


def test_dimension_mismatch():
    P = ic.box([-1, -1], [1, 1])
    with pytest.raises(ic.DimensionMismatch):
        ic.contains(P, [1.0, 0.0, 0.0])
    with pytest.raises(ic.DimensionMismatch):
        ic.minkowski_gauge(P, [1.0])


def test_polytope_arrays_immutable():
    P = ic.box([-1, -1], [1, 1])
    with pytest.raises(ValueError):
        P.facets[0, 0] = 5.0


def test_box_requires_origin_inside():
    with pytest.raises(PolytopeError, match=r"^box must satisfy lower < 0 < upper$"):
        ic.box([0.0, -1.0], [1.0, 1.0])
    with pytest.raises(PolytopeError, match=r"^box must satisfy lower < 0 < upper$"):
        ic.box([-1.0], [-0.5])


def test_validate_dimension_mismatches():
    with pytest.raises(ic.DimensionMismatch):
        ic.validate_polytope(UNIT_BOX_F, np.ones((2, 3)))
    with pytest.raises(ic.DimensionMismatch):
        ic.validate_polytope(UNIT_BOX_F[0], UNIT_BOX_V)


def test_facet_simplices_of_boxes_and_cross_polytopes():
    square = ic.box([-1, -2], [1, 2]).facet_simplices
    assert square.simplex.all()  # every polygon edge is a simplex
    assert not ic.box([-1] * 3, [1] * 3).facet_simplices.simplex.any()
    cross = ic.validate_polytope(
        np.array(list(itertools.product([-1.0, 1.0], repeat=3))),
        np.vstack([np.eye(3), -np.eye(3)]),
    )
    fs = cross.facet_simplices
    assert fs.simplex.all()
    for k in range(cross.facet_count):
        V = cross.vertices[fs.vertices[k]].T
        assert np.allclose(cross.facets[k] @ V, 1.0)
        assert np.allclose(fs.inverses[k] @ V, np.eye(3), atol=1e-12)


def test_facet_with_dependent_tight_vertices_is_not_a_simplex():
    # a redundant facet touching only a duplicated vertex has n tight
    # vertices that span no simplex
    P = ic.validate_polytope(
        np.vstack([UNIT_BOX_F, [[0.5, 0.5]]]), np.vstack([UNIT_BOX_V, [[1.0, 1.0]]])
    )
    fs = P.facet_simplices
    assert fs.simplex.tolist() == [False, False, True, True, False]
    assert not fs.inverses[~fs.simplex].any()


def _fresh_decomposition(P, x):
    """The decomposition LP of ``x`` built from scratch, as one state alone
    would build it."""
    V = P.vertices
    lp = LinearProgram(c=np.ones(len(V)), A_in=np.vstack([V.T, -V.T]), b_in=np.hstack([x, -x]))
    return solve(lp)


@pytest.mark.parametrize("name", ["box3", "box4", "prism"])
def test_per_polytope_decomposition_lp_matches_a_fresh_build(name):
    rng = np.random.default_rng({"box3": 1, "box4": 2, "prism": 3}[name])
    P = {
        "box3": lambda: random_box(rng, 3),
        "box4": lambda: random_box(rng, 4),
        "prism": lambda: random_prism(rng),
    }[name]()
    assert not P.facet_simplices.simplex.any()
    for x in decomposition_states(P, rng):
        shared = solve_lanes(P.decomposition_lp, b_in=np.hstack([x, -x])[None])[0]
        fresh = _fresh_decomposition(P, x)
        assert shared.status is fresh.status
        assert shared.iterations == fresh.iterations
        assert shared.z.tobytes() == fresh.z.tobytes()
        gamma = ic.vertex_decompose(P, x)
        assert gamma.tobytes() == np.maximum(fresh.z, 0.0).tobytes()


def test_decomposition_lp_built_once_per_polytope(monkeypatch):
    from invarcert import lp_core

    built = []
    init = lp_core.LinearProgram.__post_init__
    monkeypatch.setattr(
        lp_core.LinearProgram, "__post_init__", lambda lp: built.append(lp) or init(lp)
    )
    P = ic.box([-1.0, -2.0, -0.5], [1.0, 0.5, 2.0])
    rng = np.random.default_rng(4)
    for _ in range(10):
        ic.vertex_decompose(P, rng.uniform(-0.5, 0.5, 3))
    assert len(built) == 1
    assert P.decomposition_lp is P.decomposition_lp
    assert np.array_equal(P.decomposition_lp.b_in, np.zeros(6))  # not overwritten


BAD_INPUTS = {
    "box-lengths-differ": (
        lambda: ic.box([-1.0, -1.0], [1.0]),
        ic.DimensionMismatch,
        "lower and upper lengths differ",
    ),
    # a NaN bound made NaN facets and vertices, an infinite one a zero facet
    "box-bound-nan": (
        lambda: ic.box([np.nan, -1.0], [1.0, 1.0]),
        PolytopeError,
        r"^box entry 0 is not finite: \[nan, 1\.0\]$",
    ),
    "box-bound-inf": (
        lambda: ic.box([-1.0, -1.0], [np.inf, 1.0]),
        PolytopeError,
        r"^box entry 0 is not finite: \[-1\.0, inf\]$",
    ),
    "decompose-wrong-shape": (
        lambda: ic.vertex_decompose(ic.box([-1.0, -1.0], [1.0, 1.0]), np.zeros((2, 2, 2))),
        ic.DimensionMismatch,
        r"points have shape \(2, 2, 2\), expected \(2,\) or \(N, 2\)",
    ),
    "decompose-wrong-dimension": (
        lambda: ic.vertex_decompose(ic.box([-1.0, -1.0], [1.0, 1.0]), np.zeros((4, 3))),
        ic.DimensionMismatch,
        r"points have shape \(4, 3\)",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_refused(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=message) as info:
        call()
    assert isinstance(info.value, ic.InvarcertError)
