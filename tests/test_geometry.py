import itertools

import numpy as np
import pytest

import invarcert as ic
from invarcert.geometry import (
    DecompositionInfeasible,
    OriginNotInterior,
    PolytopeError,
    PolytopeValidationError,
    RankDeficientFacets,
    UnsupportedFacet,
    VertexOutsideFacets,
)
from invarcert.lp_core import LinearProgram, solve, solve_batch

from instances import (
    decomposition_states,
    random_box,
    random_hull_polytope,
    random_prism,
)

UNIT_BOX_F = np.vstack([np.eye(2), -np.eye(2)])
UNIT_BOX_V = np.array(list(itertools.product([-1.0, 1.0], repeat=2)))


def test_validate_unit_box():
    P = ic.validate_polytope(UNIT_BOX_F, UNIT_BOX_V)
    assert P.dim == 2 and P.facet_count == 4 and P.vertex_count == 4


def test_vertex_outside_facets():
    verts = np.vstack([UNIT_BOX_V, [1.5, 0.0]])
    with pytest.raises(VertexOutsideFacets):
        ic.validate_polytope(UNIT_BOX_F, verts)


def test_unsupported_facet():
    # a 0.3-scaled row reaches at most 0.45 over the box corners
    F = np.vstack([UNIT_BOX_F, [0.3, 0.0]])
    with pytest.raises(UnsupportedFacet) as info:
        ic.validate_polytope(F, UNIT_BOX_V)
    assert info.value.row == 4
    assert info.value.reach == pytest.approx(0.3)


def test_rank_deficient_facets():
    F = np.array([[1.0, 0.0], [-1.0, 0.0]])
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(RankDeficientFacets):
        ic.validate_polytope(F, V)


def test_origin_not_interior():
    F = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -0.2]])
    V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises((OriginNotInterior, PolytopeValidationError)):
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
    with pytest.raises(PolytopeValidationError) as info:
        ic.validate_polytope(F, verts)
    kinds = {type(issue) for issue in info.value.issues}
    assert VertexOutsideFacets in kinds and UnsupportedFacet in kinds


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
    with pytest.raises(DecompositionInfeasible):
        ic.vertex_decompose(P, [1.5, 0.0])
    with pytest.raises(DecompositionInfeasible, match="point 1 outside"):
        ic.vertex_decompose(P, [[0.5, 0.0], [1.5, 0.0]])


def test_non_optimal_decomposition_raises(monkeypatch):
    # the LP of a point of P is feasible and bounded, so a lane that comes
    # back otherwise is a numerical fault: it raises, and no row is made
    from invarcert import lp_core

    real = lp_core.solve_batch

    def second_lane_fails(lp, **kwargs):
        outcomes = real(lp, **kwargs)
        outcomes[min(1, len(outcomes) - 1)] = lp_core.LpOutcome(lp_core.LpStatus.INFEASIBLE)
        return outcomes

    monkeypatch.setattr(lp_core, "solve_batch", second_lane_fails)
    P = ic.box([-1, -1, -1], [1, 1, 1])
    with pytest.raises(DecompositionInfeasible, match="^decomposition LP of the point is inf"):
        ic.vertex_decompose(P, [0.5, 0.2, -0.1])
    with pytest.raises(DecompositionInfeasible, match="^decomposition LP of point 1 is inf"):
        ic.vertex_decompose(P, [[0.5, 0.2, -0.1], [0.1, -0.3, 0.4], [0.0, 0.0, 0.0]])


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
    with pytest.raises(OriginNotInterior):
        ic.box([0.0, -1.0], [1.0, 1.0])
    with pytest.raises(OriginNotInterior):
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


def _fresh_decomposition(P, x, tol=1e-8):
    """The decomposition LP of ``x`` built from scratch, as one state alone
    would build it."""
    V = P.vertices
    lp = LinearProgram(c=np.ones(len(V)), A_in=np.vstack([V.T, -V.T]), b_in=np.hstack([x, -x]))
    return solve(lp, feas_tol=max(tol, 1e-9))


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
        shared = solve_batch(P.decomposition_lp, b_in=np.hstack([x, -x])[None], feas_tol=1e-9)[0]
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
    "box-lengths-differ": (lambda: ic.box([-1.0, -1.0], [1.0]), "lower and upper lengths differ"),
    "decompose-wrong-shape": (
        lambda: ic.vertex_decompose(ic.box([-1.0, -1.0], [1.0, 1.0]), np.zeros((2, 2, 2))),
        r"points have shape \(2, 2, 2\), expected \(2,\) or \(N, 2\)",
    ),
    "decompose-wrong-dimension": (
        lambda: ic.vertex_decompose(ic.box([-1.0, -1.0], [1.0, 1.0]), np.zeros((4, 3))),
        r"points have shape \(4, 3\)",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_refused(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(ic.DimensionMismatch, match=message):
        call()
