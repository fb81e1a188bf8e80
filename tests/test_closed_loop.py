import numpy as np
import pytest

import invarcert as ic
from invarcert import geometry
from invarcert.closed_loop import (
    DistributionUnavailable,
    TrajectoryOverflow,
    write_trajectory_csv,
)
from invarcert.geometry import DecompositionInfeasible

from instances import (
    affine3_instance,
    cross_polytope,
    path_instance,
    random_hull_polytope,
    random_prism,
    six_node_instance,
    unstable_edge_family,
)

UNIT2 = ic.box([-1, -1], [1, 1])
UNIT1 = ic.box([-1], [1])


def zero_dynamics_family(n=2):
    zero = np.zeros((n, n))
    return ic.AffineFamily(A0=zero, B0=np.eye(n), A_terms=[zero], B_terms=[zero])


def zero_policy(N, m, ell=1):
    return ic.AffinePolicy(gains=np.zeros((N, m, ell)), offsets=np.zeros((N, m)))


def law_inputs(S, vertex_inputs, X):
    """The vertex law's inputs at the states ``X`` (N, n) of ``S``: the
    first inputs of a one-step run of the zero plant under a policy that
    gives ``vertex_inputs`` (vertices of S, m) at the vertices."""
    vertex_inputs = np.asarray(vertex_inputs, dtype=float)
    zero_A, zero_B = np.zeros((S.dim, S.dim)), np.zeros((S.dim, vertex_inputs.shape[1]))
    fam = ic.AffineFamily(A0=zero_A, B0=zero_B, A_terms=[zero_A], B_terms=[zero_B])
    policy = ic.AffinePolicy(gains=np.zeros(vertex_inputs.shape + (1,)), offsets=vertex_inputs)
    runs = ic.simulate_closed_loop(fam, [0.0], S, policy, np.reshape(X, (-1, S.dim)), T=1)
    return np.array([run.inputs[0] for run in runs])


class TestVertexControlInput:
    def test_origin_maps_to_zero(self):
        inputs = np.arange(8.0).reshape(4, 2)
        u = law_inputs(UNIT2, inputs, [0.0, 0.0])[0]
        assert np.allclose(u, 0.0)

    def test_vertex_selects_own_input(self):
        inputs = np.arange(8.0).reshape(4, 2)
        u = law_inputs(UNIT2, inputs, UNIT2.vertices)
        assert np.allclose(u, inputs, atol=1e-9)

    def test_facet_midpoint_averages(self):
        inputs = np.arange(8.0).reshape(4, 2)
        # (1, 0) decomposes onto the two x1 = 1 vertices with weight 1/2
        gamma = ic.vertex_decompose(UNIT2, [1.0, 0.0])
        expected = gamma @ inputs
        u = law_inputs(UNIT2, inputs, [1.0, 0.0])[0]
        assert np.allclose(u, expected, atol=1e-9)
        idx = np.flatnonzero(UNIT2.vertices[:, 0] == 1.0)
        assert np.allclose(u, inputs[idx].mean(axis=0), atol=1e-9)


class TestSimulation:
    def test_deadbeat_to_origin(self):
        fam = zero_dynamics_family()
        policy = zero_policy(4, 2)
        traj = ic.simulate_closed_loop(fam, [0.0], UNIT2, policy, [0.6, -0.2], T=5)
        assert traj.gauges[0] == pytest.approx(0.6)
        assert np.allclose(traj.states[1:], 0.0)
        assert np.allclose(traj.gauges[1:], 0.0)
        assert traj.first_exit is None

    def test_scalar_recursion_oracle(self):
        # x+ = 0.5 x + 0.5 u checked against a direct recursion
        fam = unstable_edge_family(weight=0.5)
        scen = ic.ScenarioSet(samples=np.array([[0.5]]))
        policy = ic.solve_affine_policy(fam, UNIT1, UNIT1, scen)
        traj = ic.simulate_closed_loop(fam, [0.5], UNIT1, policy, [0.8], T=20)
        x = 0.8
        for t in range(20):
            u = float(traj.inputs[t, 0])
            x = 0.5 * x + 0.5 * u
            assert traj.states[t + 1, 0] == pytest.approx(x, abs=1e-12)
        assert np.all(np.diff(traj.gauges) <= 1e-9)  # certified: no expansion

    def test_vertex_start_has_unit_gauge(self):
        fam = zero_dynamics_family()
        policy = zero_policy(4, 2)
        traj = ic.simulate_closed_loop(
            fam, [0.0], UNIT2, policy, UNIT2.vertices[2], T=3
        )
        assert traj.gauges[0] == pytest.approx(1.0, abs=1e-12)

    def test_step_identity_holds(self):
        fam, S, U, scen = path_instance(K=10, seed=1)
        policy = ic.solve_affine_policy(fam, S, U, scen)
        delta = scen.samples[3]
        A, B = fam.instantiate(delta)
        traj = ic.simulate_closed_loop(fam, delta, S, policy, [0.4, -0.7], T=15)
        for t in range(15):
            lhs = traj.states[t + 1]
            rhs = A @ traj.states[t] + B @ traj.inputs[t]
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_exit_recorded_not_fatal(self):
        # destabilizing policy pushes the state out; the run keeps going
        # with zero input and flags the first exit step
        fam = ic.AffineFamily(
            A0=[[1.4]], B0=[[1.0]], A_terms=[[[0.0]]], B_terms=[[[0.0]]]
        )
        bad_policy = ic.AffinePolicy(
            gains=np.zeros((2, 1, 1)), offsets=[[1.0], [1.0]]
        )
        traj = ic.simulate_closed_loop(fam, [0.0], UNIT1, bad_policy, [0.9], T=6)
        assert traj.first_exit is not None
        assert traj.states.shape == (7, 1)
        after = traj.first_exit
        assert np.allclose(traj.inputs[after:], 0.0)

    def test_x0_outside_rejected(self):
        fam = zero_dynamics_family()
        with pytest.raises(DecompositionInfeasible):
            ic.simulate_closed_loop(fam, [0.0], UNIT2, zero_policy(4, 2), [2.0, 0.0])

    def test_interior_points_stay_certified(self):
        # convexity: any interior start stays inside at a training sample
        fam, S, U, scen = path_instance(K=25, seed=3)
        policy = ic.solve_affine_policy(fam, S, U, scen)
        rng = np.random.default_rng(0)
        for j in (0, 7, 24):
            delta = scen.samples[j]
            for _ in range(20):
                weights = rng.dirichlet(np.ones(S.vertex_count))
                x0 = (weights @ S.vertices) * rng.uniform(0, 1)
                traj = ic.simulate_closed_loop(fam, delta, S, policy, x0, T=30)
                assert traj.max_gauge <= 1.0 + 1e-6
                assert traj.first_exit is None


class TestViolationEstimation:
    def test_zero_over_training_set(self):
        fam, S, U, scen = path_instance(K=40, seed=9)
        policy = ic.solve_affine_policy(fam, S, U, scen)
        v_hat, failures = ic.empirical_violation(fam, S, U, policy, scen.samples)
        assert v_hat == 0.0 and failures == []

    def test_point_mass_certain_failure(self):
        fam = ic.AffineFamily(
            A0=[[2.0]], B0=[[0.0]], A_terms=[[[0.0]]], B_terms=[[[0.0]]]
        )
        policy = zero_policy(2, 1)
        dist = ic.UniformBox([0.0], [0.0])  # point mass
        est = ic.estimate_violation(fam, UNIT1, UNIT1, policy, dist, M=64, seed=1)
        assert est.v_hat == 1.0
        assert est.std_error == 0.0

    def test_reproducible_given_seed(self):
        fam, S, U, scen = path_instance(K=30, seed=11)
        policy = ic.solve_affine_policy(fam, S, U, scen)
        a = ic.estimate_violation(fam, S, U, policy, scen.distribution, M=500, seed=5)
        b = ic.estimate_violation(fam, S, U, policy, scen.distribution, M=500, seed=5)
        assert a.v_hat == b.v_hat and a.failures == b.failures

    def test_missing_distribution_rejected(self):
        fam = ic.TableFamily(pairs=[(np.array([[0.5]]), np.array([[1.0]]))])
        with pytest.raises(DistributionUnavailable):
            ic.estimate_violation(fam, UNIT1, UNIT1, zero_policy(2, 1), None, M=10)

    def test_table_family_with_discrete_distribution(self):
        fam = ic.TableFamily(
            pairs=[
                (np.array([[0.2]]), np.array([[1.0]])),
                (np.array([[0.4]]), np.array([[1.0]])),
            ]
        )

        class TableIndices:  # uniform over the two table indices
            def draw(self, count, rng):
                return rng.integers(0, 2, size=(count, 1)).astype(float)

        est = ic.estimate_violation(
            fam, UNIT1, UNIT1, zero_policy(2, 1), TableIndices(), M=50, seed=2
        )
        assert est.v_hat == 0.0


def test_trajectory_csv_format(tmp_path):
    fam, S, U, scen = path_instance(K=5, seed=2)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    traj = ic.simulate_closed_loop(fam, scen.samples[0], S, policy, [0.5, 0.5], T=4)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, traj)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,u_1,gauge"
    assert len(lines) == 6  # header + T + 1 states
    last = lines[-1].split(",")
    assert last[3] == ""  # no input at the final state


def test_unseen_sample_behavior_tracks_admissibility():
    # at a fresh parameter draw, staying inside over one step from every
    # vertex is exactly the admissibility of the realized vertex inputs
    fam, S, U, scen = path_instance(K=40, seed=21)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    rng = np.random.default_rng(4)
    for _ in range(10):
        delta = scen.distribution.draw(1, rng)[0]
        admissible = ic.is_admissible(
            fam, S, U, delta, policy.vertex_inputs(delta)
        )
        ok_one_step = True
        for v in S.vertices:
            traj = ic.simulate_closed_loop(fam, delta, S, policy, v, T=1)
            ok_one_step &= traj.gauges[1] <= 1.0 + 1e-8
        assert ok_one_step == admissible


def _explicit_and_lp(P, points, monkeypatch):
    """Weights of the explicit law (via identity vertex inputs) next to the
    LP decomposition, with the LP fallback of the law forbidden."""
    real = geometry.vertex_decompose

    def no_lp(*args, **kwargs):
        raise AssertionError("explicit law fell back to the LP")

    monkeypatch.setattr(geometry, "vertex_decompose", no_lp)
    explicit = law_inputs(P, np.eye(P.vertex_count), points)
    monkeypatch.setattr(geometry, "vertex_decompose", real)
    return explicit, np.array([real(P, x) for x in points])


def _simplicial_test_points(P, rng):
    """Interior points of every facet cone, points on ridges, the vertices
    (at full and half scale) and the origin."""
    n = P.dim
    fs = P.facet_simplices
    assert fs.simplex.all()
    points = [np.zeros(n)]
    for k in range(P.facet_count):
        V = P.vertices[fs.vertices[k]]
        points.append(rng.dirichlet(np.ones(n)) @ V * rng.uniform(0.05, 1.0))
        if n > 1:
            ridge = rng.dirichlet(np.ones(n - 1)) @ V[rng.permutation(n)[: n - 1]]
            points += [ridge, 0.3 * ridge]
    points += list(P.vertices) + list(0.5 * P.vertices)
    return points


@pytest.mark.parametrize("kind", ["polygon", "cross", "simplex"])
def test_explicit_law_matches_lp_on_simplicial_polytopes(kind, monkeypatch):
    rng = np.random.default_rng({"polygon": 1, "cross": 2, "simplex": 3}[kind])
    shapes = []
    for n in (2, 3, 4, 5):
        if kind == "polygon" and n == 2:
            shapes += [random_hull_polytope(rng, 2, count=c) for c in (3, 5, 8)]
        elif kind == "cross":
            basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
            shapes.append(cross_polytope(basis, rng.uniform(0.3, 2.0, n)))
        elif kind == "simplex":
            shapes.append(random_hull_polytope(rng, n, count=n + 1))
    for P in shapes:
        explicit, lp = _explicit_and_lp(P, _simplicial_test_points(P, rng), monkeypatch)
        assert np.abs(explicit - lp).max() <= 1e-9


def test_box_steps_all_use_the_lp(monkeypatch):
    # a 3-D box has square facets, so the law has no closed form there
    S = ic.box([-1, -1, -1], [1, 1, 1])
    fam = ic.AffineFamily(
        A0=0.5 * np.eye(3), B0=np.eye(3), A_terms=[np.zeros((3, 3))], B_terms=[np.zeros((3, 3))]
    )
    policy = ic.AffinePolicy(
        gains=np.zeros((8, 3, 1)), offsets=0.1 * np.random.default_rng(0).normal(size=(8, 3))
    )
    calls = []
    real = geometry.vertex_decompose

    def counted(P, x, **kwargs):
        calls.append((np.shape(x), kwargs))
        return real(P, x, **kwargs)

    monkeypatch.setattr(geometry, "vertex_decompose", counted)
    starts = np.random.default_rng(1).uniform(-0.9, 0.9, size=(5, 3))
    trajectories = ic.simulate_closed_loop(fam, [0.0], S, policy, starts, T=7)
    assert all(traj.first_exit is None for traj in trajectories)
    # one stacked decomposition per step, of all five states, which skips
    # the outside test that the step's exit test has just made
    assert calls == [((5, 3), {"inside": True})] * 7


def test_failed_decomposition_raises_instead_of_an_exit(monkeypatch):
    # a non-optimal decomposition lane of a state inside S is a numerical
    # fault, not an exit: the law and the simulation raise
    from invarcert import lp_core

    finish = lp_core._finish
    steps = []

    def flags_at_step_three(lp, y, B_in, scale):
        # the finish of the third step flags the last lane, whose lone solve fails
        Z, objective, resid, bad = finish(lp, y, B_in, scale)
        steps.append(len(y))
        if len(steps) == 3:
            bad[-1] = True
        return Z, objective, resid, bad

    monkeypatch.setattr(lp_core, "_finish", flags_at_step_three)
    monkeypatch.setattr(lp_core, "solve", lambda lp: lp_core.LpOutcome(lp_core.LpStatus.INFEASIBLE))
    S = ic.box([-1, -1, -1], [1, 1, 1])
    fam = ic.AffineFamily(
        A0=0.5 * np.eye(3), B0=np.eye(3), A_terms=[np.zeros((3, 3))], B_terms=[np.zeros((3, 3))]
    )
    policy = ic.AffinePolicy(gains=np.zeros((8, 3, 1)), offsets=-0.1 * S.vertices)
    starts = np.random.default_rng(1).uniform(-0.9, 0.9, size=(4, 3))
    with pytest.raises(DecompositionInfeasible, match="^decomposition LP of point 3 is inf"):
        ic.simulate_closed_loop(fam, [0.0], S, policy, starts, T=5)
    assert steps == [4, 4, 4]
    steps[:] = [0, 0]
    with pytest.raises(DecompositionInfeasible, match="^decomposition LP of point 0 is inf"):
        ic.simulate_closed_loop(fam, [0.0], S, policy, starts[0], T=1)


def _one_by_one(fam, delta, S, policy, starts, T):
    return [ic.simulate_closed_loop(fam, delta, S, policy, x0, T=T) for x0 in starts]


def _assert_same(stacked, singles):
    assert len(stacked) == len(singles)
    for a, b in zip(stacked, singles):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.gauges, b.gauges)
        assert a.first_exit == b.first_exit
        assert a.policy_fingerprint == b.policy_fingerprint


@pytest.mark.parametrize("instance", ["path", "six_node", "box3"])
def test_stacked_starts_equal_single_starts(instance):
    rng = np.random.default_rng(5)
    if instance == "box3":
        S = ic.box([-1, -1, -1], [1, 1, 1])
        fam = ic.AffineFamily(
            A0=1.1 * np.linalg.qr(rng.normal(size=(3, 3)))[0],
            B0=np.eye(3),
            A_terms=[np.zeros((3, 3))],
            B_terms=[np.zeros((3, 3))],
        )
        policy = ic.AffinePolicy(
            gains=np.zeros((8, 3, 1)), offsets=-0.1 * S.vertices
        )
        delta = [0.0]
    else:
        fam, S, U, scen = (
            path_instance(K=20, seed=4) if instance == "path" else six_node_instance(K=60)
        )
        policy = ic.solve_affine_policy(fam, S, U, scen)
        delta = scen.samples[3]
    weights = rng.dirichlet(np.ones(S.vertex_count), size=9)
    starts = np.vstack([S.vertices, (weights @ S.vertices) * rng.uniform(0, 1, (9, 1))])
    stacked = ic.simulate_closed_loop(fam, delta, S, policy, starts, T=12)
    _assert_same(stacked, _one_by_one(fam, delta, S, policy, starts, 12))
    one = ic.simulate_closed_loop(fam, delta, S, policy, starts[:1], T=12)
    _assert_same(one, stacked[:1])


def test_exits_are_frozen_per_start():
    # x1 grows by 1.4 per step, x2 shrinks; the input only pushes x2
    fam = ic.AffineFamily(
        A0=np.diag([1.4, 0.5]), B0=0.05 * np.eye(2), A_terms=[np.zeros((2, 2))],
        B_terms=[np.zeros((2, 2))],
    )
    policy = ic.AffinePolicy(gains=np.zeros((4, 2, 1)), offsets=np.tile([0.0, 1.0], (4, 1)))
    starts = np.array([[0.9, 0.0], [0.0, 0.9], [0.5, 0.5], [0.2, -0.3]])
    trajectories = ic.simulate_closed_loop(fam, [0.0], UNIT2, policy, starts, T=10)
    exits = [traj.first_exit for traj in trajectories]
    assert exits == [1, None, 3, 5]
    for traj, first in zip(trajectories, exits):
        if first is not None:
            assert np.all(traj.gauges[first] > 1.0)
            assert np.all(traj.inputs[first:] == 0.0)
            assert np.all(np.abs(traj.inputs[:first]).sum(axis=1) > 0.0)
    _assert_same(trajectories, _one_by_one(fam, [0.0], UNIT2, policy, starts, 10))


def test_lp_steps_with_exits_match_single_starts():
    # a 3-D box takes the stacked LP at every step; x1 grows, so starts
    # leave one after another and drop out of the stack
    S = ic.box([-1, -1, -1], [1, 1, 1])
    fam = ic.AffineFamily(
        A0=np.diag([1.3, 0.6, 0.7]), B0=np.diag([0.5, 0.05, 0.05]), A_terms=[np.zeros((3, 3))],
        B_terms=[np.zeros((3, 3))],
    )
    policy = ic.AffinePolicy(gains=np.zeros((8, 3, 1)), offsets=-0.5 * S.vertices)
    rng = np.random.default_rng(8)
    starts = rng.uniform(-0.9, 0.9, size=(12, 3))
    trajectories = ic.simulate_closed_loop(fam, [0.0], S, policy, starts, T=15)
    exits = [traj.first_exit for traj in trajectories]
    assert None in exits and len(set(exits) - {None}) > 2
    _assert_same(trajectories, _one_by_one(fam, [0.0], S, policy, starts, 15))


def _reference_loop(family, delta, S, policy, X, T):
    """The step loop as it was before it was cut down to its arithmetic:
    states as rows, each step's gauges and exit test taken per row, and
    the per-row split of the explicit law.  Returns the states, inputs,
    gauges and first exits of every start."""

    def apply(M, X):
        return (M @ X[:, :, None])[:, :, 0]

    def law(facet_inputs, vertex_inputs, X, Fx):
        facets = S.facet_simplices
        k = Fx.argmax(axis=1)
        gamma = apply(facets.inverses[k], X)
        explicit = facets.simplex[k] & (gamma.min(axis=1) >= -1e-11)
        u = (np.maximum(gamma, 0.0)[:, None, :] @ facet_inputs[k])[:, 0]
        rows = (~explicit).nonzero()[0]
        if rows.size:
            weights = geometry.vertex_decompose(S, X[rows])
            u[rows] = (weights[:, None, :] @ vertex_inputs)[:, 0]
        return u

    A, B = family.instantiate(np.ravel(delta))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, n = X.shape
    states, gauges = np.empty((N, T + 1, n)), np.empty((N, T + 1))
    Fx = apply(S.facets, X)
    states[:, 0], gauges[:, 0] = X, np.maximum(Fx.max(axis=1), 0.0)
    first_exit, live = np.full(N, -1), slice(None)
    vertex_inputs = policy.vertex_inputs(np.ravel(delta))
    facet_inputs = vertex_inputs[S.facet_simplices.vertices]
    inputs = np.zeros((N, T, vertex_inputs.shape[1]))
    for t in range(T):
        inputs[live, t] = law(facet_inputs, vertex_inputs, X[live], Fx[live])
        X = apply(A, X) + apply(B, inputs[:, t])
        Fx = apply(S.facets, X)
        states[:, t + 1] = X
        gauges[:, t + 1] = np.maximum(Fx.max(axis=1), 0.0)
        inside = gauges[:, t + 1] <= 1.0 + geometry.DEFAULT_TOL
        if not inside.all():
            first_exit[(first_exit < 0) & ~inside] = t + 1
            live = (first_exit < 0).nonzero()[0]
    return states, inputs, gauges, first_exit


def _flat_vertex_polygon():
    """A diamond with one more vertex 1e-8 outside its (1, 0)-(0, 1) edge:
    the two facets at that vertex are almost one, so near it ``argmax F x``
    ties and the explicit weights of a state a little past the vertex fall
    within a few 1e-11 below zero, on both sides of the law's -1e-11."""
    from scipy.spatial import ConvexHull

    V = np.array([[1.0, 0.0], [0.5 + 1e-8, 0.5 + 1e-8], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    hull = ConvexHull(V)
    P = ic.validate_polytope(hull.equations[:, :-1] / -hull.equations[:, -1:], V)
    s = np.linspace(-2e-11, 2e-11, 17)
    starts = 0.999 * (V[1] + s[:, None] * np.array([1.0, -1.0]))
    return P, starts


def _explicit_weights(P, X):
    """The smallest explicit weight of each state, as the law takes it."""
    Fx = (P.facets @ X[:, :, None])[:, :, 0]
    k = Fx.argmax(axis=1)
    return (P.facet_simplices.inverses[k] @ X[:, :, None]).min(axis=(1, 2))


def _step_loop_cases():
    """(name, family, delta, S, policy, starts, T) of every reference case."""
    rng = np.random.default_rng(22)
    fam, S, U, scen = six_node_instance(K=60)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    weights = rng.dirichlet(np.ones(S.vertex_count), size=10)
    starts = np.vstack([S.vertices, (weights @ S.vertices) * rng.uniform(0, 1, (10, 1))])
    delta = scen.samples[5]
    cases = [("cross-polytope", fam, delta, S, policy, starts, 20)]
    for name, scale in (("some-exit", 2.9), ("all-exit", 40.0)):
        scaled = ic.AffinePolicy(gains=scale * policy.gains, offsets=scale * policy.offsets)
        cases.append((name, fam, delta, S, scaled, starts, 20))
    cases.append(("single-start", fam, delta, S, policy, starts[9], 20))
    fam3, box3, U3, scen3 = affine3_instance(K=60, seed=4)
    policy3 = ic.solve_affine_policy(fam3, box3, U3, scen3)
    cases.append(("affine3-box", fam3, scen3.samples[7], box3, policy3, 0.9 * box3.vertices, 8))
    contraction = ic.AffineFamily(
        A0=0.7 * np.linalg.qr(rng.normal(size=(3, 3)))[0], B0=0.2 * np.eye(3),
        A_terms=[np.zeros((3, 3))], B_terms=[np.zeros((3, 3))],
    )
    # a prism over a triangle: simplicial ends, parallelogram sides
    prism = random_prism(np.random.default_rng(0), sides=3)
    for name, P in (("prism", prism), ("hull", random_hull_polytope(rng, 3, 9))):
        push = ic.AffinePolicy(gains=np.zeros((P.vertex_count, 3, 1)), offsets=-P.vertices)
        weights = rng.dirichlet(np.ones(P.vertex_count), size=12)
        starts = np.vstack([P.vertices, weights @ P.vertices])
        cases.append((name, contraction, [0.0], P, push, starts, 12))
    P, starts = _flat_vertex_polygon()
    flat = ic.AffineFamily(
        A0=0.5 * np.eye(2), B0=0.1 * np.eye(2), A_terms=[np.zeros((2, 2))],
        B_terms=[np.zeros((2, 2))],
    )
    pull = ic.AffinePolicy(gains=np.zeros((5, 2, 1)), offsets=-0.5 * P.vertices)
    accepted = starts[_explicit_weights(P, starts) >= -1e-11]
    cases.append(("near-threshold", flat, [0.0], P, pull, starts, 3))
    cases.append(("near-threshold-accepted", flat, [0.0], P, pull, accepted, 3))
    return cases


def test_step_loop_matches_the_reference_loop():
    cases = {case[0]: case[1:] for case in _step_loop_cases()}
    # what the cases are meant to cover
    assert cases["cross-polytope"][2].facet_simplices.simplex.all()
    assert not cases["affine3-box"][2].facet_simplices.simplex.any()
    assert 0 < cases["prism"][2].facet_simplices.simplex.sum() < cases["prism"][2].facet_count
    P, starts = cases["near-threshold"][2], cases["near-threshold"][4]
    weights = _explicit_weights(P, starts)
    assert (weights < -1e-11).any() and ((weights >= -1e-11) & (weights < 0.0)).any()
    for name, (fam, delta, S, policy, starts, T) in cases.items():
        runs = ic.simulate_closed_loop(fam, delta, S, policy, starts, T=T)
        runs = [runs] if isinstance(runs, ic.Trajectory) else runs
        states, inputs, gauges, first_exit = _reference_loop(fam, delta, S, policy, starts, T)
        exits = [run.first_exit for run in runs]
        assert exits == [None if e < 0 else int(e) for e in first_exit], name
        for s, run in enumerate(runs):
            assert run.states.tobytes() == states[s].tobytes(), (name, s)
            assert run.inputs.tobytes() == inputs[s].tobytes(), (name, s)
            assert run.gauges.tobytes() == gauges[s].tobytes(), (name, s)
        if name == "some-exit":
            assert None in exits and set(exits) != {None}
        if name == "all-exit":
            assert None not in exits


def test_overflowing_run_names_its_first_non_finite_state():
    # A(delta) = delta I: at delta = 1e200 start 1 leaves S at step 1 and
    # overflows at step 2, start 0 stays at the origin, start 2 leaves later
    fam = ic.AffineFamily(
        A0=np.zeros((2, 2)), B0=np.zeros((2, 2)), A_terms=[np.eye(2)],
        B_terms=[np.zeros((2, 2))],
    )
    starts = np.array([[0.0, 0.0], [0.5, -0.25], [1e-150, 0.0]])
    with pytest.raises(TrajectoryOverflow, match="start 1 at step 2 is not finite"):
        ic.simulate_closed_loop(fam, [1e200], UNIT2, zero_policy(4, 2), starts, T=4)


def test_non_finite_input_ends_the_run_with_an_overflow():
    # vertex inputs of +inf and -inf at the two vertices of the x1 = -1
    # facet make the input at (-0.5, 0) NaN: that state leaves S at once
    # instead of reaching the decomposition, and the run is refused
    gains = np.zeros((4, 2, 1))
    gains[0, 0, 0], gains[1, 0, 0] = 1e308, -1e308
    policy = ic.AffinePolicy(gains=gains, offsets=np.zeros((4, 2)))
    starts = np.array([[0.5, 0.5], [-0.5, 0.0]])
    with pytest.raises(TrajectoryOverflow, match="start 1 at step 1 is not finite"):
        ic.simulate_closed_loop(zero_dynamics_family(), [10.0], UNIT2, policy, starts, T=3)


def test_oversized_simulation_rejected_before_allocation():
    from invarcert.closed_loop import MAX_STATES
    from invarcert.errors import InvalidArguments

    fam = zero_dynamics_family()
    with pytest.raises(InvalidArguments, match=f"more than the cap of {MAX_STATES}"):
        ic.simulate_closed_loop(fam, [0.0], UNIT2, zero_policy(4, 2), [0.1, 0.2], T=10**12)


def test_start_outside_named_by_index():
    fam = zero_dynamics_family()
    starts = np.array([[0.5, 0.5], [0.1, 0.2], [2.0, 0.0]])
    with pytest.raises(DecompositionInfeasible, match="start 2 lies outside S"):
        ic.simulate_closed_loop(fam, [0.0], UNIT2, zero_policy(4, 2), starts)


@pytest.mark.parametrize("N, m, ell", [(3, 2, 1), (5, 2, 1), (4, 1, 1), (4, 2, 2)])
def test_policy_shape_checked_before_any_step(N, m, ell, monkeypatch):
    fam = zero_dynamics_family()  # S = UNIT2 has 4 vertices, m = 2, ell = 1

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran with a policy of the wrong shape")

    monkeypatch.setattr(fam.__class__, "instantiate", no_step)
    monkeypatch.setattr(fam.__class__, "instantiate_batch", no_step)
    message = rf"policy gains have shape \({N}, {m}, {ell}\), expected \(4, 2, 1\)"
    with pytest.raises(ic.DimensionMismatch, match=message):
        ic.simulate_closed_loop(fam, [0.0], UNIT2, zero_policy(N, m, ell), [0.1, 0.2])
    with pytest.raises(ic.DimensionMismatch, match=message):
        ic.empirical_violation(fam, UNIT2, UNIT2, zero_policy(N, m, ell), [[0.0]])


def test_empty_stack_of_starts_gives_no_trajectories():
    # N starts give N trajectories, on either law path
    S3 = ic.box([-1, -1, -1], [1, 1, 1])
    fam3 = ic.AffineFamily(
        A0=0.5 * np.eye(3), B0=np.eye(3), A_terms=[np.zeros((3, 3))], B_terms=[np.zeros((3, 3))]
    )
    assert ic.simulate_closed_loop(fam3, [0.0], S3, zero_policy(8, 3), np.zeros((0, 3))) == []
    fam2 = zero_dynamics_family()
    assert ic.simulate_closed_loop(fam2, [0.0], UNIT2, zero_policy(4, 2), np.zeros((0, 2))) == []


def test_overflowing_plant_refused_before_any_step(monkeypatch):
    # A(delta) = delta 2 I is not finite at the finite delta = 1e308: the
    # parameter is refused by name before any step, and the overflow while
    # building the plant warns nothing (warnings are errors in this suite)
    from invarcert import closed_loop
    from invarcert.errors import InvalidArguments

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran at a non-finite plant")

    monkeypatch.setattr(closed_loop, "_vertex_law", no_step)
    fam = ic.AffineFamily(
        A0=np.zeros((2, 2)), B0=np.eye(2), A_terms=[2.0 * np.eye(2)], B_terms=[np.zeros((2, 2))]
    )
    message = r"^parameter \[1e\+308\] gives a non-finite plant$"
    for starts in (np.array([[0.5, 0.5], [0.0, 0.0]]), [0.5, 0.5]):
        with pytest.raises(InvalidArguments, match=message):
            ic.simulate_closed_loop(fam, [1e308], UNIT2, zero_policy(4, 2), starts)


@pytest.mark.parametrize("T", [0, -2])
def test_short_horizon_rejected_before_allocation(T):
    from invarcert.closed_loop import check_size
    from invarcert.errors import InvalidArguments

    with pytest.raises(InvalidArguments, match="^horizon must be >= 1$"):
        check_size(10**12, T, 2)  # N x (T + 1) x n would be <= 0, under the cap
    fam = zero_dynamics_family()
    with pytest.raises(InvalidArguments, match="^horizon must be >= 1$"):
        ic.simulate_closed_loop(fam, [0.0], UNIT2, zero_policy(4, 2), [0.1, 0.2], T=T)


# each input check of the closed loop, with the error it raises; the
# family is the zero plant on UNIT2 with one parameter
def _one_step(x0, delta=(0.0,), N=4):
    return lambda: ic.simulate_closed_loop(
        zero_dynamics_family(), delta, UNIT2, zero_policy(N, 2), x0, T=1
    )


BAD_INPUTS = {
    "vertex-input-count": (
        _one_step([0.0, 0.0], N=3),
        ic.DimensionMismatch,
        r"policy gains have shape \(3, 2, 1\), expected \(4, 2, 1\)",
    ),
    "point-dimension": (
        _one_step([0.0, 0.0, 0.0]),
        ic.DimensionMismatch,
        r"x0 has shape \(3,\), expected \(2,\) or \(N, 2\)",
    ),
    "point-outside-S": (_one_step([1.5, 0.0]), DecompositionInfeasible, "^start 0 lies outside S$"),
    # F x <= 1 is false for NaN: a NaN start is outside S, refused before any step
    "start-not-finite": (
        _one_step([[0.5, 0.5], [np.nan, 0.0]]),
        DecompositionInfeasible,
        "^start 1 lies outside S$",
    ),
    "parameter-nan": (
        _one_step([0.5, 0.5], delta=[np.nan]),
        ic.InvalidArguments,
        "^parameter entry 0 is nan, not finite$",
    ),
    "parameter-inf": (
        _one_step([0.5, 0.5], delta=[-np.inf]),
        ic.InvalidArguments,
        "^parameter entry 0 is -inf, not finite$",
    ),
    "x0-shape": (
        lambda: ic.simulate_closed_loop(
            zero_dynamics_family(), [0.0], UNIT2, zero_policy(4, 2), np.zeros((2, 3)), T=3
        ),
        ic.DimensionMismatch,
        r"x0 has shape \(2, 3\), expected \(2,\) or \(N, 2\)",
    ),
    "estimate-M-below-one": (
        lambda: ic.estimate_violation(
            zero_dynamics_family(), UNIT2, UNIT2, zero_policy(4, 2), ic.UniformBox([0], [1]), M=0
        ),
        ValueError,
        "M must be >= 1",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_refused(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=message):
        call()
