import numpy as np
import pytest

import invarcert as ic
from invarcert import lp_core
from invarcert.scenario import CHUNK, Infeasible

from instances import random_affine_instance, six_node_instance


def zero_dynamics(n=2):
    zero = np.zeros((n, n))
    return ic.AffineFamily(A0=zero, B0=np.eye(n), A_terms=[zero], B_terms=[zero])


def uncontrollable(n=2, gain=2.0):
    zero = np.zeros((n, n))
    return ic.AffineFamily(
        A0=gain * np.eye(n), B0=zero, A_terms=[zero], B_terms=[zero]
    )


UNIT2 = ic.box([-1, -1], [1, 1])


def lp_block_feasible(family, S, U, delta):
    """Direct LP feasibility of every vertex block (the oracle route)."""
    A, B = family.instantiate(delta)
    G = np.vstack([U.facets, S.facets @ B])
    FAX = S.facets @ A @ S.vertices.T
    for i in range(S.vertex_count):
        l = np.concatenate([np.ones(U.facet_count), 1.0 - FAX[:, i]])
        # the free input u as p - q with p, q >= 0
        lp = lp_core.LinearProgram(c=np.zeros(2 * U.dim), A_in=np.hstack([G, -G]), b_in=l)
        if lp_core.solve(lp).status is not lp_core.LpStatus.OPTIMAL:
            return False
    return True


def test_zero_dynamics_feasible_with_witnesses():
    result = ic.single_sample_iff(zero_dynamics(), UNIT2, UNIT2, [0.0])
    assert result.feasible
    assert len(result.witnesses) == UNIT2.vertex_count
    for w in result.witnesses:
        assert len(w.input_rows) + len(w.image_rows) == 2
        assert abs(np.linalg.det(w.submatrix)) > 1e-10


def test_uncontrollable_infeasible():
    result = ic.single_sample_iff(uncontrollable(), UNIT2, UNIT2, [0.0])
    assert not result.feasible
    assert result.failed_vertex == 0


def test_witness_points_satisfy_their_blocks():
    rng = np.random.default_rng(4)
    for _ in range(20):
        zero = np.zeros((2, 2))
        fam = ic.AffineFamily(
            A0=rng.uniform(-1, 1, (2, 2)),
            B0=rng.uniform(-1, 1, (2, 2)),
            A_terms=[zero],
            B_terms=[zero],
        )
        result = ic.single_sample_iff(fam, UNIT2, UNIT2, [0.0])
        if not result.feasible:
            continue
        A, B = fam.instantiate([0.0])
        G = np.vstack([UNIT2.facets, UNIT2.facets @ B])
        FAX = UNIT2.facets @ A @ UNIT2.vertices.T
        for w in result.witnesses:
            l = np.concatenate([np.ones(4), 1.0 - FAX[:, w.vertex]])
            assert np.all(G @ w.point <= l + 1e-8)


def test_verdict_matches_lp_oracle():
    # the minor enumeration is an iff; cross-check against the simplex route
    rng = np.random.default_rng(100)
    agree = 0
    for trial in range(60):
        n = 2 if trial % 2 == 0 else 3
        zero = np.zeros((n, n))
        zb = np.zeros((n, 2))
        fam = ic.AffineFamily(
            A0=rng.uniform(-1, 1, (n, n)),
            B0=rng.uniform(-1, 1, (n, 2)),
            A_terms=[zero],
            B_terms=[zb],
        )
        S = ic.box(-np.ones(n), np.ones(n))
        U = ic.box([-1, -1], [1, 1])
        verdict = ic.single_sample_iff(fam, S, U, [0.0]).feasible
        assert verdict == lp_block_feasible(fam, S, U, [0.0])
        agree += 1
    assert agree == 60


def test_requires_state_dim_at_least_input_dim():
    zero = np.zeros((1, 1))
    fam = ic.AffineFamily(
        A0=[[0.5]], B0=[[1.0, 1.0]], A_terms=[zero], B_terms=[np.zeros((1, 2))]
    )
    with pytest.raises(ic.InvalidArguments, match=r"^requires n >= m, got n=1, m=2$"):
        ic.single_sample_iff(fam, ic.box([-1], [1]), ic.box([-1, -1], [1, 1]), [0.0])


def test_enumeration_cap(monkeypatch):
    # 8 rows, m = 2: 28 row subsets per vertex block
    from invarcert import feasibility

    monkeypatch.setattr(feasibility, "ENUMERATION_CAP", 27)
    with pytest.raises(ic.InvalidArguments, match="^28 row subsets exceed the cap of 27$"):
        ic.single_sample_iff(zero_dynamics(), UNIT2, UNIT2, [0.0])
    scen = ic.ScenarioSet(samples=np.zeros((2, 1)))
    with pytest.raises(ic.InvalidArguments, match="^28 row subsets exceed the cap of 27$"):
        ic.multisample_necessary(zero_dynamics(), UNIT2, UNIT2, scen)
    monkeypatch.setattr(feasibility, "ENUMERATION_CAP", 28)
    assert ic.single_sample_iff(zero_dynamics(), UNIT2, UNIT2, [0.0]).feasible


class TestMultisample:
    def test_all_samples_pass(self):
        fam = zero_dynamics()
        scen = ic.ScenarioSet(samples=np.linspace(-1, 1, 4)[:, None])
        result = ic.multisample_necessary(fam, UNIT2, UNIT2, scen)
        assert result.passed and result.first_failure is None

    def test_failing_sample_identified_and_joint_infeasible(self):
        # A(delta) = (1 + delta) I with B = 0: samples beyond delta = 0
        # push the corners out, so the joint program must also be empty
        zero = np.zeros((2, 2))
        fam = ic.AffineFamily(
            A0=np.eye(2), B0=zero, A_terms=[np.eye(2)], B_terms=[zero]
        )
        scen = ic.ScenarioSet(samples=np.array([[0.0], [0.5]]))
        result = ic.multisample_necessary(fam, UNIT2, UNIT2, scen)
        assert not result.passed
        assert result.first_failure == (0, 1)  # vertex 0 of sample 1
        with pytest.raises(Infeasible):
            ic.solve_affine_policy(fam, UNIT2, UNIT2, scen)

    def test_necessity_only_table_counterexample(self):
        # every snapshot is individually controllable, but the required
        # inputs are not affine in the table index, so the joint affine
        # program is empty while the necessary condition passes
        # snapshot 1 needs u(1) in [-4e, -2e] at the top vertex while the
        # outer snapshots pin u(0), u(2) to [-e, e]; affine interpolation
        # can only reach midpoints in [-e, e]
        eps = 0.05
        S = ic.validate_polytope([[1 / eps], [-1 / eps]], [[eps], [-eps]])
        U = ic.box([-1], [1])
        fam = ic.TableFamily(
            pairs=[
                (np.array([[0.0]]), np.array([[1.0]])),
                (np.array([[3.0]]), np.array([[1.0]])),
                (np.array([[0.0]]), np.array([[1.0]])),
            ]
        )
        scen = ic.ScenarioSet(samples=np.array([[0.0], [1.0], [2.0]]))
        result = ic.multisample_necessary(fam, S, U, scen)
        assert result.passed
        with pytest.raises(Infeasible):
            ic.solve_affine_policy(fam, S, U, scen)

    def test_single_sample_reduces_to_iff(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            zero = np.zeros((2, 2))
            fam = ic.AffineFamily(
                A0=rng.uniform(-1.2, 1.2, (2, 2)),
                B0=rng.uniform(-1, 1, (2, 1)),
                A_terms=[zero],
                B_terms=[np.zeros((2, 1))],
            )
            scen = ic.ScenarioSet(samples=np.array([[0.0]]))
            single = ic.single_sample_iff(fam, UNIT2, ic.box([-1], [1]), [0.0])
            multi = ic.multisample_necessary(fam, UNIT2, ic.box([-1], [1]), scen)
            joint_feasible = True
            try:
                ic.solve_affine_policy(fam, UNIT2, ic.box([-1], [1]), scen)
            except Infeasible:
                joint_feasible = False
            assert single.feasible == multi.passed == joint_feasible

    def test_soundness_of_necessity(self):
        # joint feasibility must imply a passing necessary condition
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(10):
            a0 = rng.uniform(1.05, 1.25)
            zero = np.zeros((1, 1))
            fam = ic.AffineFamily(
                A0=[[a0]], B0=[[1.0]], A_terms=[[[0.1]]], B_terms=[zero]
            )
            S, U = ic.box([-1], [1]), ic.box([-2], [2])
            scen = ic.ScenarioSet(samples=rng.uniform(-1, 1, size=(15, 1)))
            try:
                ic.solve_affine_policy(fam, S, U, scen)
            except Infeasible:
                continue
            assert ic.multisample_necessary(fam, S, U, scen).passed
            checked += 1
        assert checked >= 5


def _plants():
    """The six-node network and a box-constrained affine plant with n=3,
    m=2, ell=4, each with 700 draws (more than one assembly chunk)."""
    fam, S, U, scen = six_node_instance(K=700, seed=4)
    yield fam, S, U, scen.samples
    rng = np.random.default_rng(6)
    fam = random_affine_instance(rng, n=3, m=2, ell=4, stable=1.05)
    S = ic.box([-1.0] * 3, [1.0] * 3)
    U = ic.box([-2.0] * 2, [2.0] * 2)
    yield fam, S, U, rng.uniform(-1, 1, size=(700, 4))


def test_stacked_rows_equal_single_draw_rows():
    # multisample_necessary assembles a chunk of draws at once; each
    # draw's rows must be the ones single_sample_iff assembles alone
    for fam, S, U, samples in _plants():
        G, l = ic.vertex_constraints(fam, S, U, samples[:CHUNK])
        for k in range(0, CHUNK, 7):
            G1, l1 = ic.vertex_constraints(fam, S, U, samples[k : k + 1])
            assert np.array_equal(G[k], G1[0]) and np.array_equal(l[k], l1[0])


def _first_single_failure(fam, S, U, samples):
    for j, delta in enumerate(samples):
        single = ic.single_sample_iff(fam, S, U, delta)
        if not single.feasible:
            return single.failed_vertex, j
    return None


def test_chunked_multisample_stops_at_first_failure(monkeypatch):
    # A(delta) = (1 + delta) I with B = 0 fails exactly at delta > 0;
    # with chunks of 3 draws the failures sit inside and at the start of
    # later chunks, and the first (vertex, sample) must be the per-sample one
    from invarcert import scenario

    zero = np.zeros((2, 2))
    fam = ic.AffineFamily(A0=np.eye(2), B0=zero, A_terms=[np.eye(2)], B_terms=[zero])
    monkeypatch.setattr(scenario, "CHUNK", 3)
    for failing in ([7], [6, 10], [2], []):
        samples = np.full((12, 1), -0.25)
        samples[failing] = 0.1
        scen = ic.ScenarioSet(samples=samples)
        expected = _first_single_failure(fam, UNIT2, UNIT2, samples)
        result = ic.multisample_necessary(fam, UNIT2, UNIT2, scen)
        assert result.first_failure == expected
        assert result.passed == (not failing)
        assert expected is None or expected[1] == failing[0]
