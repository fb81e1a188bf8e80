import numpy as np
import pytest

import invarcert as ic
from invarcert import lp_core
from invarcert.scenario import Infeasible

from instances import (
    affine3_instance,
    path_instance,
    random_affine_instance,
    random_scalar_unstable_instance,
    six_node_instance,
    unstable_edge_family,
)


def zero_dynamics_family(n=2):
    zero = np.zeros((n, n))
    return ic.AffineFamily(A0=zero, B0=np.eye(n), A_terms=[zero], B_terms=[zero])


def constant_scalar_family(a, b=1.0):
    """x+ = a x + b u, parameter enters the policy only."""
    return ic.AffineFamily(
        A0=[[a]], B0=[[b]], A_terms=[np.zeros((1, 1))], B_terms=[np.zeros((1, 1))]
    )


UNIT2 = ic.box([-1, -1], [1, 1])
UNIT1 = ic.box([-1], [1])


def greedy(family, S, U, scen):
    """The support subsample of the policy synthesized on ``scen``."""
    policy = ic.solve_affine_policy(family, S, U, scen)
    return ic.greedy_support_subsample(policy)


def reference_blocks(family, S, U, delta):
    """Per-vertex rows ``G`` and right-hand sides ``l`` of one draw, built
    directly from ``family.instantiate``: ``{u : H u <= 1, F B u <= 1 - F A x_i}``."""
    A, B = family.instantiate(delta)
    G = np.vstack([U.facets, S.facets @ B])
    ones = np.ones(U.facet_count)
    l = np.array([np.concatenate([ones, 1.0 - S.facets @ (A @ x)]) for x in S.vertices])
    return G, l


class TestScenarioSet:
    def test_uniform_box_draws_inside_bounds(self):
        scen = ic.ScenarioSet.from_uniform_box([-1, 0], [1, 2], count=50, seed=3)
        assert scen.K == 50 and scen.ell == 2
        assert np.all(scen.samples >= [-1, 0]) and np.all(scen.samples <= [1, 2])

    def test_declared_bounds_enforced(self):
        dist = ic.UniformBox([0.0], [1.0])
        with pytest.raises(ValueError):
            ic.ScenarioSet(samples=np.array([[2.0]]), distribution=dist)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("a,b\n0.1,0.2\n0.3,0.4\n")
        scen = ic.ScenarioSet.from_csv(path)
        assert scen.K == 2 and scen.ell == 2
        assert scen.samples[1, 1] == pytest.approx(0.4)
        headerless = tmp_path / "plain.csv"
        headerless.write_text("0.1,0.2\n")
        assert ic.ScenarioSet.from_csv(headerless).K == 1

    def test_csv_byte_order_mark(self, tmp_path):
        # spreadsheet tools save UTF-8 with a byte-order mark; it is not
        # part of the first line, so a headerless file keeps every sample
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        scen = ic.ScenarioSet.from_csv(marked)
        assert scen.K == 3
        assert scen.fingerprint == ic.ScenarioSet.from_csv(plain).fingerprint
        marked.write_bytes(b"\xef\xbb\xbfa,b\n0.1,0.2\n0.3,0.4\n")
        assert ic.ScenarioSet.from_csv(marked).samples.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    def test_csv_skips_lines_blank_without_their_comment(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("a,b\n0.1,0.2\n  \t\n   # note\n\n0.3,0.4\n \n\t# end\n")
        assert ic.ScenarioSet.from_csv(path).samples.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        # a first data row with a trailing comment is no header
        path.write_text("0.1, 0.2 # first\n0.3, 0.4\n")
        assert ic.ScenarioSet.from_csv(path).samples.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        path.write_text("a,b\n0.1,0.2\n  \t\n   # note\n0.3\n")
        with pytest.raises(ValueError, match="line 5 has 1 field\\(s\\) but line 2 has 2$"):
            ic.ScenarioSet.from_csv(path)

    def test_fingerprint_tracks_content(self):
        a = ic.ScenarioSet(samples=np.array([[1.0], [2.0]]))
        b = ic.ScenarioSet(samples=np.array([[1.0], [2.0]]))
        c = ic.ScenarioSet(samples=np.array([[2.0], [1.0]]))
        assert a.fingerprint == b.fingerprint != c.fingerprint


class TestAssembly:
    def test_zero_dynamics_blocks(self):
        fam = zero_dynamics_family()
        G, l = ic.vertex_constraints(fam, UNIT2, UNIT2, [[0.0]])
        assert G.shape == (1, 8, 2) and l.shape == (1, UNIT2.vertex_count, 8)
        # A = 0, B = I: both families of rows reduce to u inside the box
        assert np.allclose(G[0, :4], UNIT2.facets)
        assert np.allclose(G[0, 4:], UNIT2.facets)
        assert np.allclose(l, 1.0)
        ref_G, ref_l = reference_blocks(fam, UNIT2, UNIT2, [0.0])
        assert np.array_equal(G[0], ref_G) and np.array_equal(l[0], ref_l)

    def test_uncontrollable_block_has_contradiction_row(self):
        # B = 0 and A pushing a vertex out: some image row reads 0 <= negative
        fam = ic.AffineFamily(
            A0=2.0 * np.eye(2),
            B0=np.zeros((2, 2)),
            A_terms=[np.zeros((2, 2))],
            B_terms=[np.zeros((2, 2))],
        )
        G, l = ic.vertex_constraints(fam, UNIT2, UNIT2, [[0.0]])
        q = UNIT2.facet_count
        assert l[0, :, q:].min() < 0
        assert np.allclose(G[0, q:], 0.0)
        ref_G, ref_l = reference_blocks(fam, UNIT2, UNIT2, [0.0])
        assert np.array_equal(G[0], ref_G) and np.array_equal(l[0], ref_l)

    def test_single_edge_hand_assembly(self):
        # w = 0.5, S = U = [-1,1], vertex x = 1: image rows are
        # 0.5 u <= 1 - 0.5 and -0.5 u <= 1 + 0.5
        fam = ic.NetworkFamily(
            ic.Graph(edges=[(0, 1)], floating=[0], inputs=[1], nominal_weights=[0.5])
        )
        G, l = ic.vertex_constraints(fam, UNIT1, UNIT1, [[0.5]])
        i_plus = int(np.flatnonzero(UNIT1.vertices.ravel() == 1.0)[0])
        q = UNIT1.facet_count
        assert np.allclose(G[0, q:].ravel(), [0.5, -0.5])
        assert np.allclose(l[0, i_plus, q:], [0.5, 1.5])
        ref_G, ref_l = reference_blocks(fam, UNIT1, UNIT1, [0.5])
        assert np.allclose(G[0], ref_G, atol=1e-15)
        assert np.allclose(l[0], ref_l, atol=1e-15)


class TestPolicySynthesis:
    def test_zero_dynamics_returns_zero_policy(self):
        fam = zero_dynamics_family()
        scen = ic.ScenarioSet(samples=np.linspace(-1, 1, 5)[:, None])
        policy = ic.solve_affine_policy(fam, UNIT2, UNIT2, scen)
        assert np.all(policy.gains == 0.0) and np.all(policy.offsets == 0.0)

    def test_infeasible_reports_first_triple(self):
        fam = ic.AffineFamily(
            A0=2.0 * np.eye(2),
            B0=np.zeros((2, 2)),
            A_terms=[np.zeros((2, 2))],
            B_terms=[np.zeros((2, 2))],
        )
        scen = ic.ScenarioSet(samples=np.array([[0.0], [1.0]]))
        with pytest.raises(Infeasible) as info:
            ic.solve_affine_policy(fam, UNIT2, UNIT2, scen)
        exc = info.value
        assert exc.sample == 0 and exc.vertex == 0
        assert exc.row >= UNIT2.facet_count  # an image row, not an input row

    def test_single_edge_three_samples_direct_substitution(self):
        fam = ic.NetworkFamily(
            ic.Graph(edges=[(0, 1)], floating=[0], inputs=[1], nominal_weights=[0.5])
        )
        scen = ic.ScenarioSet(samples=np.array([[0.4], [0.5], [0.6]]))
        policy = ic.solve_affine_policy(fam, UNIT1, UNIT1, scen)
        for w in scen.samples[:, 0]:
            inputs = policy.vertex_inputs([w])
            for i, x in enumerate(UNIT1.vertices[:, 0]):
                u = inputs[i, 0]
                assert abs(u) <= 1 + 1e-9
                assert abs((1 - w) * x + w * u) <= 1 + 1e-9

    def test_policy_consistency_on_random_instances(self):
        rng = np.random.default_rng(5)
        solved = 0
        for _ in range(8):
            fam, S, U = random_scalar_unstable_instance(rng)
            scen = ic.ScenarioSet.from_uniform_box(
                [-1, -1], [1, 1], count=40, seed=int(rng.integers(10_000))
            )
            policy = ic.solve_affine_policy(fam, S, U, scen)
            solved += 1
            for j in range(scen.K):
                d = scen.samples[j]
                assert ic.is_admissible(
                    fam, S, U, d, policy.vertex_inputs(d)
                )
        assert solved == 8

    def test_feasibility_status_order_invariant(self):
        rng = np.random.default_rng(17)
        S = ic.box([-1, -1], [1, 1])
        U = ic.box([-1], [1])
        for trial in range(6):
            fam = random_affine_instance(rng, stable=1.2)
            samples = rng.uniform(-1, 1, size=(25, 2))
            scen = ic.ScenarioSet(samples=samples)
            perm = rng.permutation(25)
            scen_shuffled = ic.ScenarioSet(samples=samples[perm])

            def status(s):
                try:
                    ic.solve_affine_policy(fam, S, U, s)
                    return True
                except Infeasible:
                    return False

            assert status(scen) == status(scen_shuffled)


class TestConstantInput:
    def test_zero_dynamics(self):
        fam = zero_dynamics_family()
        scen = ic.ScenarioSet(samples=np.zeros((3, 1)))
        u = ic.solve_constant_input(fam, UNIT2, UNIT2, scen)
        assert np.all(u == 0.0)

    def test_restriction_of_affine(self):
        # constant inputs are the zero-gain special case, so constant
        # feasibility must imply affine feasibility
        rng = np.random.default_rng(23)
        S = ic.box([-1, -1], [1, 1])
        U = ic.box([-1], [1])
        both = 0
        for _ in range(10):
            fam = random_affine_instance(rng, stable=0.9)
            scen = ic.ScenarioSet(samples=rng.uniform(-1, 1, size=(30, 2)))
            try:
                ic.solve_constant_input(fam, S, U, scen)
            except Infeasible:
                continue
            ic.solve_affine_policy(fam, S, U, scen)  # must not raise
            both += 1
        assert both >= 3

    def test_single_edge_constant_vs_affine_slack(self):
        fam = ic.NetworkFamily(
            ic.Graph(edges=[(0, 1)], floating=[0], inputs=[1], nominal_weights=[0.5])
        )
        scen = ic.ScenarioSet(samples=np.array([[0.4], [0.5], [0.6]]))
        u_const = ic.solve_constant_input(fam, UNIT1, UNIT1, scen)
        policy = ic.solve_affine_policy(fam, UNIT1, UNIT1, scen)

        def worst_slack(inputs_for):
            worst = np.inf
            for w in scen.samples[:, 0]:
                inputs = inputs_for(w)
                for i, x in enumerate(UNIT1.vertices[:, 0]):
                    image = (1 - w) * x + w * inputs[i, 0]
                    worst = min(worst, 1 - abs(image))
            return worst

        s_const = worst_slack(lambda w: u_const)
        s_affine = worst_slack(lambda w: policy.vertex_inputs([w]))
        assert s_const >= -1e-9 and s_affine >= -1e-9


class TestEvaluatePolicy:
    def test_constant_policy(self):
        policy = ic.AffinePolicy(gains=np.zeros((2, 1, 1)), offsets=[[0.3], [-0.3]])
        out = policy.vertex_inputs([5.0])
        assert np.allclose(out, [[0.3], [-0.3]])

    def test_zero_sample_returns_offsets(self):
        rng = np.random.default_rng(1)
        policy = ic.AffinePolicy(
            gains=rng.normal(size=(3, 2, 2)), offsets=rng.normal(size=(3, 2))
        )
        assert np.allclose(policy.vertex_inputs([0.0, 0.0]), policy.offsets)

    def test_matches_direct_matrix_arithmetic(self):
        rng = np.random.default_rng(2)
        gains = rng.normal(size=(4, 2, 2))
        offsets = rng.normal(size=(4, 2))
        policy = ic.AffinePolicy(gains=gains, offsets=offsets)
        delta = rng.normal(size=2)
        out = policy.vertex_inputs(delta)
        for i in range(4):
            assert np.allclose(out[i], gains[i] @ delta + offsets[i], atol=1e-12)


class TestIsAdmissible:
    def test_zero_input_zero_dynamics(self):
        fam = zero_dynamics_family()
        assert ic.is_admissible(fam, UNIT2, UNIT2, [0.0], np.zeros((4, 2)))

    def test_input_outside_u(self):
        fam = zero_dynamics_family()
        u = np.zeros((4, 2))
        u[2, 0] = 1.5
        assert not ic.is_admissible(fam, UNIT2, UNIT2, [0.0], u)

    def test_accepts_flat_layout(self):
        fam = zero_dynamics_family()
        assert ic.is_admissible(fam, UNIT2, UNIT2, [0.0], np.zeros(8))


class TestGreedySupportSubsample:
    def test_duplicates_collapse_to_one(self):
        fam = constant_scalar_family(1.3)
        scen = ic.ScenarioSet(samples=np.full((7, 1), 0.7))
        kept = greedy(fam, UNIT1, UNIT1, scen)
        assert len(kept) == 1

    def test_implied_sample_discarded(self):
        # constant dynamics: each sample constrains u(delta_j) to the same
        # interval, so the middle delta's block is implied by the outer two
        fam = constant_scalar_family(1.3)
        scen = ic.ScenarioSet(samples=np.array([[0.5], [0.0], [1.0]]))
        kept = greedy(fam, UNIT1, UNIT1, scen)
        assert 0 not in kept
        assert len(kept) == 1

    def test_single_sample(self):
        fam = constant_scalar_family(1.3)
        scen = ic.ScenarioSet(samples=np.array([[0.4]]))
        kept = greedy(fam, UNIT1, UNIT1, scen)
        assert kept == [0]

    def test_contractive_system_needs_no_samples(self):
        # the zero policy is feasible and 1-norm minimal, so every sample
        # can be removed without moving the optimum
        fam = constant_scalar_family(0.5)
        scen = ic.ScenarioSet(samples=np.linspace(0, 1, 6)[:, None])
        assert greedy(fam, UNIT1, UNIT1, scen) == []

    def test_support_reproduces_full_solution(self):
        rng = np.random.default_rng(31)
        nontrivial = 0
        for _ in range(6):
            fam, S, U = random_scalar_unstable_instance(rng)
            scen = ic.ScenarioSet(samples=rng.uniform(-1, 1, size=(20, 2)))
            full = ic.solve_affine_policy(fam, S, U, scen)
            kept = ic.greedy_support_subsample(full)
            if kept:
                sub = ic.ScenarioSet(samples=scen.samples[kept])
                again = ic.solve_affine_policy(fam, S, U, sub)
                assert np.abs(again.gains - full.gains).max() <= 1e-6
                assert np.abs(again.offsets - full.offsets).max() <= 1e-6
                nontrivial += 1
        assert nontrivial >= 3

    def test_infeasible_program_rejected(self):
        # the reduction starts from a synthesized policy, which an
        # infeasible program does not have; it never synthesizes one itself
        fam = ic.AffineFamily(
            A0=[[3.0]], B0=[[0.0]], A_terms=[[[0.0]]], B_terms=[[[0.0]]]
        )
        scen = ic.ScenarioSet(samples=np.array([[0.0]]))
        with pytest.raises(Infeasible):
            ic.solve_affine_policy(fam, UNIT1, UNIT1, scen)
        with pytest.raises(TypeError, match="policy"):
            ic.greedy_support_subsample()


class TestDeterminism:
    def test_policy_bit_identical_across_calls(self):
        fam, S, U = unstable_edge_family(), UNIT1, UNIT1
        scen = ic.ScenarioSet.from_uniform_box([-0.35], [-0.15], count=30, seed=8)
        p1 = ic.solve_affine_policy(fam, S, U, scen)
        p2 = ic.solve_affine_policy(fam, S, U, scen)
        assert p1.gains.tobytes() == p2.gains.tobytes()
        assert p1.offsets.tobytes() == p2.offsets.tobytes()


class TestFeasibilityOracleCrossCheck:
    def test_verdict_matches_monolithic_lp(self):
        # independent route: feed every vertex block, fully stacked, to an
        # external solver and compare feasibility verdicts
        from scipy.optimize import linprog

        rng = np.random.default_rng(71)
        agree = 0
        for _ in range(20):
            n, m, ell, K = 2, 1, 2, 8
            fam = random_affine_instance(rng, n=n, m=m, ell=ell, stable=1.1)
            S = ic.box([-1, -1], [1, 1])
            U = ic.box([-1], [1])
            scen = ic.ScenarioSet(samples=rng.uniform(-1, 1, size=(K, ell)))

            try:
                ic.solve_affine_policy(fam, S, U, scen)
                mine = True
            except Infeasible:
                mine = False

            dvar = m * (ell + 1)
            rows, rhs = [], []
            for i in range(S.vertex_count):
                for j in range(K):
                    A, B = fam.instantiate(scen.samples[j])
                    M = np.hstack([np.kron(np.eye(m), scen.samples[j]), np.eye(m)])
                    block = np.zeros((U.facet_count + S.facet_count, dvar * S.vertex_count))
                    block[:, i * dvar : (i + 1) * dvar] = np.vstack(
                        [U.facets @ M, (S.facets @ B) @ M]
                    )
                    rows.append(block)
                    rhs.append(
                        np.concatenate(
                            [
                                np.ones(U.facet_count),
                                1.0 - S.facets @ A @ S.vertices[i],
                            ]
                        )
                    )
            ref = linprog(
                np.zeros(dvar * S.vertex_count),
                A_ub=np.vstack(rows),
                b_ub=np.concatenate(rhs),
                bounds=[(None, None)] * (dvar * S.vertex_count),
                method="highs",
            )
            theirs = ref.status == 0
            assert mine == theirs
            agree += 1
        assert agree == 20


class TestGreedyUnderTies:
    def test_contract_holds_with_nonunique_optima(self):
        # the 1-norm optimum here is a whole segment, so representative
        # solutions may move when samples are removed; whatever happens,
        # the returned subsample must reproduce the full-sample policy
        fam = constant_scalar_family(1.3)
        for samples in (
            np.array([[1.0], [1.0], [2.0]]),
            np.array([[2.0], [1.0], [1.0], [2.0]]),
            np.array([[1.0], [2.0], [3.0], [1.0]]),
        ):
            scen = ic.ScenarioSet(samples=samples)
            full = ic.solve_affine_policy(fam, UNIT1, UNIT1, scen)
            kept = ic.greedy_support_subsample(full)
            if kept:
                sub = ic.ScenarioSet(samples=scen.samples[kept])
                again = ic.solve_affine_policy(fam, UNIT1, UNIT1, sub)
                assert np.abs(again.gains - full.gains).max() <= 1e-6
                assert np.abs(again.offsets - full.offsets).max() <= 1e-6


def test_assembly_routes_agree(monkeypatch):
    # the batched input-space assembly and the policy-space program built
    # on it (in chunks of 3 draws here) must match a per-sample loop over
    # family.instantiate, composed with the policy map delta -> u
    from invarcert import scenario
    from invarcert.scenario import _BlockProgram

    monkeypatch.setattr(scenario, "CHUNK", 3)
    rng = np.random.default_rng(13)
    fam = random_affine_instance(rng, n=2, m=2, ell=3)
    S = ic.box([-1.2, -0.8], [0.9, 1.1])
    U = ic.box([-1, -1], [1, 1])
    samples = rng.uniform(-1, 1, size=(7, 3))
    prog = _BlockProgram(fam, S, U, samples, affine=True)
    baseline = _BlockProgram(fam, S, U, samples, affine=False)
    G, l = ic.vertex_constraints(fam, S, U, samples)
    for j in range(7):
        delta = samples[j]
        M = np.hstack([np.kron(np.eye(2), delta), np.eye(2)])
        ref_G, ref_l = reference_blocks(fam, S, U, delta)
        assert np.allclose(G[j], ref_G, atol=1e-12)
        assert np.allclose(prog.rows[j], ref_G @ M, atol=1e-12)
        assert np.array_equal(baseline.rows[j], G[j])
        for i in range(S.vertex_count):
            assert np.allclose(l[j, i], ref_l[i], atol=1e-12)
            assert np.allclose(prog.rhs[i, j], ref_l[i], atol=1e-12)
            assert np.array_equal(baseline.rhs[i, j], prog.rhs[i, j])


def _literal_pass(fam, S, U, scen):
    """The reduction with every (vertex, sample) pair marked as touching."""
    from invarcert.scenario import _BlockProgram, _reduce

    prog = _BlockProgram(fam, S, U, scen.samples, affine=True)
    full = prog.solve(range(prog.N), range(prog.K))
    return _reduce(prog, full, np.ones((prog.N, prog.K), dtype=bool))


def test_fast_path_matches_literal_pass():
    # the slack-based shortcut must return the same subsample as the
    # literal one-removal-at-a-time pass whenever optima are unique
    rng = np.random.default_rng(91)
    for _ in range(12):
        fam, S, U = random_scalar_unstable_instance(rng)
        scen = ic.ScenarioSet(samples=rng.uniform(-1, 1, size=(18, 2)))
        assert greedy(fam, S, U, scen) == _literal_pass(fam, S, U, scen)


def test_greedy_falls_back_to_the_literal_pass(monkeypatch):
    # with a negative activity tolerance no sample touches any vertex, so
    # the shortcut drops every sample; its verification fails on this
    # nonempty support and the public function reruns the literal pass
    from invarcert import scenario

    fam, S, U, scen = path_instance(K=40, seed=8)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    expected = ic.greedy_support_subsample(policy)
    assert expected  # a nonempty support
    masks = []

    def spy(prog, full, touches, **options):
        masks.append(touches.copy())
        return reduce(prog, full, touches, **options)

    reduce = scenario._reduce
    monkeypatch.setattr(scenario, "_ACTIVE_TOL", -1.0)
    monkeypatch.setattr(scenario, "_reduce", spy)
    kept = ic.greedy_support_subsample(policy)
    assert [mask.mean() for mask in masks] == [0.0, 1.0]  # shortcut, then literal
    assert kept == _literal_pass(fam, S, U, scen) == expected
    again = ic.solve_affine_policy(fam, S, U, ic.ScenarioSet(samples=scen.samples[kept]))
    assert np.abs(again.gains - policy.gains).max() <= scenario.SOLUTION_TOL
    assert np.abs(again.offsets - policy.offsets).max() <= scenario.SOLUTION_TOL


def test_greedy_refuses_a_replaced_policy_before_any_re_solve(monkeypatch):
    # dataclasses.replace builds a new policy without the program, so the
    # reduction has nothing to re-solve on and says so before trying
    import dataclasses

    from invarcert.scenario import _BlockProgram

    fam, S, U, scen = path_instance(K=40, seed=8)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    calls = []
    solve = _BlockProgram.solve
    monkeypatch.setattr(
        _BlockProgram,
        "solve",
        lambda self, *args: calls.append(args) or solve(self, *args),
    )
    message = "^policy was not synthesized by solve_affine_policy$"
    with pytest.raises(ic.MismatchedFingerprints, match=message):
        ic.greedy_support_subsample(dataclasses.replace(policy))
    assert calls == []


def test_network6_scenario_draw_support_is_pinned():
    # the scenario draw of the network6 workload (seed 0); S is built here
    # from the eigenvectors, not from the workload's written-out facets, so
    # the policy fingerprint differs and only the support is pinned
    fam, S, U, scen = six_node_instance(K=600, seed=0)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    assert ic.greedy_support_subsample(policy) == [110]


# supports of the cold greedy, before re-solves were seeded: the network6
# and affine3 benchmark plants at several K and scenario seeds, and the
# degenerate path network, where every sample has active rows
SEEDED_SWEEP = {
    ("affine3", 200, 0): [19, 23, 44, 69, 95, 126, 179, 186],
    ("affine3", 200, 1): [46, 58, 73, 95, 104, 153, 162, 176, 187],
    ("affine3", 200, 2): [7, 13, 21, 46, 55, 102, 152, 172, 190],
    ("affine3", 200, 3): [30, 64, 69, 118, 121, 127, 148, 151, 171],
    ("affine3", 600, 0): [19, 23, 44, 69, 95, 126, 179, 283, 417],
    ("affine3", 600, 1): [46, 59, 73, 95, 153, 176, 187, 294, 531, 546],
    ("affine3", 600, 2): [7, 21, 46, 112, 172, 268, 279, 292, 315, 492, 562, 568, 591],
    ("affine3", 600, 3): [118, 148, 210, 273, 327, 331, 350, 378, 427, 430, 515],
    ("affine3", 1500, 0): [23, 59, 68, 95, 837, 1068, 1069, 1180, 1228, 1383],
    ("affine3", 1500, 1): [46, 176, 294, 694, 815, 857, 1115, 1255, 1314],
    ("affine3", 1500, 2): [21, 46, 172, 268, 279, 568, 926, 951, 1032, 1131, 1302, 1309, 1319, 1331],
    ("affine3", 1500, 3): [118, 148, 210, 331, 515, 936, 953, 1076, 1090, 1259, 1431],
    ("network6", 100, 0): [78],
    ("network6", 100, 1): [20, 64],
    ("network6", 100, 2): [46, 98],
    ("network6", 100, 3): [53],
    ("network6", 300, 0): [110],
    ("network6", 300, 1): [115],
    ("network6", 300, 2): [128, 155],
    ("network6", 300, 3): [180, 206],
    ("network6", 600, 0): [110],
    ("network6", 600, 1): [367, 379],
    ("network6", 600, 2): [317],
    ("network6", 600, 3): [180, 335],
    ("path", 40, 0): [39],
    ("path", 40, 1): [39],
    ("path", 40, 2): [39],
    ("path", 40, 3): [39],
}
SWEEP_PLANTS = {"affine3": affine3_instance, "network6": six_node_instance, "path": path_instance}


@pytest.mark.parametrize("plant", ["affine3", "network6", "path"])
def test_seeded_greedy_keeps_the_cold_supports(plant, monkeypatch):
    # with the keep certificates deciding nothing, every touched sample
    # takes a seeded re-solve
    from invarcert import scenario
    from invarcert.scenario import _BlockProgram

    monkeypatch.setattr(scenario, "_certifies_keep", lambda *args: False)
    build = SWEEP_PLANTS[plant]
    starts = []  # (active rows of the subsample, dvar) of every seeded re-solve
    policy = None
    solve = _BlockProgram.solve

    def spy(self, vertices, sample_indices, seeds=None):
        if seeds is not None:
            full = np.hstack([policy.gains.reshape(self.N, -1), policy.offsets])
            take = np.asarray(sample_indices, dtype=int)
            for i in vertices:
                slack = self.rhs[i, take] - self.rows[take] @ full[i]
                active = slack < scenario._ACTIVE_TOL
                assert np.array_equal(seeds[i, take], active)  # the mask agrees with the gather
                starts.append((int(active.sum()), self.dvar))
        return solve(self, vertices, sample_indices, seeds)

    monkeypatch.setattr(_BlockProgram, "solve", spy)
    for (name, K, seed), support in SEEDED_SWEEP.items():
        if name == plant:
            fam, S, U, scen = build(K=K, seed=seed)
            policy = ic.solve_affine_policy(fam, S, U, scen)
            got = ic.greedy_support_subsample(policy)
            assert got == support, (name, K, seed)
    most, dvar = max(starts)
    if plant == "affine3":
        assert 0 < most <= dvar  # seeded re-solves
    if plant == "path":
        assert most > dvar  # degenerate: the seed is cut to dvar rows


# instances of the keep-certificate tests beyond the sweep: the affine3
# benchmark draw at K=5000 and the README's path network, with supports
KEEP_INSTANCES = {
    "affine3-k5000": (
        lambda: affine3_instance(K=5000, seed=0),
        [23, 837, 1068, 1069, 1180, 1217, 1653, 2332, 2925, 3159, 3877, 4578],
    ),
    "readme-path": (lambda: path_instance(K=200, seed=7), [199]),
}


def _keep_cases(plant):
    """(build, support) of every instance of ``plant``."""
    if plant in KEEP_INSTANCES:
        return [KEEP_INSTANCES[plant]]
    build = SWEEP_PLANTS[plant]
    return [
        (lambda K=K, seed=seed: build(K=K, seed=seed), support)
        for (name, K, seed), support in SEEDED_SWEEP.items()
        if name == plant
    ]


@pytest.mark.parametrize("plant", ["affine3", "network6", "path", *KEEP_INSTANCES])
def test_keep_certificates_agree_with_the_re_solves(plant, monkeypatch):
    # a keep certificate replaces the seeded re-solve of its sample, so it
    # may only keep what that re-solve keeps: with the certificates
    # recorded but deciding nothing, every touched sample is re-solved at
    # its point of greedy, and each certified one must be in the support
    from invarcert import scenario

    certify = scenario._certifies_keep
    verdicts, deciding = [], [True]

    def recording(prog, x, slack, at, j, reach):
        verdicts.append((j, bool(certify(prog, x, slack, at, j, reach))))
        return verdicts[-1][1] and deciding[0]

    monkeypatch.setattr(scenario, "_certifies_keep", recording)
    certified = 0
    for build, support in _keep_cases(plant):
        policy = ic.solve_affine_policy(*build())
        verdicts.clear()
        deciding[0] = True
        assert ic.greedy_support_subsample(policy) == support
        certified += sum(keep for _, keep in verdicts)
        verdicts.clear()
        deciding[0] = False
        assert ic.greedy_support_subsample(policy) == support  # every sample re-solved
        assert {j for j, keep in verdicts if keep} <= set(support)
    if plant == "affine3-k5000":
        assert certified == 11  # of 12 samples; sample 2925 takes its re-solve
    if plant in ("path", "readme-path"):
        assert certified == 0  # every sample is degenerate


def test_greedy_without_keep_certificates_returns_the_same_supports(monkeypatch):
    # random plants, with two inputs or one: greedy's supports do not
    # change when the keep certificates decide nothing; the two-input
    # plants repeat their first draws at the end, so greedy drops touched
    # samples there, and no certificate may keep them
    from invarcert import scenario

    rng = np.random.default_rng(29)
    cases = []
    for _ in range(7):
        fam = random_affine_instance(rng, n=2, m=2, ell=2, stable=1.05)
        draws = rng.uniform(-1, 1, size=(60, 2))
        scen = ic.ScenarioSet(samples=np.vstack([draws, draws[:30]]))
        cases.append((fam, UNIT2, ic.box([-2.0, -2.0], [2.0, 2.0]), scen))
    for _ in range(8):
        scen = ic.ScenarioSet(samples=rng.uniform(-1, 1, size=(30, 2)))
        cases.append((*random_scalar_unstable_instance(rng), scen))
    certify = scenario._certifies_keep
    kept = []

    def counting(*args):
        kept.append(certify(*args))
        return kept[-1]

    for fam, S, U, scen in cases:
        policy = ic.solve_affine_policy(fam, S, U, scen)
        monkeypatch.setattr(scenario, "_certifies_keep", counting)
        support = ic.greedy_support_subsample(policy)
        monkeypatch.setattr(scenario, "_certifies_keep", lambda *args: False)
        assert ic.greedy_support_subsample(policy) == support
    assert sum(kept) > 0  # some certificate decided


def test_synthesis_and_greedy_share_one_program(monkeypatch):
    import gc
    import weakref

    from invarcert.scenario import _BlockProgram

    built = []
    init = _BlockProgram.__init__
    monkeypatch.setattr(
        _BlockProgram, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k)
    )
    fam, S, U, scen = path_instance(K=40, seed=8)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    assert ic.greedy_support_subsample(policy) == [39]
    assert len(built) == 1
    # the program lives as long as the policy
    program = weakref.ref(policy._program)
    del policy
    gc.collect()
    assert program() is None


def _admissibility_case(kind, rng):
    """Family, S, U, policy and draws that include inadmissible ones."""
    if kind == "affine":
        fam, S, U = random_scalar_unstable_instance(rng)
        scen = ic.ScenarioSet(samples=rng.uniform(-0.5, 0.5, size=(20, 2)))
        draws = rng.uniform(-1.5, 1.5, size=(300, 2))
    elif kind == "network":
        from instances import path_instance

        fam, S, U, scen = path_instance(K=30, seed=5)
        lo, hi = scen.samples.min(axis=0), scen.samples.max(axis=0)
        draws = rng.uniform(2.0 * lo, 2.0 * hi, size=(300, 2))
    else:
        fam = ic.TableFamily(
            pairs=[(np.array([[a]]), np.array([[1.0]])) for a in (0.5, 1.2, 2.5, 3.5)]
        )
        S = U = UNIT1
        scen = ic.ScenarioSet(samples=np.array([[0.0], [1.0]]))
        draws = rng.integers(0, 4, size=(300, 1)).astype(float)
    return fam, S, U, ic.solve_affine_policy(fam, S, U, scen), draws


@pytest.mark.parametrize("kind", ["affine", "network", "table"])
def test_batched_admissibility_matches_single_draws(kind, monkeypatch):
    from invarcert import scenario

    fam, S, U, policy, draws = _admissibility_case(kind, np.random.default_rng(29))
    inputs = policy.vertex_inputs(draws)
    mask = ic.is_admissible(fam, S, U, draws, inputs)
    single = [ic.is_admissible(fam, S, U, d, u) for d, u in zip(draws, inputs)]
    assert mask.dtype == bool and mask.tolist() == single
    assert 0 < mask.sum() < mask.size  # both outcomes occur
    for k in (0, 17, 299):
        single_inputs = policy.vertex_inputs(draws[k])
        assert np.allclose(inputs[k], single_inputs, rtol=0, atol=1e-15)
    monkeypatch.setattr(scenario, "CHUNK", 7)  # several chunks, one partial
    _, failures = ic.empirical_violation(fam, S, U, policy, draws)
    assert failures == np.flatnonzero(~mask).tolist()


def _row_form_admissible(fam, S, U, draws, inputs):
    """The check that ``is_admissible`` replaced: the input-space rows
    ``G u <= l`` of :func:`vertex_constraints`, one chunk at a time."""
    from invarcert.geometry import DEFAULT_TOL

    mask = np.empty(len(draws), dtype=bool)
    for lo, hi in ic.scenario.chunks(len(draws)):
        G, l = ic.vertex_constraints(fam, S, U, draws[lo:hi])
        rows = inputs[lo:hi] @ G.transpose(0, 2, 1)
        mask[lo:hi] = np.all(rows <= l + DEFAULT_TOL, axis=(1, 2))
        # the two forms round differently: no row may sit on its bound
        assert np.all(np.abs(l + DEFAULT_TOL - rows) > 1e-12)
    return mask


@pytest.mark.parametrize("kind", ["affine", "network", "table", "six_node"])
def test_image_check_matches_the_row_form(kind):
    # H u_i <= 1 and F (A x_i + B u_i) <= 1 is the row form G u_i <= l_i
    # with F A x_i moved to the other side: the same verdict on every draw
    rng = np.random.default_rng(31)
    if kind == "six_node":
        fam, S, U, scen = six_node_instance(K=600)
        policy = ic.solve_affine_policy(fam, S, U, scen)
        draws = scen.distribution.draw(20000, rng)
    else:
        fam, S, U, policy, draws = _admissibility_case(kind, rng)
    inputs = policy.vertex_inputs(draws)
    mask = ic.is_admissible(fam, S, U, draws, inputs)
    assert mask.tolist() == _row_form_admissible(fam, S, U, draws, inputs).tolist()
    assert 0 < mask.sum() < mask.size  # both outcomes occur


def test_monte_carlo_memory_peak():
    # the pass holds one chunk's temporaries at a time, whatever M is; the
    # largest is the facet rows of the vertex images, (CHUNK, p, N). The
    # plants of a chunk take their stack, one rank of nonzero products and
    # the outputs, not a product per term, (ell, n * n, CHUNK)
    import tracemalloc

    from invarcert import scenario

    fam, S, U, scen = six_node_instance(K=600)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    draws = scen.distribution.draw(15000, np.random.default_rng(0))
    images = scenario.CHUNK * S.facet_count * S.vertex_count * 8
    tracemalloc.start()
    try:
        ic.empirical_violation(fam, S, U, policy, draws)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        A, B = fam.instantiate_batch(draws[: scenario.CHUNK])
        plant_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * images
    assert plant_peak <= 5 * (A.nbytes + B.nbytes)


@pytest.mark.parametrize("N, m, ell", [(8, 2, 4), (4, 2, 12), (2, 1, 1)])
def test_vertex_inputs_of_one_draw_are_a_stack_of_one(N, m, ell):
    rng = np.random.default_rng(ell)
    policy = ic.AffinePolicy(gains=rng.normal(size=(N, m, ell)), offsets=rng.normal(size=(N, m)))
    draws = rng.uniform(-1.0, 1.0, size=(200, ell))
    stacked = policy.vertex_inputs(draws)
    assert stacked.shape == (200, N, m)
    for d, row in zip(draws, stacked):
        single = policy.vertex_inputs(d)
        assert single.tobytes() == policy.vertex_inputs(d[None])[0].tobytes()
        # BLAS may round the rows of a wide stack with another kernel
        assert np.allclose(single, row, rtol=1e-15, atol=1e-15)
    with pytest.raises(ic.DimensionMismatch, match=f"dimension {ell}, got {ell + 1}"):
        policy.vertex_inputs(np.zeros(ell + 1))


@pytest.mark.parametrize("N, m, ell", [(8, 2, 4), (4, 2, 12), (2, 1, 1)])
def test_vertex_inputs_of_a_stack_are_rows_in_c_order(N, m, ell):
    # is_admissible reads the (M, N, m) inputs of a chunk as (M * N, m)
    # rows; they come in C order, so that is a view, not a copy, and the
    # bits are those of the product transposed before the offsets are added
    rng = np.random.default_rng(ell)
    policy = ic.AffinePolicy(gains=rng.normal(size=(N, m, ell)), offsets=rng.normal(size=(N, m)))
    draws = rng.uniform(-1.0, 1.0, size=(513, ell))
    stacked = policy.vertex_inputs(draws)
    assert stacked.shape == (513, N, m) and stacked.flags.c_contiguous
    assert np.shares_memory(stacked.reshape(-1, m), stacked)
    reference = (draws @ policy.gains.transpose(0, 2, 1)).transpose(1, 0, 2) + policy.offsets
    assert stacked.tobytes() == reference.tobytes()


def test_policy_fingerprint_is_hashed_once(monkeypatch):
    # gains, offsets and samples are read-only, so one hash serves every read
    from invarcert import scenario

    rng = np.random.default_rng(3)
    policy = ic.AffinePolicy(gains=rng.normal(size=(4, 2, 3)), offsets=rng.normal(size=(4, 2)))
    scen = ic.ScenarioSet(samples=rng.normal(size=(50, 3)))
    real = scenario._digest
    for held, arrays in ((policy, (policy.gains, policy.offsets)), (scen, (scen.samples,))):
        expected, hashed = real(*arrays), []
        monkeypatch.setattr(scenario, "_digest", lambda *a: hashed.append(1) or real(*a))
        assert [held.fingerprint for _ in range(3)] == [expected] * 3
        assert len(hashed) == 1
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0, 0] = 1.0


def test_greedy_raises_when_no_pass_reproduces_the_policy(monkeypatch):
    # with a negative tolerance no re-solve matches the policy: both the
    # shortcut and the literal pass fail their final check
    from invarcert import scenario

    fam, S, U, scen = path_instance(K=12, seed=8)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    monkeypatch.setattr(scenario, "SOLUTION_TOL", -1.0)
    with pytest.raises(ic.NumericalBreakdown, match="^policy is not the solution"):
        ic.greedy_support_subsample(policy)


def test_infeasible_re_solve_during_the_reduction_raises(monkeypatch):
    # a subsample of a feasible program is feasible: a vertex that fails
    # on one is a determinism fault
    from invarcert.scenario import _BlockProgram

    fam, S, U, scen = path_instance(K=12, seed=8)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    monkeypatch.setattr(_BlockProgram, "solve", lambda self, *args: None)
    with pytest.raises(ic.NumericalBreakdown, match="^vertex 0 infeasible on a subsample"):
        ic.greedy_support_subsample(policy)


def test_admissibility_at_the_tolerance():
    # u = delta at both vertices of [-1, 1] with zero dynamics: the input
    # row reads delta <= 1 + tol, met with equality by the first draw
    fam = zero_dynamics_family(n=1)
    policy = ic.AffinePolicy(gains=np.ones((2, 1, 1)), offsets=np.zeros((2, 1)))
    edge = 1.0 + 1e-8
    draws = np.array([[edge], [np.nextafter(edge, 2.0)], [-edge], [0.5]])
    inputs = policy.vertex_inputs(draws)
    mask = ic.is_admissible(fam, UNIT1, UNIT1, draws, inputs)  # tol = 1e-8
    single = [ic.is_admissible(fam, UNIT1, UNIT1, d, u) for d, u in zip(draws, inputs)]
    assert mask.tolist() == single == [True, False, True, True]


def test_greedy_reuses_the_synthesized_policy(monkeypatch):
    fam, S, U, scen = path_instance(K=40, seed=8)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    expected = ic.greedy_support_subsample(policy)
    assert expected  # a nonempty support

    from invarcert import scenario

    solve = scenario._BlockProgram.solve

    def no_full_solve(self, vertices, sample_indices, seeds=None):
        if len(sample_indices) == self.K:
            raise AssertionError("the full program was solved again")
        return solve(self, vertices, sample_indices, seeds)

    monkeypatch.setattr(scenario._BlockProgram, "solve", no_full_solve)
    assert ic.greedy_support_subsample(policy) == expected

    anonymous = ic.AffinePolicy(gains=policy.gains, offsets=policy.offsets)
    with pytest.raises(ic.MismatchedFingerprints):
        ic.greedy_support_subsample(anonymous)


def _reference_selection(viol, feas_tol):
    """The batch rule as a stable sort of every entry, then the cut at the tolerance."""
    from invarcert.scenario import _CG_BATCH

    order = np.argsort(-viol, kind="stable")[:_CG_BATCH]
    return [int(k) for k in order if viol[k] > feas_tol]


@pytest.mark.parametrize(
    "viol",
    [
        [0.5, 0.2, 0.5, 0.5, 0.1, 0.5, 0.2, 0.5, 0.5, 0.5, 0.2],  # ties across the cut
        [1e-9, 2e-9, 1e-9, -1.0, 1e-9, 3e-9],  # entries equal to the tolerance
        [-np.inf, 0.3, -np.inf, 0.3, 0.7, -np.inf],  # working-set rows
        [-np.inf, -1.0, 1e-9, 0.0, -2.0],  # no candidate
        [],
        [0.4, -0.1, 0.2],  # fewer than a batch
        np.linspace(1.0, 0.1, 20),  # more than a batch
    ],
)
def test_most_violated_matches_full_sort(viol):
    from invarcert.scenario import _most_violated

    viol = np.asarray(viol, dtype=float)
    assert _most_violated(viol).tolist() == _reference_selection(viol, 1e-9)


def test_most_violated_on_random_ties():
    from invarcert.scenario import _most_violated

    rng = np.random.default_rng(5)
    levels = np.array([-np.inf, -1.0, 0.0, 1e-9, 0.25, 0.5])
    for _ in range(300):
        viol = rng.choice(levels, size=rng.integers(0, 40))
        assert _most_violated(viol).tolist() == _reference_selection(viol, 1e-9)


def _reference_solve_vertex(prog, vertex, sample_indices, seen):
    """Constraint generation as first written: each round gathers the
    subsample's rows, sorts all violations, and builds its working LP over
    the split ``z = p - q``, ``p, q >= 0``, minimizing ``sum(p + q)``, which
    the dual simplex solves.
    Appends each round's violations to ``seen``."""
    d = prog.dvar
    sample_indices = np.asarray(sample_indices, dtype=int)
    rows = prog.rows.reshape(-1, d)
    rhs = prog.rhs[vertex].ravel()
    idx = (sample_indices[:, None] * prog.block_rows + np.arange(prog.block_rows)).ravel()
    z = np.zeros(d)
    if idx.size == 0:
        return z
    working = []
    in_working = np.zeros(idx.size, dtype=bool)
    for _ in range(idx.size + 1):
        viol = rows[idx] @ z - rhs[idx]
        viol[in_working] = -np.inf
        seen.append(viol)
        batch = _reference_selection(viol, lp_core.DEFAULT_FEAS_TOL)
        if not batch:
            return z
        working.extend(batch)
        in_working[batch] = True
        A_w, b_w = rows[idx[working]], rhs[idx[working]]
        split = np.zeros((A_w.shape[0], 2 * d))
        split[:, :d] = A_w
        split[:, d:] = -A_w
        lp = lp_core.LinearProgram(c=np.ones(2 * d), A_in=split, b_in=b_w)
        outcome = lp_core.solve_dual(lp)
        if outcome.status is lp_core.LpStatus.INFEASIBLE:
            return None
        assert outcome.is_optimal
        p, q = np.split(outcome.z, 2)
        z = p - q
    raise AssertionError("reference constraint generation did not converge")


def test_solve_vertex_matches_reference_cg_loop(monkeypatch):
    # every round must see the same violations, bit for bit, as the loop
    # on gathered rows, hence pick the same rows and return the same point
    from invarcert import scenario
    from invarcert.scenario import _CG_BATCH, _BlockProgram

    seen = []

    def recording(viol, select=scenario._most_violated):
        seen.append(viol.copy())
        return select(viol)

    monkeypatch.setattr(scenario, "_most_violated", recording)

    rng = np.random.default_rng(18)
    fam = random_affine_instance(rng, n=3, m=2, ell=4, stable=1.2)
    S = ic.box([-1.0] * 3, [1.0] * 3)
    U = ic.box([-2.0] * 2, [2.0] * 2)
    samples = rng.uniform(-1, 1, size=(61, 4))
    prog = _BlockProgram(fam, S, U, samples, affine=True)
    subsets = [
        range(61),  # one run: read in place
        range(20, 41),
        np.arange(1, 58, 2),  # 29 samples: the row count is not a multiple of 4
        [3, 4, 5, 9, 40, 41, 52],
        [],
    ]
    z = rng.standard_normal(prog.dvar)  # a run read in place is its gather
    flat = prog.rows.reshape(-1, prog.dvar)
    for lo, hi in ((0, 61), (20, 41)):
        gathered = flat[np.arange(lo * prog.block_rows, hi * prog.block_rows)]
        in_place = prog.rows[lo:hi].reshape(-1, prog.dvar)
        assert np.shares_memory(in_place, prog.rows)
        assert np.array_equal(in_place @ z, gathered @ z)
    for subset in subsets:
        if len(subset) > 20:  # some vertex has more violated rows than a batch at z = 0
            first = -prog.rhs[:, subset] > lp_core.DEFAULT_FEAS_TOL
            assert first.sum(axis=(1, 2)).max() > _CG_BATCH
        for i in range(prog.N):
            expected_rounds, seen[:] = [], []
            expected = _reference_solve_vertex(prog, i, subset, expected_rounds)
            got = prog.solve([i], subset)
            assert len(seen) == len(expected_rounds)
            assert all(map(np.array_equal, seen, expected_rounds))
            assert (got is None) == (expected is None)
            if got is not None:
                assert np.array_equal(got[0], expected)


def test_most_violated_matches_full_sort_on_a_seeded_corpus():
    # the partition keeps the candidates at or above the batch's last
    # value, ties at that place included; the stable sort of those must
    # pick what a stable sort of every entry picks
    from invarcert.scenario import _CG_BATCH, _most_violated

    tol = 1e-9
    rng = np.random.default_rng(19)
    seen = set()
    for _ in range(3000):
        size = int(rng.integers(0, 40))
        wanted = int(rng.choice([0, 1, _CG_BATCH, _CG_BATCH + 1, rng.integers(0, 30)]))
        count = min(wanted, size)
        viol = rng.choice([-np.inf, -1.0, 0.0, tol], size=size)  # never a candidate
        levels = rng.choice([2e-9, 0.25, 0.5, 1.0], size=rng.integers(1, 4), replace=False)
        viol[rng.choice(size, count, replace=False)] = rng.choice(levels, size=count)
        assert _most_violated(viol).tolist() == _reference_selection(viol, tol)
        ranked = np.sort(viol[viol > tol])[::-1]
        seen.add(ranked.size)
        if ranked.size > _CG_BATCH and ranked[_CG_BATCH - 1] == ranked[_CG_BATCH]:
            seen.add("tie at the last place")
        if tol in viol:
            seen.add("at tol")
        if -np.inf in viol:
            seen.add("-inf")
    assert {0, 1, _CG_BATCH, _CG_BATCH + 1, "tie at the last place", "at tol", "-inf"} <= seen


@pytest.mark.parametrize("plant", ["affine3", "network6", "path"])
def test_lockstep_rounds_match_one_vertex_solves(plant, monkeypatch):
    # the lockstep product of several vertices may round differently from
    # one vertex's in the last bit; on every sweep instance each vertex must
    # still build the same working sets, round by round, as when solved
    # alone, so every working LP and the policy bytes are the same
    from invarcert.scenario import _BlockProgram

    build = SWEEP_PLANTS[plant]
    lps = []  # the rows and right-hand side of every working LP
    solve_working = _BlockProgram._solve_working

    def recording(self, A_w, b_w):
        lps.append(A_w.tobytes() + b_w.tobytes())
        return solve_working(self, A_w, b_w)

    monkeypatch.setattr(_BlockProgram, "_solve_working", recording)
    for name, K, seed in SEEDED_SWEEP:
        if name != plant:
            continue
        fam, S, U, scen = build(K=K, seed=seed)
        prog = _BlockProgram(fam, S, U, scen.samples)
        alone, rounds = [], []
        for i in range(prog.N):
            lps.clear()
            alone.append(prog.solve([i], range(K)))
            rounds.append(list(lps))
        lps.clear()
        together = prog.solve(range(prog.N), range(K))
        # round r re-solves, in vertex order, every vertex with an r-th LP
        interleaved = [
            seq[r] for r in range(max(map(len, rounds))) for seq in rounds if r < len(seq)
        ]
        assert lps == interleaved, (name, K, seed)
        assert together.tobytes() == np.vstack(alone).tobytes()


def test_lockstep_makes_one_product_per_round(monkeypatch):
    # one product per lockstep round for all live vertices: as many as the
    # vertex with the most rounds makes alone, not their sum; a product of
    # one vertex is the matrix-vector product bit for bit
    from invarcert import scenario
    from invarcert.scenario import _BlockProgram

    fam, S, U, scen = affine3_instance(K=1500, seed=0)
    prog = _BlockProgram(fam, S, U, scen.samples)
    products = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        products.append(len(args[0]))  # live vertices of the round
        return matmul(*args, **kwargs)

    monkeypatch.setattr(scenario.np, "matmul", counting)
    alone = []
    for i in range(prog.N):
        products.clear()
        prog.solve([i], range(prog.K))
        alone.append(len(products))
    products.clear()
    prog.solve(range(prog.N), range(prog.K))
    assert alone == [4, 6, 2, 3, 3, 2, 6, 4]
    assert products == [8, 8, 6, 4, 2, 2]  # live vertices per round
    assert len(products) == max(alone) < sum(alone)
    monkeypatch.undo()
    A = prog.rows.reshape(-1, prog.dvar)
    z = np.random.default_rng(3).standard_normal((1, prog.dvar))
    assert np.array_equal(z @ A.T, (A @ z[0])[None])


def test_lockstep_and_greedy_memory_peaks():
    # the lockstep rounds write into one (N, rows) buffer and subtract each
    # right-hand side from a view; greedy keeps a boolean mask of the
    # active rows, not a stacked slack product
    import tracemalloc

    fam, S, U, scen = affine3_instance(K=1500, seed=0)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    prog = policy._program
    buffer = prog.N * prog.K * prog.block_rows * 8
    tracemalloc.start()
    try:
        prog.solve(range(prog.N), range(prog.K))
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert ic.greedy_support_subsample(policy) == SEEDED_SWEEP[("affine3", 1500, 0)]
        greedy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve_peak <= 1.25 * buffer
    assert greedy_peak <= prog.rows.nbytes + prog.rhs.nbytes


def test_bad_table_index_named_in_the_whole_sample_list():
    # K > scenario.CHUNK: the bad draw sits in the second chunk of 512
    from invarcert import closed_loop, feasibility, scenario
    from invarcert.system_family import UnknownSample

    fam = ic.TableFamily(pairs=[([[0.5]], [[1.0]]), ([[0.8]], [[1.0]])])
    rows = np.zeros((601, 1))
    rows[600, 0] = 0.5
    assert rows.shape[0] > scenario.CHUNK
    policy = ic.solve_affine_policy(fam, UNIT1, UNIT1, ic.ScenarioSet(rows[:600]))
    message = r"^row 600: 0\.5 is not a table index in 0\.\.1$"
    for run in (
        lambda: ic.solve_affine_policy(fam, UNIT1, UNIT1, ic.ScenarioSet(rows)),
        lambda: closed_loop.empirical_violation(fam, UNIT1, UNIT1, policy, rows),
        lambda: feasibility.multisample_necessary(
            fam, UNIT1, UNIT1, ic.ScenarioSet(rows)
        ),
    ):
        with pytest.raises(UnknownSample, match=message) as info:
            run()
        assert (info.value.row, info.value.value, info.value.count) == (600, 0.5, 2)


def test_one_chunk_size_for_every_batched_pass(monkeypatch):
    # patching scenario.CHUNK alone cuts synthesis, the Monte Carlo
    # admissibility pass and the minor enumeration into the same runs
    from invarcert import scenario

    sizes = []
    assemble = ic.AffineFamily.instantiate_batch

    def recording(self, deltas):
        sizes.append(len(deltas))
        return assemble(self, deltas)

    monkeypatch.setattr(ic.AffineFamily, "instantiate_batch", recording)
    monkeypatch.setattr(scenario, "CHUNK", 4)
    zero = np.zeros((2, 2))
    fam = ic.AffineFamily(A0=0.5 * np.eye(2), B0=zero, A_terms=[zero], B_terms=[zero])
    scen = ic.ScenarioSet(samples=np.linspace(-1.0, 1.0, 10)[:, None])
    policy = ic.solve_affine_policy(fam, UNIT2, UNIT2, scen)
    assert sizes == [4, 4, 2]
    sizes.clear()
    assert ic.empirical_violation(fam, UNIT2, UNIT2, policy, scen.samples)[1] == []
    assert sizes == [4, 4, 2]
    sizes.clear()
    assert ic.multisample_necessary(fam, UNIT2, UNIT2, scen).passed
    assert sizes == [4, 4, 2]


@pytest.mark.parametrize("entry", ["gains", "offsets"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_policy_with_non_finite_entries_names_the_vertex(entry, value):
    arrays = {"gains": np.zeros((3, 2, 1)), "offsets": np.zeros((3, 2))}
    arrays[entry][1, 1] = value
    with pytest.raises(ValueError, match="^policy gains and offsets of vertex 1 must be finite$"):
        ic.AffinePolicy(**arrays)


BAD_INPUTS = {
    "uniform-box-lengths-differ": (
        lambda: ic.UniformBox([0.0, 0.0], [1.0]),
        ic.DimensionMismatch,
        "lower and upper lengths differ",
    ),
    "uniform-box-lower-above-upper": (
        lambda: ic.UniformBox([0.0, 2.0], [1.0, 1.0]),
        ValueError,
        "lower must be <= upper componentwise",
    ),
    "no-samples": (
        lambda: ic.ScenarioSet(samples=np.zeros((0, 2))),
        ValueError,
        r"samples must be a nonempty \(K, ell\) array",
    ),
    "distribution-dimension": (
        lambda: ic.ScenarioSet(samples=np.zeros((3, 2)), distribution=ic.UniformBox([0], [1])),
        ic.DimensionMismatch,
        "distribution dimension != sample dimension",
    ),
    "policy-gains-not-3-d": (
        lambda: ic.AffinePolicy(gains=np.zeros((4, 1)), offsets=np.zeros((4, 1))),
        ic.DimensionMismatch,
        r"gains must be \(N, m, ell\) and offsets \(N, m\)",
    ),
    "policy-offsets-for-other-vertices": (
        lambda: ic.AffinePolicy(gains=np.zeros((4, 1, 2)), offsets=np.zeros((3, 1))),
        ic.DimensionMismatch,
        r"gains must be \(N, m, ell\) and offsets \(N, m\)",
    ),
    "family-state-dimension-not-S": (
        lambda: ic.vertex_constraints(
            zero_dynamics_family(), ic.box([-1.0] * 3, [1.0] * 3), UNIT2, np.zeros((1, 1))
        ),
        ic.DimensionMismatch,
        "family output does not match S and U",
    ),
    "admissible-inputs-shape": (
        lambda: ic.is_admissible(
            zero_dynamics_family(), UNIT2, UNIT2, np.zeros((2, 1)), np.zeros(12)
        ),
        ic.DimensionMismatch,
        r"^vertex inputs have shape \(12,\), not \(M, N, m\) = \(2, 4, 2\)$",
    ),
    "family-input-dimension-not-U": (
        lambda: ic.vertex_constraints(
            zero_dynamics_family(), UNIT2, ic.box([-1.0], [1.0]), np.zeros((1, 1))
        ),
        ic.DimensionMismatch,
        "family output does not match S and U",
    ),
}


def test_constraint_rows_that_overflow_name_their_draw():
    # the plants are finite, but F B(delta) overflows on S = box(+-0.01):
    # a NaN row never reads as violated, so synthesis and greedy used to
    # return a zero policy with no support; each stacked path refuses the
    # draw by its position, with no overflow warning
    from invarcert.system_family import NonFiniteParameter

    fam = ic.AffineFamily(
        0.5 * np.eye(2), 1e307 * np.eye(2), [np.zeros((2, 2))], [np.zeros((2, 2))]
    )
    S = ic.box([-0.01, -0.01], [0.01, 0.01])
    scen = ic.ScenarioSet.from_uniform_box([0.0], [1.0], 10, seed=0)

    def message(row):
        value = scen.samples[row].tolist()
        return rf"^row {row}: parameter \[{value[0]!r}\] gives non-finite constraint rows$"

    with pytest.raises(NonFiniteParameter, match=message(0)):
        ic.solve_affine_policy(fam, S, UNIT2, scen)
    with pytest.raises(NonFiniteParameter, match=message(0)):
        ic.multisample_necessary(fam, S, UNIT2, scen)
    with pytest.raises(NonFiniteParameter, match=message(7)):
        ic.single_sample_iff(fam, S, UNIT2, scen.samples[7], sample_index=7)
    # a right-hand side 1 - F A(delta) x_i that overflows, on one draw of four
    fam = ic.AffineFamily(
        np.zeros((2, 2)), np.eye(2), [1e308 * np.ones((2, 2))], [np.zeros((2, 2))]
    )
    deltas = np.array([[0.1], [0.25], [1.0], [0.5]])
    with pytest.raises(NonFiniteParameter, match=r"^row 32: parameter \[1\.0\] gives non-finite"):
        ic.vertex_constraints(fam, UNIT2, UNIT2, deltas, 30)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_refused(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=message) as info:
        call()
    assert isinstance(info.value, ic.InvarcertError)


def _doubling_family():
    """x+ = 2 x with no input: every sample's block is infeasible, and the
    zero start violates its image rows."""
    zero = np.zeros((2, 2))
    return ic.AffineFamily(A0=2.0 * np.eye(2), B0=zero, A_terms=[zero], B_terms=[zero])


def test_constraint_generation_that_never_settles_raises(monkeypatch):
    # each round adds a row not yet in the working set, so the rounds end
    # within as many rounds as rows; only a selection that re-adds a
    # working row runs past that bound
    from invarcert import scenario

    fam, S, U, scen = path_instance(K=3, seed=8)
    monkeypatch.setattr(scenario, "_most_violated", lambda viol: np.array([0]))
    with pytest.raises(ic.NumericalBreakdown, match="^constraint generation failed to converge$"):
        ic.solve_affine_policy(fam, S, U, scen)


def test_working_lps_take_half_the_pivots_of_the_primal(monkeypatch):
    # every working LP of synthesis and greedy is solved by the dual simplex
    # from the slack basis; the two-phase primal on the same programs pays
    # for a phase 1 and reaches the same optima
    solved = []
    solve_dual = lp_core.solve_dual

    def recording(lp):
        solved.append((lp, solve_dual(lp)))
        return solved[-1][1]

    monkeypatch.setattr(lp_core, "solve_dual", recording)
    fam, S, U, scen = affine3_instance(K=1500, seed=0)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    assert ic.greedy_support_subsample(policy) == SEEDED_SWEEP[("affine3", 1500, 0)]
    primal = [lp_core.solve(lp) for lp, _ in solved]
    dual_pivots = sum(out.iterations for _, out in solved)
    assert len(solved) > 20
    assert 0 < 2 * dual_pivots <= sum(out.iterations for out in primal)
    for (_, dual), out in zip(solved, primal):
        assert dual.is_optimal and out.is_optimal
        assert np.abs(dual.z - out.z).max() <= 1e-12


def test_working_lp_without_an_optimum_raises(monkeypatch):
    # a working LP is feasible or not, and its 1-norm cost is bounded below:
    # any other outcome of the simplex core is a numerical fault
    unbounded = lp_core.LpOutcome(lp_core.LpStatus.UNBOUNDED)
    monkeypatch.setattr(lp_core, "solve_dual", lambda lp: unbounded)
    scen = ic.ScenarioSet(samples=np.array([[0.0], [1.0]]))
    with pytest.raises(ic.NumericalBreakdown, match=r"^unexpected LP status LpStatus\.UNBOUNDED$"):
        ic.solve_affine_policy(_doubling_family(), UNIT2, UNIT2, scen)


def test_diagnosis_that_loses_a_verified_prefix_raises(monkeypatch):
    # the bisection takes the prefix without the culprit as feasible; a
    # re-solve of that prefix that fails contradicts it
    from invarcert import scenario

    solve = scenario._BlockProgram.solve
    bisection = []

    def solve_prefix(self, vertices, sample_indices, seeds=None):
        # K = 2: the bisection's one test, of the prefix [:1], reads feasible
        # for every vertex; every later solve is real
        if len(sample_indices) == 1 and len(bisection) < self.N:
            bisection.append(vertices)
            return np.zeros((len(vertices), self.dvar))
        return solve(self, vertices, sample_indices, seeds)

    monkeypatch.setattr(scenario._BlockProgram, "solve", solve_prefix)
    scen = ic.ScenarioSet(samples=np.array([[0.0], [1.0]]))
    with pytest.raises(ic.NumericalBreakdown, match="^diagnosis lost feasibility$"):
        ic.solve_affine_policy(_doubling_family(), UNIT2, UNIT2, scen)


def _min_slack(fam, S, U, policy, draws):
    """Smallest slack of each draw's rows over every vertex block."""
    G, l = ic.vertex_constraints(fam, S, U, draws)
    slack = l - np.einsum("krm,knm->knr", G, policy.vertex_inputs(draws))
    return slack.reshape(len(draws), -1).min(axis=1)


@pytest.mark.parametrize(
    "instance",
    [lambda: six_node_instance(K=200, seed=3), lambda: affine3_instance(K=300, seed=4)],
    ids=["six_node", "affine3"],
)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_an_all_slack_sample_is_compressed_away(instance, where):
    # a row that is slack at the optimum carries no multiplier, so adding a
    # sample whose rows are all slack keeps the policy optimal, and the
    # support keeps the same samples (Campi & Garatti, JMLR 24, 2023)
    from invarcert import scenario

    fam, S, U, scen = instance()
    policy = ic.solve_affine_policy(fam, S, U, scen)
    support = ic.greedy_support_subsample(policy)
    slack = _min_slack(fam, S, U, policy, scen.samples)
    draw = scen.samples[np.flatnonzero(slack > 10 * scenario._ACTIVE_TOL)[0]]
    at = {"first": 0, "middle": scen.K // 2, "last": scen.K}[where]
    grown = ic.ScenarioSet(samples=np.insert(scen.samples, at, draw, axis=0))
    moved = ic.solve_affine_policy(fam, S, U, grown)
    for new, old in [(moved.gains, policy.gains), (moved.offsets, policy.offsets)]:
        assert np.abs(new - old).max() <= scenario.SOLUTION_TOL
    shifted = [i + (i >= at) for i in support]
    assert ic.greedy_support_subsample(moved) == shifted


def test_path_policy_leaves_no_sample_all_slack():
    # on the path network every vertex input sits on a bound of U = [-1, 1]
    # and does not depend on the draw, so an input row is active for every
    # draw: no sample, drawn or built, is all slack at this policy
    from invarcert import scenario

    fam, S, U, scen = path_instance(K=150)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    assert np.all(policy.gains == 0.0)
    assert np.all(1.0 - np.abs(policy.offsets) < scenario._ACTIVE_TOL)
    assert np.all(_min_slack(fam, S, U, policy, scen.samples) < scenario._ACTIVE_TOL)
