"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Every tolerance
is fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np

import invarcert as ic
from invarcert import lp_core
from invarcert.certificate import epsilon_even_split
from invarcert.scenario import Infeasible

from instances import (
    path_instance,
    random_box,
    random_hull_polytope,
    random_scalar_unstable_instance,
    six_node_instance,
    SIX_NODE_WEIGHTS,
)


def report(number, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] acceptance {number}: {detail}")
    assert passed, f"acceptance criterion {number} failed: {detail}"


def test_acceptance_1_epsilon_reproduction():
    t0 = time.time()
    eps = epsilon_even_split(29, 600, 1e-6)
    prob = 1.0 - eps
    ok = abs(eps - 0.2089) <= 5e-4 and abs(prob - 0.7911) <= 5e-4
    report(
        1,
        ok,
        f"epsilon(29, 600, 1e-6) = {eps:.6f}, invariance probability "
        f"{prob:.6f} ({time.time() - t0 :.3f}s)",
    )


def test_acceptance_2_summation_identity():
    t0 = time.time()
    worst = 0.0
    for K, beta in [(600, 1e-6), (50, 0.05), (1000, 1e-3)]:
        total = 0.0
        for h in range(K):
            eps = epsilon_even_split(h, K, beta)
            log_binom = (
                math.lgamma(K + 1) - math.lgamma(h + 1) - math.lgamma(K - h + 1)
            )
            total += math.exp(log_binom + (K - h) * math.log1p(-eps))
        worst = max(worst, abs(total - beta) / beta)
    report(
        2,
        worst <= 1e-9,
        f"summation identity relative error {worst:.2e} over three (K, beta) "
        f"pairs ({time.time() - t0 :.2f}s)",
    )


def _vertex_blocks_lp_feasible(family, S, U, delta):
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


def test_acceptance_3_minor_enumeration_matches_lp():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    agreements = trials = feasible_seen = 0
    for trial in range(200):
        n = 2 if trial % 2 == 0 else 3
        zeros = [np.zeros((n, n))], [np.zeros((n, 2))]
        fam = ic.AffineFamily(
            A0=rng.uniform(-1, 1, (n, n)),
            B0=rng.uniform(-1, 1, (n, 2)),
            A_terms=zeros[0],
            B_terms=zeros[1],
        )
        S = ic.box(-np.ones(n), np.ones(n))
        U = ic.box([-1, -1], [1, 1])
        verdict = ic.single_sample_iff(fam, S, U, [0.0]).feasible
        oracle = _vertex_blocks_lp_feasible(fam, S, U, [0.0])
        trials += 1
        agreements += verdict == oracle
        feasible_seen += verdict
    ok = agreements == trials == 200 and 0 < feasible_seen < 200
    report(
        3,
        ok,
        f"minor-enumeration verdict matched LP feasibility on {agreements}/"
        f"{trials} instances ({feasible_seen} feasible) "
        f"({time.time() - t0 :.2f}s)",
    )


def test_acceptance_4_consistency_and_baseline():
    t0 = time.time()
    rng = np.random.default_rng(77)
    feasible_runs = admissible_failures = dominance_checks = 0
    for trial in range(12):
        K = 200 if trial < 2 else 50
        fam, S, U = random_scalar_unstable_instance(rng)
        scen = ic.ScenarioSet.from_uniform_box(
            [-1, -1], [1, 1], count=K, seed=int(rng.integers(1_000_000))
        )
        policy = ic.solve_affine_policy(fam, S, U, scen)
        feasible_runs += 1
        for j in range(scen.K):
            d = scen.samples[j]
            if not ic.is_admissible(
                fam, S, U, d, policy.vertex_inputs(d)
            ):
                admissible_failures += 1
        try:
            ic.solve_constant_input(fam, S, U, scen)
        except Infeasible:
            continue
        dominance_checks += 1  # constant feasible; affine already succeeded
    ok = feasible_runs == 12 and admissible_failures == 0 and dominance_checks > 0
    report(
        4,
        ok,
        f"{feasible_runs} feasible runs, {admissible_failures} admissibility "
        f"failures over all training samples, baseline dominance checked "
        f"{dominance_checks} times ({time.time() - t0 :.2f}s)",
    )


def test_acceptance_5_support_subsample_property():
    t0 = time.time()
    rng = np.random.default_rng(555)
    reproduced = collapsed = 0
    for trial in range(50):
        fam, S, U = random_scalar_unstable_instance(rng)
        if trial % 5 == 0:
            # duplicate multisample: everything must collapse to one sample
            value = rng.uniform(-1, 1, size=2)
            scen = ic.ScenarioSet(samples=np.tile(value, (12, 1)))
            policy = ic.solve_affine_policy(fam, S, U, scen)
            kept = ic.greedy_support_subsample(policy)
            collapsed += len(kept) == 1
            continue
        scen = ic.ScenarioSet(samples=rng.uniform(-1, 1, size=(20, 2)))
        full = ic.solve_affine_policy(fam, S, U, scen)
        kept = ic.greedy_support_subsample(full)
        if kept:
            sub = ic.ScenarioSet(samples=scen.samples[kept])
            again = ic.solve_affine_policy(fam, S, U, sub)
            drift = max(
                np.abs(again.gains - full.gains).max(),
                np.abs(again.offsets - full.offsets).max(),
            )
        else:
            zero = ic.solve_affine_policy(
                fam, S, U, ic.ScenarioSet(samples=np.zeros((1, 2)))
            )
            drift = max(
                np.abs(zero.gains - full.gains).max(),
                np.abs(zero.offsets - full.offsets).max(),
            )
        reproduced += drift <= 1e-6
    ok = reproduced == 40 and collapsed == 10
    report(
        5,
        ok,
        f"subsample re-solve reproduced the full policy on {reproduced}/40 "
        f"instances; {collapsed}/10 duplicate sets collapsed to s = 1 "
        f"({time.time() - t0 :.2f}s)",
    )


def test_acceptance_6_network_replication():
    t0 = time.time()
    family, S, U, scenarios = six_node_instance(K=600, seed=12345)

    graph = family.graph
    assert graph.node_count == 6 and graph.edge_count == 12
    assert graph.floating == (0, 2, 4, 5) and graph.inputs == (1, 3)
    A_nom, _ = family.instantiate(SIX_NODE_WEIGHTS)
    rho = ic.spectral_radius_estimate(A_nom)

    policy = ic.solve_affine_policy(family, S, U, scenarios)
    support = ic.greedy_support_subsample(policy)
    s_K = len(support)
    eps = epsilon_even_split(s_K, 600, 1e-6)
    estimate = ic.estimate_violation(
        family, S, U, policy, scenarios.distribution, M=10_000, seed=2025
    )
    # independent check that the support subsample reproduces the policy
    resolved = ic.solve_affine_policy(
        family, S, U, ic.ScenarioSet(samples=scenarios.samples[support])
    )
    drift = max(
        np.abs(resolved.gains - policy.gains).max(),
        np.abs(resolved.offsets - policy.offsets).max(),
    )
    ok = (
        rho > 1.0
        and s_K <= 120  # "much less than 600"
        and eps < 0.5
        and estimate.v_hat <= eps
        and drift <= 1e-6
    )
    report(
        6,
        ok,
        f"rho(A_nominal) = {rho:.3f} > 1, s_600 = {s_K}, epsilon = {eps:.4f} "
        f"< 0.5, Monte Carlo V_hat = {estimate.v_hat:.4f} <= epsilon, "
        f"support re-solve drift {drift:.1e} ({time.time() - t0 :.1f}s)",
    )


def test_acceptance_7_closed_loop_invariance():
    t0 = time.time()
    family, S, U, scenarios = path_instance(K=150, seed=42)
    policy = ic.solve_affine_policy(family, S, U, scenarios)

    rng = np.random.default_rng(99)
    weights = rng.dirichlet(np.ones(S.vertex_count), size=100)
    interior = (weights @ S.vertices) * rng.uniform(0, 1, size=(100, 1))
    starts = np.vstack([S.vertices, interior])

    worst = 0.0
    for j in range(scenarios.K):
        delta = scenarios.samples[j]
        trajectories = ic.simulate_closed_loop(family, delta, S, policy, starts, T=50)
        worst = max(worst, max(traj.max_gauge for traj in trajectories))
        if worst > 1.0 + 1e-6:
            break
    ok = worst <= 1.0 + 1e-6
    report(
        7,
        ok,
        f"max gauge over {scenarios.K} training samples x {len(starts)} "
        f"starts x 50 steps = {worst:.9f} <= 1 + 1e-6 "
        f"({time.time() - t0 :.1f}s)",
    )


def test_acceptance_8_gauge_decomposition_duality():
    t0 = time.time()
    rng = np.random.default_rng(808)
    checked = 0
    worst = 0.0
    while checked < 500:
        n = int(rng.integers(1, 5))
        if n == 1 or rng.random() < 0.5:
            P = random_box(rng, n)
        else:
            P = random_hull_polytope(rng, n, count=n + 3)
        for _ in range(10):
            w = rng.dirichlet(np.ones(P.vertex_count))
            x = (w @ P.vertices) * rng.uniform(0, 1)
            gamma = ic.vertex_decompose(P, x)
            worst = max(worst, abs(gamma.sum() - ic.minkowski_gauge(P, x)))
            checked += 1
    ok = worst <= 1e-6
    report(
        8,
        ok,
        f"|sum(gamma) - gauge| <= {worst:.2e} on {checked} random points "
        f"({time.time() - t0 :.1f}s)",
    )
