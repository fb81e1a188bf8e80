import functools
import warnings

import numpy as np
import pytest

import invarcert as ic
from invarcert import feasibility, lp_core
from invarcert.geometry import DEFAULT_TOL
from invarcert.scenario import CHUNK, Infeasible
from invarcert.system_family import NonFiniteParameter

from instances import affine3_instance, random_affine_instance, six_node_instance
from minor_loop import check_vertex

DET_TOL = feasibility.DET_TOL


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


def test_single_sample_names_a_non_finite_draw_by_its_index():
    fam, S, U, _ = affine3_instance(K=1, seed=4)
    with pytest.raises(
        NonFiniteParameter, match=r"^row 7: parameter \[nan, 0.0, 0.0, 0.0\] is not finite$"
    ):
        ic.single_sample_iff(fam, S, U, [np.nan, 0.0, 0.0, 0.0], sample_index=7)


@pytest.mark.parametrize("delta", [np.zeros((2, 4)), np.zeros((1, 4)), np.zeros(3)])
def test_single_sample_refuses_anything_but_one_draw(delta):
    fam, S, U, _ = affine3_instance(K=1, seed=4)
    shape = str(delta.shape).replace("(", r"\(").replace(")", r"\)")
    with pytest.raises(
        ic.DimensionMismatch,
        match=rf"^expected one draw of 4 parameter values, got shape {shape}$",
    ):
        ic.single_sample_iff(fam, S, U, delta, sample_index=3)


def _det_of(t: float) -> float:
    return abs(np.linalg.det(np.array([[1.0, 0.0], [0.0, t]])))


def _near_singular_block():
    """Minors whose |det| sits on either side of DET_TOL by one float.

    ``det`` goes through the log of the LU diagonal, so ``at`` is the
    largest ``t`` whose minor with ``e1`` still has ``|det| <= DET_TOL`` and
    ``above`` the next float.  Rows 0-4 are ``e1`` and ``(0, t)`` for t in
    {at, -at, above, -above}: with ``l`` = (0.5, 0, 0, 0, 0, 10, ...) the
    basic point (0.5, 0) of every minor of row 0 satisfies the block, so
    vertex 0 must skip rows (0, 1) and (0, 2) and take rows (0, 3).  Rows
    8-13 are ``c r + t perp(r)`` for a random ``r``, scaled so that their
    minors with row 7 (``r``) land within a few ulps of DET_TOL after
    pivoting.
    """
    at = DET_TOL
    while _det_of(at) > DET_TOL:
        at = np.nextafter(at, 0.0)
    while _det_of(np.nextafter(at, 1.0)) <= DET_TOL:
        at = np.nextafter(at, 1.0)
    above = np.nextafter(at, 1.0)
    rng = np.random.default_rng(8)
    r = rng.uniform(0.5, 1.5, 2)
    perp = np.array([-r[1], r[0]]) / (r @ r)
    G = np.vstack(
        [
            [[1.0, 0.0], [0.0, at], [0.0, -at], [0.0, above], [0.0, -above]],
            [[-1.0, 0.0], [0.3, 1.0], r],
            [c * r + f * DET_TOL * perp for c in (-2.0, 0.5, 3.0) for f in (1.0, -1.0)],
        ]
    )
    l = rng.uniform(-0.2, 1.0, (6, G.shape[0]))
    l[0] = 10.0
    l[0, :5] = [0.5, 0.0, 0.0, 0.0, 0.0]
    return G[None], l[None]


def _at_tolerance_block():
    """Residuals exactly at DEFAULT_TOL (vertex 0 takes rows (0, 1)) and
    one float above it (vertex 1 moves on to rows (1, 2))."""
    G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    l = np.array(
        [
            [DEFAULT_TOL, 0.5, 0.0, 1.0, 1.0],
            [np.nextafter(DEFAULT_TOL, 1.0), 0.5, 0.0, 1.0, 1.0],
        ]
    )
    return G[None], l[None]


def _non_finite_block():
    """Basic points with inf and NaN entries: an overflowing solve (vertex
    0, whose first witness is rows (0, 2)), a NaN right-hand side (vertex
    1) and one of -1e300 (vertex 2), both with empty blocks; later minors
    of vertex 0 give NaN residuals that the loop never computes."""
    G = np.array([[1.0, 0.0], [0.0, 2e-10], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    l = np.ones((4, 5))
    l[0, 1], l[1, 0], l[2, 1] = 1e300, np.nan, -1e300
    return G[None], l[None]


def _unreached_non_finite_block():
    """A block whose first minor, rows (0, 1), is its witness, so that the
    loop computes no other basic point, while the overflowing solves of
    rows (0, 2) and (1, 2) give NaN residuals."""
    G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2e-10], [-1.0, 0.0], [0.0, -1.0]])
    l = np.array([[0.5, 0.5, 1e300, 1.0, 1.0]])
    return G[None], l[None]


def _overflowing_rows_block():
    """Image rows with inf entries, as from a plant that overflows: the
    ``det`` of rows (3, 5), past the witness rows (2, 3) of each vertex,
    sets the invalid flag, which the loop never does."""
    G = np.array([[1.0, 0.0], [0.0, 1.0], [np.inf, 0.0], [0.0, np.inf], [-1.0, 0.0], [0.0, -1.0]])
    return G[None], np.ones((1, 2, 6))


def _scan_cases():
    """(name, G (K, rows, m), l (K, N, rows), q) of every reference case."""
    plants = list(_plants())
    for name, (fam, S, U, samples) in zip(("network6", "affine3"), plants):
        yield (name, *ic.vertex_constraints(fam, S, U, samples), U.facet_count)
    # shrunk input boxes empty some of the blocks
    for name, (fam, S, U, samples), half in zip(
        ("network6-small-U", "affine3-small-U"), plants, (0.05, 0.3)
    ):
        small = ic.box([-half] * U.dim, [half] * U.dim)
        yield (name, *ic.vertex_constraints(fam, S, small, samples[:30]), small.facet_count)
    yield ("near-singular", *_near_singular_block(), 0)
    yield ("at-tolerance", *_at_tolerance_block(), 0)
    yield ("non-finite", *_non_finite_block(), 0)
    yield ("non-finite-unreached", *_unreached_non_finite_block(), 0)
    yield ("overflowing-rows", *_overflowing_rows_block(), 0)


def _caught(caught) -> set:
    return {(w.category, str(w.message)) for w in caught}


@functools.cache
def _loop_cases():
    """name -> (G, l, q, the loop's witness or None per block and vertex,
    the warnings the loop gave)."""
    cases = {}
    for name, G, l, q in _scan_cases():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loop = [
                [check_vertex(G[k], l[k, i], q, i, k) for i in range(l.shape[1])]
                for k in range(G.shape[0])
            ]
        cases[name] = (G, l, q, loop, _caught(caught))
    return cases


@pytest.mark.parametrize(
    "slice_floats",
    [1, feasibility.SLICE_FLOATS, 10**9],
    ids=["one-subset", "default", "all-subsets"],
)
def test_stacked_scan_matches_the_reference_loop(monkeypatch, slice_floats):
    monkeypatch.setattr(feasibility, "SLICE_FLOATS", slice_floats)
    cases = _loop_cases()
    # what the cases are meant to cover
    for name in ("network6-small-U", "affine3-small-U"):
        empty = [w is None for block in cases[name][3] for w in block]
        assert any(empty) and not all(empty), name
    G, l, _, loop, _ = cases["near-singular"]
    dets = np.abs(np.linalg.det(G[0][feasibility._subsets(*G[0].shape)]))
    assert ((dets <= DET_TOL) & (dets > (1 - 1e-12) * DET_TOL)).sum() >= 2
    assert ((dets > DET_TOL) & (dets < (1 + 1e-12) * DET_TOL)).sum() >= 2
    assert loop[0][0].image_rows == (0, 3)
    loop = cases["at-tolerance"][3]
    assert (loop[0][0].image_rows, loop[0][1].image_rows) == ((0, 1), (1, 2))
    G, l, _, loop, loop_warnings = cases["non-finite"]
    assert not np.isfinite(np.linalg.solve(G[0][[0, 1]], l[0, 0, [0, 1]])).any()
    assert [w and w.image_rows for w in loop[0]] == [(0, 2), None, None, (0, 2)]
    assert loop_warnings
    G, l, _, loop, loop_warnings = cases["non-finite-unreached"]
    assert loop[0][0].image_rows == (0, 1) and not loop_warnings
    G, l, _, loop, loop_warnings = cases["overflowing-rows"]
    with pytest.warns(RuntimeWarning, match="invalid value encountered in det"):
        np.linalg.det(G[0][[3, 5]])
    assert [w.image_rows for w in loop[0]] == [(2, 3), (2, 3)]
    assert not any("det" in message for _, message in loop_warnings)
    for name, (G, l, q, loop, loop_warnings) in cases.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scans = [feasibility._scan(G[k], l[k]) for k in range(G.shape[0])]
        # no warning that the loop does not give
        assert _caught(caught) <= loop_warnings, name
        subsets = feasibility._subsets(*G.shape[1:])
        for k, (first, points, failed) in enumerate(scans):
            empty = [i for i, w in enumerate(loop[k]) if w is None]
            assert failed == (empty[0] if empty else None), (name, k)
            for i, w in enumerate(loop[k]):
                if w is None:
                    assert first[i] == -1, (name, k, i)
                    continue
                chosen = subsets[first[i]]
                assert tuple(chosen) == w.input_rows + tuple(q + j for j in w.image_rows)
                assert G[k][chosen].tobytes() == w.submatrix.tobytes(), (name, k, i)
                assert points[i].tobytes() == w.point.tobytes(), (name, k, i)
