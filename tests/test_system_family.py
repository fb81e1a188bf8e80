import itertools

import numpy as np
import pytest

import invarcert as ic
from invarcert.system_family import GraphError, NonFiniteParameter, UnknownSample


def single_edge(weight=0.5):
    return ic.Graph(
        edges=[(0, 1)], floating=[0], inputs=[1], nominal_weights=[weight]
    )


def test_single_edge_incidence():
    D_F, D_I = ic.build_incidence(single_edge())
    assert D_F == pytest.approx(np.array([[1.0]]))
    assert D_I == pytest.approx(np.array([[-1.0]]))


def test_path_incidence_rows():
    g = ic.Graph(
        edges=[(0, 1), (1, 2)], floating=[0, 1], inputs=[2], nominal_weights=[1, 1]
    )
    D_F, D_I = ic.build_incidence(g)
    assert D_F.shape == (2, 2) and D_I.shape == (1, 2)
    # each column has exactly one +1 and one -1, so column sums vanish
    D = np.vstack([D_F, D_I])
    assert np.allclose(D.sum(axis=0), 0.0)
    assert np.all(np.sort(D, axis=0)[[0, -1]] == np.array([[-1.0, -1.0], [1.0, 1.0]]))


def test_single_edge_network_formula():
    # hand evaluation: D_F = [1], D_I = [-1] gives A = 1 - w and B = w
    fam = ic.NetworkFamily(single_edge())
    for w in (0.0, 0.25, 0.5, -0.3):
        A, B = fam.instantiate([w])
        assert A[0, 0] == pytest.approx(1.0 - w)
        assert B[0, 0] == pytest.approx(w)


def test_zero_weights_identity():
    g = ic.Graph(
        edges=[(0, 1), (1, 2), (0, 2)],
        floating=[0, 1],
        inputs=[2],
        nominal_weights=[0.3, 0.3, 0.3],
    )
    fam = ic.NetworkFamily(g)
    A, B = fam.instantiate(np.zeros(3))
    assert np.allclose(A, np.eye(2))
    assert np.allclose(B, 0.0)


def test_network_symmetry_and_consistency():
    rng = np.random.default_rng(1)
    g = ic.Graph(
        edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
        floating=[0, 1, 2],
        inputs=[3],
        nominal_weights=rng.uniform(-0.5, 1.0, 5),
    )
    fam = ic.NetworkFamily(g)
    D_F, D_I = ic.build_incidence(g)
    for _ in range(10):
        w = rng.uniform(-1.0, 1.0, 5)
        A, B = fam.instantiate(w)
        assert np.allclose(A, A.T)
        assert np.array_equal(A, np.eye(3) - D_F @ np.diag(w) @ D_F.T)
        assert np.array_equal(B, -D_F @ np.diag(w) @ D_I.T)


def test_network_terms_match_incidence_formula():
    # the affine terms A_k = -f_k f_k^T, B_k = -f_k i_k^T accumulate to the
    # consensus matrices up to rounding of the sums
    from instances import six_node_instance

    rng = np.random.default_rng(8)
    fam, _, _, scen = six_node_instance(K=50)
    assert isinstance(fam, ic.AffineFamily)
    D_F, D_I = ic.build_incidence(fam.graph)
    assert np.array_equal(fam.nominal_delta, fam.graph.nominal_weights)
    for w in np.vstack([scen.samples, rng.uniform(-1.0, 1.0, (20, fam.ell))]):
        A, B = fam.instantiate(w)
        assert np.abs(A - (np.eye(fam.n) - D_F @ np.diag(w) @ D_F.T)).max() <= 1e-15
        assert np.abs(B - (-D_F @ np.diag(w) @ D_I.T)).max() <= 1e-15


def test_instantiate_batch_matches_instantiate():
    from instances import path_instance, random_affine_instance

    rng = np.random.default_rng(3)
    network, _, _, scen = path_instance(K=30)
    families = [
        (random_affine_instance(rng, n=3, m=2, ell=4), rng.uniform(-1, 1, (30, 4))),
        (network, scen.samples),
    ]
    for fam, deltas in families:
        A, B = fam.instantiate_batch(deltas)
        assert A.shape == (30, fam.n, fam.n) and B.shape == (30, fam.n, fam.m)
        for k, delta in enumerate(deltas):
            A_k, B_k = fam.instantiate(delta)
            assert np.array_equal(A[k], A_k) and np.array_equal(B[k], B_k)
        with pytest.raises(ic.DimensionMismatch):
            fam.instantiate_batch(deltas[:, :-1])


def _per_term_reference(fam, deltas):
    """The draw-major build that the entry-major one replaced: each term,
    scaled by its parameter column, is added onto the whole stack in turn."""
    A = np.repeat(fam.A0[None], len(deltas), axis=0)
    for k, term in enumerate(fam.A_terms):
        A += deltas[:, k, None, None] * term
    B = np.repeat(fam.B0[None], len(deltas), axis=0)
    for k, term in enumerate(fam.B_terms):
        B += deltas[:, k, None, None] * term
    return A, B


def _term_families():
    from instances import affine3_instance, random_affine_instance, six_node_instance

    rng = np.random.default_rng(17)
    mixed = random_affine_instance(rng, n=3, m=2, ell=4)
    return {
        "six_node": six_node_instance(K=1)[0],
        "affine3": affine3_instance(K=1, seed=0)[0],
        "no_A_terms": ic.AffineFamily(A0=mixed.A0, B0=mixed.B0, B_terms=mixed.B_terms),
        "no_B_terms": ic.AffineFamily(A0=mixed.A0, B0=mixed.B0, A_terms=mixed.A_terms),
        "scalar": ic.AffineFamily(
            A0=[[0.9]], B0=[[1.0]], A_terms=rng.normal(size=(3, 1, 1)), B_terms=rng.normal(size=(3, 1))
        ),
        "signed_zeros": _signed_zero_family(),
    }


def _signed_zero_family():
    """-0.0 in A0, B0 and the terms, an all-zero term (A_1 and B_2), terms
    that are zero on some entries only, entries with no nonzero term (A
    (1, 0) and (1, 2), B (1, 1)) and -0.0 base entries that some term
    is nonzero on (A (1, 1), B (0, 0) and (2, 1)) or no term is (A (0, 0))."""
    z = -0.0
    A0 = [[z, 0.5, 0.0], [0.0, z, 1.0], [0.2, 0.0, 0.9]]
    A_terms = [
        [[0.0, 0.3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, z]],
        np.zeros((3, 3)),
        [[z, 0.1, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.0]],
        [[z, z, z], [z, z, z], [0.4, z, z]],
    ]
    B0 = [[z, 1.0], [0.0, 0.0], [0.5, z]]
    B_terms = [
        [[z, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.2, 0.0], [0.0, 0.0], [0.0, 0.3]],
        np.zeros((3, 2)),
        [[0.0, 0.0], [0.1, 0.0], [0.0, 0.0]],
    ]
    return ic.AffineFamily(A0=A0, B0=B0, A_terms=A_terms, B_terms=B_terms)


def test_signed_zero_family_over_every_sign_of_zero():
    # every parameter in {-1, -0.0, 0.0, 1}: at each -0.0 base entry the
    # per-term loop ends on both signs of zero, so a build that skipped a
    # zero term there differs in bytes
    fam = _signed_zero_family()
    deltas = np.array(list(itertools.product([-1.0, -0.0, 0.0, 1.0], repeat=fam.ell)))
    A, B = fam.instantiate_batch(deltas)
    A_ref, B_ref = _per_term_reference(fam, deltas)
    assert A.tobytes() == A_ref.tobytes() and B.tobytes() == B_ref.tobytes()
    for X, i, j in ((A, 0, 0), (A, 1, 1), (B, 0, 0), (B, 2, 1)):
        zeros = X[X[:, i, j] == 0.0, i, j]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all(), (i, j)


KINDS = ["six_node", "affine3", "no_A_terms", "no_B_terms", "scalar", "signed_zeros"]


@pytest.mark.parametrize("K", [1, 2, 511, 512, 513, 5000])
@pytest.mark.parametrize("kind", KINDS)
def test_instantiate_batch_matches_the_per_term_loop(kind, K):
    fam = _term_families()[kind]
    rng = np.random.default_rng(K)
    for scale in (1e-3, 1.0, 1e3):
        deltas = scale * rng.uniform(-1.0, 1.0, size=(K, fam.ell))
        # signed zero parameters, whose products are signed zeros
        deltas[::3, 0] = 0.0
        deltas[1::3, -1] = -0.0
        A, B = fam.instantiate_batch(deltas)
        A_ref, B_ref = _per_term_reference(fam, deltas)
        assert A.shape == A_ref.shape and B.shape == B_ref.shape
        assert A.flags.c_contiguous and B.flags.c_contiguous
        assert A.tobytes() == A_ref.tobytes() and B.tobytes() == B_ref.tobytes()
        for k in {0, K // 2, K - 1}:
            A_k, B_k = fam.instantiate(deltas[k])
            assert A_k.tobytes() == A[k].tobytes() and B_k.tobytes() == B[k].tobytes()


def test_instantiate_batch_refuses_a_non_finite_row():
    # a skipped zero term would hide 0 * inf = NaN, so the row is refused
    # by its position instead
    fam = _term_families()["six_node"]
    deltas = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, fam.ell))
    for bad in (np.inf, -np.inf, np.nan):
        deltas[4, 2] = bad
        with pytest.raises(NonFiniteParameter, match=r"^row 4: parameter \[.*\] is not finite$"):
            fam.instantiate_batch(deltas)
        with pytest.raises(ValueError, match=r"^row 0: parameter"):
            fam.instantiate(deltas[4])


def test_instantiate_batch_refuses_an_overflowing_plant():
    # a finite draw whose A(delta) or B(delta) overflows, in a product or in
    # a sum, is refused by its row, with no overflow warning (warnings are
    # errors in this suite); the rows before it build as they did alone
    product = ic.AffineFamily(
        np.zeros((2, 2)), np.eye(2), [np.zeros((2, 2))], [1e300 * np.eye(2)]
    )
    total = ic.AffineFamily(1e308 * np.eye(2), np.eye(2), [1e308 * np.eye(2)], [np.zeros((2, 2))])
    for fam, value in ((product, 1e10), (total, 1.0)):
        deltas = np.array([[0.5], [-0.25], [value], [0.0]])
        with pytest.raises(NonFiniteParameter) as info:
            fam.instantiate_batch(deltas)
        assert str(info.value) == f"row 2: parameter [{value!r}] gives a non-finite plant"
        assert (info.value.row, info.value.value) == (2, [value])
        with pytest.raises(NonFiniteParameter, match=r"^row 0: .* gives a non-finite plant$"):
            fam.instantiate(deltas[2])
        A, B = fam.instantiate_batch(deltas[:2])
        for k in range(2):
            A_k, B_k = fam.instantiate(deltas[k])
            assert A_k.tobytes() == A[k].tobytes() and B_k.tobytes() == B[k].tobytes()
    fam = _term_families()["six_node"]
    deltas = np.random.default_rng(6).uniform(-1.0, 1.0, size=(6, fam.ell))
    deltas[3] = 1e308
    message = r"^row 3: parameter \[1e\+308, .*\] gives a non-finite plant$"
    with pytest.raises(NonFiniteParameter, match=message):
        fam.instantiate_batch(deltas)


def test_overflowing_plant_named_in_the_whole_sample_list():
    # Monte Carlo names the draw by its index among the M draws, and
    # vertex_constraints by its position in the sample list
    from invarcert import scenario

    fam = ic.AffineFamily(np.zeros((1, 1)), np.eye(1), [np.zeros((1, 1))], [1e300 * np.eye(1)])
    S = ic.box([-1.0], [1.0])
    policy = ic.AffinePolicy(gains=np.zeros((2, 1, 1)), offsets=np.zeros((2, 1)))
    draws = np.zeros((scenario.CHUNK + 20, 1))
    draws[scenario.CHUNK + 9] = 1e10

    class Fixed:
        def draw(self, count, rng):
            return draws[:count]

    message = rf"^row {scenario.CHUNK + 9}: parameter \[10000000000\.0\] gives a non-finite plant$"
    with pytest.raises(NonFiniteParameter, match=message):
        ic.estimate_violation(fam, S, S, policy, Fixed(), M=len(draws))
    with pytest.raises(NonFiniteParameter, match=r"^row 39: parameter \[10000000000\.0\] gives"):
        ic.vertex_constraints(fam, S, S, draws[scenario.CHUNK :], 30)


def test_non_finite_draw_named_in_the_whole_sample_list():
    # the bad draw sits in the second chunk of 512 of a Monte Carlo pass
    from instances import six_node_instance

    from invarcert import scenario

    fam, S, U, scen = six_node_instance(K=50)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    draws = scen.distribution.draw(scenario.CHUNK + 200, np.random.default_rng(0))
    draws[scenario.CHUNK + 7, 0] = np.nan
    with pytest.raises(NonFiniteParameter, match=rf"^row {scenario.CHUNK + 7}: parameter"):
        ic.empirical_violation(fam, S, U, policy, draws)


def test_orientation_invariance():
    # flipping an edge orientation flips the incidence column sign, which
    # cancels in both D W D^T products
    g = ic.Graph(
        edges=[(0, 1), (1, 2)], floating=[0, 2], inputs=[1], nominal_weights=[0.4, 0.7]
    )
    g_flipped = ic.Graph(
        edges=[(1, 0), (2, 1)], floating=[0, 2], inputs=[1], nominal_weights=[0.4, 0.7]
    )
    w = [0.4, 0.7]
    A1, B1 = ic.NetworkFamily(g).instantiate(w)
    A2, B2 = ic.NetworkFamily(g_flipped).instantiate(w)
    assert np.array_equal(A1, A2) and np.array_equal(B1, B2)


def test_graph_validation():
    with pytest.raises(GraphError, match="^graph needs at least one floating node$"):
        ic.Graph(edges=[(0, 1)], floating=[], inputs=[0, 1], nominal_weights=[1.0])
    with pytest.raises(GraphError, match="^graph needs at least one input node$"):
        ic.Graph(edges=[(0, 1)], floating=[0, 1], inputs=[], nominal_weights=[1.0])
    with pytest.raises(GraphError):  # disconnected
        ic.Graph(
            edges=[(0, 1)],
            floating=[0, 2],
            inputs=[1, 3],
            nominal_weights=[1.0],
        )
    with pytest.raises(GraphError):  # self loop
        ic.Graph(edges=[(0, 0), (0, 1)], floating=[0], inputs=[1], nominal_weights=[1, 1])
    with pytest.raises(ic.DimensionMismatch):
        ic.Graph(edges=[(0, 1)], floating=[0], inputs=[1], nominal_weights=[1.0, 2.0])


def test_affine_family():
    fam = ic.AffineFamily(
        A0=np.eye(2),
        B0=np.zeros((2, 1)),
        A_terms=[np.ones((2, 2))],
        B_terms=[np.zeros((2, 1))],
    )
    A, B = fam.instantiate([0.0])
    assert np.array_equal(A, np.eye(2))
    A, _ = fam.instantiate([0.5])
    assert np.allclose(A, np.eye(2) + 0.5)
    with pytest.raises(ic.DimensionMismatch):
        fam.instantiate([0.1, 0.2])


def test_affine_term_shapes_must_match():
    # a B term given flat (1 x n*m) is refused, not reshaped; a vector is a
    # column, as for B0
    A0, B0 = np.eye(2), np.ones((2, 2))
    with pytest.raises(ic.DimensionMismatch, match=r"Bk\[0\] has shape \(1, 4\)"):
        ic.AffineFamily(A0=A0, B0=B0, A_terms=[A0], B_terms=[np.ones((1, 4))])
    with pytest.raises(ic.DimensionMismatch, match=r"Ak\[1\] has shape \(2, 3\)"):
        ic.AffineFamily(A0=A0, B0=B0, A_terms=[A0, np.ones((2, 3))])
    column = ic.AffineFamily(A0=A0, B0=[1.0, 0.0], B_terms=[[0.5, 0.5]])
    assert column.B_terms[0].shape == (2, 1)


def test_table_family():
    A0, B0 = np.eye(2), np.ones((2, 1))
    A1, B1 = 0.5 * np.eye(2), -np.ones((2, 1))
    fam = ic.TableFamily(pairs=[(A0, B0), (A1, B1)])
    assert fam.ell == 1
    A, B = fam.instantiate([1.0])
    assert np.array_equal(A, A1) and np.array_equal(B, B1)
    with pytest.raises(UnknownSample):
        fam.instantiate([2.0])
    with pytest.raises(UnknownSample):
        fam.instantiate([0.5])
    A, B = fam.instantiate_batch([[1.0], [0.0], [1.0]])
    assert np.array_equal(A, np.stack([A1, A0, A1]))
    assert np.array_equal(B, np.stack([B1, B0, B1]))
    with pytest.raises(UnknownSample, match=r"row 1: 0\.5 is not a table index in 0\.\."):
        fam.instantiate_batch([[0.0], [0.5], [2.0]])
    with pytest.raises(UnknownSample, match=r"row 2: 2\.0 is not a table index in 0\.\."):
        fam.instantiate_batch([[0.0], [1.0], [2.0]])


def test_instantiate_function_form():
    fam = ic.NetworkFamily(single_edge())
    A, B = fam.instantiate([0.5])
    assert A[0, 0] == pytest.approx(0.5) and B[0, 0] == pytest.approx(0.5)


def test_spectral_radius_trivial():
    assert ic.spectral_radius_estimate(np.zeros((3, 3))) == 0.0
    assert ic.spectral_radius_estimate(np.diag([0.5, -1.34])) == pytest.approx(1.34)


def test_spectral_radius_companion_oracle():
    # characteristic polynomial fixed by choosing the roots; the dominant
    # modulus is then known exactly
    roots = np.array([1.5, -0.5, 0.25 + 0.25j, 0.25 - 0.25j])
    coeffs = np.real(np.poly(roots))  # monic, degree 4
    companion = np.zeros((4, 4))
    companion[0, :] = -coeffs[1:]
    companion[1:, :-1] = np.eye(3)
    assert ic.spectral_radius_estimate(companion) == pytest.approx(1.5, abs=1e-6)


def test_spectral_radius_lapack_failure_is_numerical_breakdown(monkeypatch):
    def no_convergence(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(ic.NumericalBreakdown, match="did not converge"):
        ic.spectral_radius_estimate(np.eye(2))


def test_spectral_radius_requires_square():
    with pytest.raises(ic.DimensionMismatch):
        ic.spectral_radius_estimate(np.ones((2, 3)))


BAD_INPUTS = {
    "graph-node-sets-overlap": (
        lambda: ic.Graph(edges=[(0, 1)], floating=[0, 1], inputs=[1], nominal_weights=[0.5]),
        GraphError,
        "floating and input node sets overlap",
    ),
    "graph-nodes-not-contiguous": (
        lambda: ic.Graph(edges=[(0, 2)], floating=[0], inputs=[2], nominal_weights=[0.5]),
        GraphError,
        r"nodes must be exactly 0..n-1 across the two sets",
    ),
    "graph-edge-to-unknown-node": (
        lambda: ic.Graph(edges=[(0, 2)], floating=[0], inputs=[1], nominal_weights=[0.5]),
        GraphError,
        r"edge \(0,2\) references unknown node",
    ),
    "affine-A0-not-square": (
        lambda: ic.AffineFamily(A0=np.zeros((2, 3)), B0=np.zeros((2, 1))),
        ic.DimensionMismatch,
        "A0 must be square",
    ),
    "affine-B0-rows": (
        lambda: ic.AffineFamily(A0=np.zeros((2, 2)), B0=np.zeros((3, 1))),
        ic.DimensionMismatch,
        "B0 row count must match A0",
    ),
    "affine-A0-not-finite": (
        lambda: ic.AffineFamily(A0=[[0.5, np.nan], [0.0, 0.5]], B0=np.zeros((2, 1))),
        ic.InvalidArguments,
        r"^A0 is not finite$",
    ),
    "affine-B0-not-finite": (
        lambda: ic.AffineFamily(A0=np.eye(2), B0=[[np.inf], [0.0]]),
        ic.InvalidArguments,
        r"^B0 is not finite$",
    ),
    "affine-Ak-not-finite": (
        lambda: ic.AffineFamily(
            A0=np.eye(2),
            B0=np.zeros((2, 1)),
            A_terms=[np.zeros((2, 2)), [[0.0, -np.inf], [0.0, 0.0]]],
            B_terms=[np.zeros((2, 1))] * 2,
        ),
        ic.InvalidArguments,
        r"^Ak\[1\] is not finite$",
    ),
    "affine-Bk-not-finite": (
        lambda: ic.AffineFamily(
            A0=np.eye(2), B0=np.zeros((2, 1)), A_terms=[np.zeros((2, 2))], B_terms=[[np.nan, 0.0]]
        ),
        ic.InvalidArguments,
        r"^Bk\[0\] is not finite$",
    ),
    "table-pair-not-finite": (
        lambda: ic.TableFamily([(np.eye(2), np.ones((2, 1))), (np.eye(2), [[1.0], [np.nan]])]),
        ic.InvalidArguments,
        r"^table pair 1 is not finite$",
    ),
    "graph-nominal-weight-not-finite": (
        lambda: ic.Graph(
            edges=[(0, 1), (1, 2)], floating=[0, 1], inputs=[2], nominal_weights=[0.5, np.inf]
        ),
        GraphError,
        r"^nominal weight 1 is not finite$",
    ),
    "affine-term-counts-differ": (
        lambda: ic.AffineFamily(
            A0=np.zeros((2, 2)),
            B0=np.zeros((2, 1)),
            A_terms=[np.zeros((2, 2))] * 2,
            B_terms=[np.zeros((2, 1))],
        ),
        ic.DimensionMismatch,
        "A and B term counts differ",
    ),
    "table-shapes-differ": (
        lambda: ic.TableFamily([(np.eye(2), np.ones((2, 1))), (np.eye(3), np.ones((3, 1)))]),
        ic.DimensionMismatch,
        "all table entries must share shapes",
    ),
    "table-empty": (
        lambda: ic.TableFamily([]),
        ValueError,
        r"table must contain at least one \(A, B\) pair",
    ),
    "table-A-not-square": (
        lambda: ic.TableFamily([(np.zeros((2, 3)), np.ones((2, 1)))]),
        ic.DimensionMismatch,
        "A must be square",
    ),
    "table-two-parameters": (
        lambda: ic.TableFamily([(np.eye(2), np.ones((2, 1)))]).instantiate_batch(np.zeros((3, 2))),
        ic.DimensionMismatch,
        "table families take a single index parameter",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_refused(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=message) as info:
        call()
    assert isinstance(info.value, ic.InvarcertError)
