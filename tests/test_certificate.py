import json
import math

import mpmath
import numpy as np
import pytest

import invarcert as ic
from invarcert.certificate import epsilon_even_split, epsilon_table
from invarcert.errors import InvalidArguments


def log_binom(K, h):
    return math.lgamma(K + 1) - math.lgamma(h + 1) - math.lgamma(K - h + 1)


def test_boundary_is_one():
    for K, beta in [(1, 0.5), (10, 1e-3), (600, 1e-6)]:
        assert epsilon_even_split(K, K, beta) == 1.0


def test_reported_network_value():
    # 600 samples, support of 29, confidence 1e-6
    assert epsilon_even_split(29, 600, 1e-6) == pytest.approx(0.2089, abs=5e-4)
    assert 1 - epsilon_even_split(29, 600, 1e-6) == pytest.approx(0.7911, abs=5e-4)


def test_zero_support_against_high_precision_oracle():
    # eps(0) = 1 - (beta/K)^(1/K), evaluated at 50 digits
    with mpmath.workdps(50):
        expected = float(1 - mpmath.power(mpmath.mpf(1e-6) / 600, mpmath.mpf(1) / 600))
    assert epsilon_even_split(0, 600, 1e-6) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.03313, abs=5e-5)


def test_single_sample_closed_form():
    # K = 1, h = 0 reduces to 1 - beta
    assert epsilon_even_split(0, 1, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_summation_identity_log_domain():
    for K, beta in [(600, 1e-6), (50, 0.05), (1000, 1e-3)]:
        total = 0.0
        for h in range(K):
            eps = epsilon_even_split(h, K, beta)
            total += math.exp(log_binom(K, h) + (K - h) * math.log1p(-eps))
        assert abs(total - beta) / beta <= 1e-9


def test_monotone_in_support_size():
    for K in (10, 137, 1000):
        values = epsilon_table(K, 1e-4)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


def test_monotone_decreasing_in_beta():
    lo = epsilon_even_split(5, 50, 1e-6)
    hi = epsilon_even_split(5, 50, 1e-2)
    assert hi < lo


def test_range_strictly_inside_unit_interval():
    for K in (1, 7, 300):
        for h in range(0, K, max(1, K // 7)):
            eps = epsilon_even_split(h, K, 1e-5)
            assert 0.0 < eps < 1.0


def test_invalid_arguments():
    with pytest.raises(InvalidArguments):
        epsilon_even_split(-1, 10, 0.1)
    with pytest.raises(InvalidArguments):
        epsilon_even_split(11, 10, 0.1)
    with pytest.raises(InvalidArguments):
        epsilon_even_split(1, 10, 0.0)
    with pytest.raises(InvalidArguments):
        epsilon_even_split(1, 10, 1.0)


def _small_run(K=4):
    fam = ic.AffineFamily(
        A0=[[1.2]], B0=[[1.0]], A_terms=[[[0.1]]], B_terms=[[[0.0]]]
    )
    S = ic.box([-1], [1])
    U = ic.box([-2], [2])
    scen = ic.ScenarioSet.from_uniform_box([-1], [1], count=K, seed=0)
    policy = ic.solve_affine_policy(fam, S, U, scen)
    return fam, S, U, scen, policy


def test_build_certificate_and_serialization():
    _, _, _, scen, policy = _small_run()
    cert = ic.build_certificate(2, 1e-3, policy, scen)
    assert cert.K == scen.K and cert.s_K == 2
    assert cert.epsilon == pytest.approx(epsilon_even_split(2, scen.K, 1e-3))
    assert cert.invariance_probability == pytest.approx(1 - cert.epsilon)
    assert not cert.vacuous
    payload = json.loads(json.dumps(cert.to_dict()))
    for key in ("K", "s_K", "beta", "epsilon", "invariance_probability", "statement"):
        assert key in payload


def test_vacuous_certificate_flagged():
    _, _, _, scen, policy = _small_run()
    cert = ic.build_certificate(scen.K, 1e-3, policy, scen)
    assert cert.epsilon == 1.0
    assert cert.invariance_probability == 0.0
    assert cert.vacuous
    assert "VACUOUS" in cert.statement


def test_fingerprint_mismatch_rejected():
    _, _, _, scen, policy = _small_run()
    other = ic.ScenarioSet(samples=np.array([[0.123], [0.456], [0.7], [0.9]]))
    with pytest.raises(ic.MismatchedFingerprints):
        ic.build_certificate(1, 1e-3, policy, other)


def test_arguments_must_be_integers():
    with pytest.raises(InvalidArguments):
        epsilon_even_split(1.5, 10, 0.1)
    with pytest.raises(InvalidArguments):
        epsilon_even_split(1, 10.0, 0.1)


def _certificate(**changes):
    fields = dict(
        K=10, s_K=2, beta=1e-3, epsilon=0.5, policy_fingerprint="p", scenario_fingerprint="s"
    )
    return ic.Certificate(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"s_K": -1}, "need 0 <= s_K <= K"),
        ({"s_K": 11}, "need 0 <= s_K <= K"),
        ({"epsilon": -0.1}, r"epsilon must lie in \[0, 1\]"),
        ({"epsilon": 1.5}, r"epsilon must lie in \[0, 1\]"),
    ],
)
def test_certificate_out_of_range_refused(changes, message):
    with pytest.raises(InvalidArguments, match=message):
        _certificate(**changes)
