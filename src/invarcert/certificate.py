"""A-posteriori probabilistic certificates from support-subsample counts.

The violation-level function used here splits the confidence budget
``beta`` evenly over the K terms of the defining summation constraint,
which gives the closed form

    eps(h) = 1 - (beta / (K * binom(K, h)))**(1 / (K - h)),   h < K,

with ``eps(K) = 1``.  Everything is evaluated in the log domain through
the log-gamma function, so K in the hundreds or thousands is fine.
:func:`build_certificate` evaluates it at the size of a support subsample,
with ``K`` the size of the scenario set the policy was synthesized on.
"""

import json
import math
from dataclasses import dataclass

from .errors import InvalidArguments


def _log_binom(K: int, h: int) -> float:
    return math.lgamma(K + 1) - math.lgamma(h + 1) - math.lgamma(K - h + 1)


def epsilon_even_split(h: int, K: int, beta: float) -> float:
    """Violation level for a support subsample of size ``h`` out of ``K``.

    Satisfies the summation identity sum_{h<K} binom(K,h) (1-eps(h))^(K-h)
    = beta by construction (each term contributes beta/K exactly), and
    eps(K) = 1.
    """
    if not (isinstance(h, int) and isinstance(K, int)):
        raise InvalidArguments("h and K must be integers")
    if K < 1 or not 0 <= h <= K:
        raise InvalidArguments(f"need 0 <= h <= K with K >= 1, got h={h}, K={K}")
    if not 0.0 < beta < 1.0:
        raise InvalidArguments(f"beta must lie in (0, 1), got {beta}")
    if h == K:
        return 1.0
    log_term = (math.log(beta) - math.log(K) - _log_binom(K, h)) / (K - h)
    return -math.expm1(log_term)


def epsilon_table(K: int, beta: float) -> list[float]:
    """The full curve h -> eps(h), h = 0..K (convenience dump)."""
    return [epsilon_even_split(h, K, beta) for h in range(K + 1)]


@dataclass(frozen=True)
class Certificate:
    """Probabilistic controlled-invariance statement for one run."""

    K: int
    s_K: int
    beta: float
    epsilon: float
    policy_fingerprint: str
    scenario_fingerprint: str

    def __post_init__(self):
        if not 0 <= self.s_K <= self.K:
            raise InvalidArguments("need 0 <= s_K <= K")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidArguments("epsilon must lie in [0, 1]")

    @property
    def invariance_probability(self) -> float:
        return 1.0 - self.epsilon

    @property
    def vacuous(self) -> bool:
        return self.epsilon >= 1.0

    @property
    def statement(self) -> str:
        text = (
            f"With confidence at least {1.0 - self.beta:.10g}, the candidate "
            f"polytope is controlled invariant for the sampled system family "
            f"with probability at least {self.invariance_probability:.4f}; the "
            f"vertex control law built from the policy's per-vertex inputs "
            f"achieves this under the same guarantee."
        )
        if self.vacuous:
            text += " (VACUOUS: the support subsample exhausted the scenarios.)"
        return text

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "s_K": self.s_K,
            "beta": self.beta,
            "epsilon": self.epsilon,
            "invariance_probability": self.invariance_probability,
            "vacuous": self.vacuous,
            "statement": self.statement,
            "policy_fingerprint": self.policy_fingerprint,
            "scenario_fingerprint": self.scenario_fingerprint,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def build_certificate(s_K, beta, policy, scenarios) -> Certificate:
    """Package the certificate for a policy and the scenarios that built it.

    ``s_K`` must come from the greedy support-subsample reduction run on
    the same scenario set that produced ``policy``; ``K`` is that set's
    size, and fingerprints guard against mixing runs.
    """
    from .scenario import MismatchedFingerprints

    K = scenarios.K
    if (
        policy.scenario_fingerprint is not None
        and policy.scenario_fingerprint != scenarios.fingerprint
    ):
        raise MismatchedFingerprints(
            "policy was synthesized from a different scenario set"
        )
    return Certificate(
        K=K,
        s_K=s_K,
        beta=beta,
        epsilon=epsilon_even_split(s_K, K, beta),
        policy_fingerprint=policy.fingerprint,
        scenario_fingerprint=scenarios.fingerprint,
    )
