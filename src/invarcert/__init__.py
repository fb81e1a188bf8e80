"""Probabilistic controlled-invariance certificates for sampled uncertain
linear systems.

Given a candidate C-polytope, an input polytope and parameter samples of
an uncertain discrete-time LTI family, the toolbox synthesizes an affine
per-vertex input policy by linear programming, reduces the samples to a
support subsample, and converts its size into an a-posteriori bound on
the probability that the set is controlled invariant for unseen
parameters.  Closed-loop simulation of the induced vertex control law and
Monte Carlo violation estimates round out the pipeline.
"""

from .certificate import Certificate, build_certificate, epsilon_even_split, epsilon_table
from .closed_loop import (
    Trajectory,
    ViolationEstimate,
    empirical_violation,
    estimate_violation,
    simulate_closed_loop,
)
from .errors import (
    DimensionMismatch,
    InvalidArguments,
    InvarcertError,
    MaxIterationsExceeded,
    NumericalBreakdown,
)
from .feasibility import (
    MinorWitness,
    MultisampleResult,
    SingleSampleResult,
    multisample_necessary,
    single_sample_iff,
)
from .geometry import (
    DecompositionInfeasible,
    Polytope,
    box,
    contains,
    minkowski_gauge,
    validate_polytope,
    vertex_decompose,
)
from .lp_core import LinearProgram, LpOutcome, LpStatus, solve
from .scenario import (
    AffinePolicy,
    Infeasible,
    MismatchedFingerprints,
    ScenarioSet,
    UniformBox,
    greedy_support_subsample,
    is_admissible,
    solve_affine_policy,
    solve_constant_input,
    vertex_constraints,
)
from .system_family import (
    AffineFamily,
    Graph,
    NetworkFamily,
    TableFamily,
    build_incidence,
    spectral_radius_estimate,
)

__version__ = "0.1.0"
